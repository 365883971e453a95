package core

import "testing"

// FuzzQueue drives a queue with an arbitrary pop/steal/add schedule and
// checks task conservation: every task of the initial block and of every
// later AddBlock is delivered exactly once, through either the owner's
// Pop or a thief's drain, regardless of interleaving with the cursor and
// with the row steal splits.
func FuzzQueue(f *testing.F) {
	f.Add(uint8(4), uint8(3), []byte{0, 1, 0, 1, 1, 0})
	f.Add(uint8(10), uint8(10), []byte{1, 1, 1, 1, 0, 0, 0})
	f.Add(uint8(1), uint8(17), []byte{1, 1, 0, 1, 0, 1}) // 1xK: nothing to steal
	f.Add(uint8(2), uint8(9), []byte{0, 1, 3, 1, 2, 1, 0, 1})
	f.Fuzz(func(t *testing.T, rows, cols uint8, schedule []byte) {
		r := int(rows%32) + 1
		c := int(cols%32) + 1
		q := NewQueue(TaskBlock{R0: 0, R1: r, C0: 0, C1: c})
		blocks := []TaskBlock{{R0: 0, R1: r, C0: 0, C1: c}}
		nextRow := r // added blocks use fresh row ranges, keeping tasks distinct
		seen := map[Task]int{}
		var stolen []*Queue
		for si, op := range schedule {
			switch op % 4 {
			case 0: // owner pop
				if task, ok := q.Pop(); ok {
					seen[task]++
				}
			case 1: // steal into a new queue
				if blk, ok := q.Steal(); ok {
					if blk.Empty() {
						t.Fatalf("stole empty block %+v", blk)
					}
					stolen = append(stolen, NewQueue(blk))
				}
			case 2: // drain one stolen queue
				if len(stolen) > 0 {
					sq := stolen[len(stolen)-1]
					stolen = stolen[:len(stolen)-1]
					for {
						task, ok := sq.Pop()
						if !ok {
							break
						}
						seen[task]++
					}
				}
			case 3: // a stolen block arrives from elsewhere
				ar := int(schedule[si]%3) + 1
				ac := int(schedule[(si+1)%len(schedule)]%5) + 1
				nb := TaskBlock{R0: nextRow, R1: nextRow + ar, C0: 0, C1: ac}
				nextRow += ar
				q.AddBlock(nb)
				blocks = append(blocks, nb)
			}
		}
		// Drain everything that remains.
		for {
			task, ok := q.Pop()
			if !ok {
				break
			}
			seen[task]++
		}
		for _, sq := range stolen {
			for {
				task, ok := sq.Pop()
				if !ok {
					break
				}
				seen[task]++
			}
		}
		want := 0
		for _, b := range blocks {
			want += b.Count()
		}
		if len(seen) != want {
			t.Fatalf("delivered %d distinct tasks, want %d", len(seen), want)
		}
		for task, n := range seen {
			if n != 1 {
				t.Fatalf("task %v delivered %d times", task, n)
			}
			inBlock := false
			for _, b := range blocks {
				if task.M >= b.R0 && task.M < b.R1 && task.N >= b.C0 && task.N < b.C1 {
					inBlock = true
					break
				}
			}
			if !inBlock {
				t.Fatalf("task %v outside every block", task)
			}
		}
	})
}

// FuzzSymmetryCheck verifies the orbit-selection predicate's exclusivity
// for arbitrary index pairs.
func FuzzSymmetryCheck(f *testing.F) {
	f.Add(3, 5)
	f.Add(0, 0)
	f.Fuzz(func(t *testing.T, i, j int) {
		if i < 0 {
			i = -i
		}
		if j < 0 {
			j = -j
		}
		a, b := SymmetryCheck(i, j), SymmetryCheck(j, i)
		if i == j {
			if !a || !b {
				t.Fatal("diagonal must pass")
			}
		} else if a == b {
			t.Fatalf("(%d,%d): not mutually exclusive", i, j)
		}
	})
}
