// Package core implements the paper's contribution: the GTFock parallel
// Fock matrix construction algorithm (Sec. III). A task is the computation
// of the shell-quartet set (M,: | N,:) for one shell pair (M,N); tasks are
// statically partitioned in blocks over a 2D process grid, each process
// prefetches the density blocks its tasks touch into a local buffer,
// accumulates Fock contributions locally, and a distributed work-stealing
// scheduler rebalances the tail of the computation (Algorithms 3 and 4).
//
// The package provides three executions of the same algorithm:
//
//   - BuildSerial: a brute-force single-threaded reference used as a
//     correctness oracle;
//   - Build (real mode): goroutine processes over dist.GlobalArray, with
//     real work stealing and full communication accounting, each process
//     running its tasks on GOMAXPROCS/(processes) lanes;
//   - Simulate (sim mode): a discrete-event simulation of the algorithm at
//     paper scale (up to 3888 cores) using the screening-derived workload
//     model described in DESIGN.md.
package core

import (
	"sync"

	"gtfock/internal/integrals"
)

// SymmetryCheck is the uniqueness predicate of Sec. III-C: for every
// unordered index pair {i,j}, exactly one of SymmetryCheck(i,j) /
// SymmetryCheck(j,i) holds (both hold iff i == j). Applying it to (M,N),
// (M,P) and (N,Q) selects exactly one representative of each 8-fold
// symmetry orbit of shell quartets (MP|NQ) across all tasks.
func SymmetryCheck(i, j int) bool {
	switch {
	case i == j:
		return true
	case i > j:
		return (i+j)%2 == 0
	default:
		return (i+j)%2 == 1
	}
}

// PairCheck is the pair orientation of doTask's quartets: SymmetryCheck
// on the shell families of pt (integrals.PairTable.Family), ties inside
// one family broken by SymmetryCheck on the shell indices. It is a
// uniqueness predicate like SymmetryCheck — exactly one of (i,j) / (j,i)
// for i != j — so bra (M,P), ket (N,Q) and the M==N tie (P,Q) still
// select one representative per orbit; it only changes which orientation
// of a pair is kept, so that a task's bra M keeps all or none of a
// family's P (and its ket N all or none of a family's Q) whenever that
// family is not M's (N's) own — the siblings ERIBatch computes together.
// Tasks stay SymmetryCheck(M,N)'s.
func PairCheck(pt *integrals.PairTable, i, j int) bool {
	fi, fj := pt.Family(i), pt.Family(j)
	if fi == fj {
		return SymmetryCheck(i, j)
	}
	return SymmetryCheck(fi, fj)
}

// Task identifies the computation (M,: | N,:) for row shell M and column
// shell N.
type Task struct{ M, N int }

// TaskBlock is a rectangular block of tasks: row shells [R0,R1) x column
// shells [C0,C1) — the unit of the initial static partition and of
// work stealing.
type TaskBlock struct{ R0, R1, C0, C1 int }

// Count returns the number of tasks in the block.
func (b TaskBlock) Count() int { return (b.R1 - b.R0) * (b.C1 - b.C0) }

// Empty reports whether the block holds no tasks.
func (b TaskBlock) Empty() bool { return b.R0 >= b.R1 || b.C0 >= b.C1 }

// Queue is the per-process task queue of Algorithm 4: a deque of task
// blocks. The owner pops single tasks from the front; thieves steal a
// block of tasks from the back, halving the victim's remaining work.
// All operations are mutex-protected ("atomic queue operations"); Ops
// counts them, reproducing the scheduler-overhead metric of Sec. IV-C.
type Queue struct {
	mu     sync.Mutex
	blocks []TaskBlock
	closed bool
	// cursor walks the front block in row-major task order.
	cur      Task
	curSet   bool
	Ops      int64 // atomic operations performed on this queue
	StealOps int64 // subset of Ops issued by thieves
}

// NewQueue creates a queue holding a single block.
func NewQueue(b TaskBlock) *Queue {
	q := &Queue{}
	if !b.Empty() {
		q.blocks = []TaskBlock{b}
	}
	return q
}

// Pop removes and returns the next task in owner order.
func (q *Queue) Pop() (Task, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.Ops++
	if q.closed {
		return Task{}, false
	}
	for len(q.blocks) > 0 {
		b := &q.blocks[0]
		if b.Empty() {
			q.blocks = q.blocks[1:]
			q.curSet = false
			continue
		}
		if !q.curSet {
			q.cur = Task{b.R0, b.C0}
			q.curSet = true
		}
		t := q.cur
		// Advance row-major within the block.
		q.cur.N++
		if q.cur.N >= b.C1 {
			q.cur.N = b.C0
			q.cur.M++
			if q.cur.M >= b.R1 {
				// Block exhausted.
				q.blocks = q.blocks[1:]
				q.curSet = false
			}
		}
		// Shrink the front block to the unconsumed region so thieves see
		// only remaining work: rows above cur.M are done.
		if len(q.blocks) > 0 && q.curSet {
			q.blocks[0].R0 = q.cur.M
		}
		return t, true
	}
	return Task{}, false
}

// AddBlock appends a (stolen) block of tasks to the back of the queue.
func (q *Queue) AddBlock(b TaskBlock) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.Ops++
	if !q.closed && !b.Empty() {
		q.blocks = append(q.blocks, b)
	}
}

// Steal removes about half of the remaining tasks (rounded down) and
// returns them as a block for the thief, scanning blocks from the back.
// The primary split is by rows (the paper's policy); when a block has
// too few whole rows to halve — a single-row but arbitrarily wide
// block, or a cursor-pinned two-row block, exactly the tail-imbalance
// shapes work stealing exists for — it falls back to splitting off the
// right half of the columns the owner has not consumed. Steal fails
// only when no block holds 2 or more unconsumed tasks beyond the
// owner's cursor position.
func (q *Queue) Steal() (TaskBlock, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.Ops++
	q.StealOps++
	if q.closed {
		return TaskBlock{}, false
	}
	for i := len(q.blocks) - 1; i >= 0; i-- {
		b := &q.blocks[i]
		// The owner's cursor walks the first row of the front block (Pop
		// keeps blocks[0].R0 = cur.M); that row is only stealable by the
		// column fallback below, and only beyond the cursor.
		pinned := i == 0 && q.curSet
		rows := b.R1 - b.R0
		if pinned {
			rows--
		}
		if rows >= 2 {
			take := rows / 2
			stolen := TaskBlock{R0: b.R1 - take, R1: b.R1, C0: b.C0, C1: b.C1}
			b.R1 -= take
			return stolen, true
		}
		if pinned && rows == 1 {
			// One whole row below the cursor's row: a row split cannot
			// halve it, and a column split would have to carve the cursor
			// row too; take the whole row instead.
			stolen := TaskBlock{R0: b.R1 - 1, R1: b.R1, C0: b.C0, C1: b.C1}
			b.R1--
			return stolen, true
		}
		// Column-split fallback: the block is a single (possibly partially
		// consumed) row. Split off the right half of the columns the owner
		// has not reached; the cursor keeps walking to the shrunken C1.
		lo := b.C0
		if pinned {
			lo = q.cur.N
		}
		if avail := b.C1 - lo; avail >= 2 {
			take := avail / 2
			stolen := TaskBlock{R0: b.R0, R1: b.R1, C0: b.C1 - take, C1: b.C1}
			b.C1 -= take
			return stolen, true
		}
	}
	return TaskBlock{}, false
}

// Remaining returns the number of unconsumed tasks left in the queue,
// excluding the tasks of the partially consumed front row the owner has
// already popped.
func (q *Queue) Remaining() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for i := range q.blocks {
		n += q.blocks[i].Count()
	}
	if q.curSet && len(q.blocks) > 0 {
		// Pop keeps blocks[0].R0 = cur.M, so rows above the cursor are
		// already excluded; subtract the consumed columns of row cur.M.
		n -= q.cur.N - q.blocks[0].C0
	}
	return n
}

// Close confiscates the queue: all remaining blocks are dropped and
// every later Pop/Steal/AddBlock is a no-op. The recovery monitor closes
// the queue of a fenced worker so its tasks are re-executed only through
// the orphan pool.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.Ops++
	q.closed = true
	q.blocks = nil
	q.curSet = false
}
