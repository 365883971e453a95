// Package nwchem implements the baseline distributed Fock construction
// algorithm of NWChem as described in the paper's Sec. II-F and
// Algorithm 2: F and D distributed in block rows by atom, tasks of five
// atom quartets (I J K, L:L+4), and a centralized dynamic scheduler
// (a single global task counter) that every process polls.
//
// Like internal/core it has a real goroutine execution (validated against
// the same brute-force oracle) and a discrete-event simulation for
// paper-scale core counts.
package nwchem

import (
	"fmt"

	"gtfock/internal/basis"
	"gtfock/internal/screen"
)

// AtomData aggregates shell-level screening to atom level, the granularity
// of the baseline's tasks.
type AtomData struct {
	N int // number of atoms
	// PairVal[i*N+j] = max shell-pair value between atoms i and j.
	PairVal []float64
	// W[i*N+j] = sum of nbf(M)*nbf(N) over significant shell pairs
	// (M in atom i, N in atom j): the workload weight of the atom pair.
	W []float64
	// FuncOff[a], FuncLen[a]: the contiguous basis-function range of atom a.
	FuncOff, FuncLen []int
	MaxPair          float64
	Tau              float64
}

// NewAtomData builds atom-level aggregates. The basis must be in generator
// order (shells of each atom contiguous), which is how NWChem's block-row
// distribution lays out matrices.
func NewAtomData(bs *basis.Set, scr *screen.Screening) (*AtomData, error) {
	na := len(bs.ByAtom)
	ad := &AtomData{
		N:       na,
		PairVal: make([]float64, na*na),
		W:       make([]float64, na*na),
		FuncOff: make([]int, na),
		FuncLen: make([]int, na),
		Tau:     scr.Tau,
	}
	for a, shells := range bs.ByAtom {
		if len(shells) == 0 {
			return nil, fmt.Errorf("nwchem: atom %d has no shells", a)
		}
		off := bs.Offsets[shells[0]]
		n := 0
		for i, s := range shells {
			if i > 0 && s != shells[i-1]+1 {
				return nil, fmt.Errorf("nwchem: atom %d shells not contiguous (reordered basis?)", a)
			}
			n += bs.ShellFuncs(s)
		}
		ad.FuncOff[a] = off
		ad.FuncLen[a] = n
	}
	for i := 0; i < na; i++ {
		for j := 0; j < na; j++ {
			var pv, w float64
			for _, m := range bs.ByAtom[i] {
				for _, n := range bs.ByAtom[j] {
					v := scr.PairValue(m, n)
					if v > pv {
						pv = v
					}
					if scr.Significant(m, n) {
						w += float64(bs.ShellFuncs(m) * bs.ShellFuncs(n))
					}
				}
			}
			ad.PairVal[i*na+j] = pv
			ad.W[i*na+j] = w
			if pv > ad.MaxPair {
				ad.MaxPair = pv
			}
		}
	}
	return ad, nil
}

// Sig reports whether the atom pair (i, j) is significant.
func (ad *AtomData) Sig(i, j int) bool {
	return ad.PairVal[i*ad.N+j] >= ad.Tau/ad.MaxPair
}

// TaskStream enumerates the task ids of Algorithm 2 lazily: one task per
// stride-5 block of L atoms per unique significant triplet (I, J, K).
type TaskStream struct {
	ad          *AtomData
	i, j, k, lo int
	done        bool
}

// TaskDesc describes one baseline task.
type TaskDesc struct {
	I, J, K, Lo, Lhi int // L runs over [Lo, min(Lo+4, Lhi)]
}

// NewTaskStream positions the stream before the first task.
func NewTaskStream(ad *AtomData) *TaskStream {
	return &TaskStream{ad: ad, lo: -5}
}

// blockHasWork reports whether the current L block contains at least one
// significant atom pair (K, L). Blocks that are entirely screened away do
// not consume task ids: every process can evaluate this locally from the
// screening data, so the enumeration stays globally consistent while the
// centralized counter is spared the (vast, for 1D systems) empty id space.
func (ts *TaskStream) blockHasWork() bool {
	for l := ts.lo; l <= min(ts.lo+4, ts.lhi()); l++ {
		if ts.ad.Sig(ts.k, l) {
			return true
		}
	}
	return false
}

// lhi returns the inclusive upper L bound of the current triplet.
func (ts *TaskStream) lhi() int {
	if ts.k == ts.i {
		return ts.j
	}
	return ts.k
}

// Next returns the next task, or ok=false when the stream is exhausted.
func (ts *TaskStream) Next() (TaskDesc, bool) {
	if ts.done {
		return TaskDesc{}, false
	}
	na := ts.ad.N
	for {
		ts.lo += 5
		if ts.lo <= ts.lhi() && ts.ad.Sig(ts.i, ts.j) {
			if ts.blockHasWork() {
				return TaskDesc{I: ts.i, J: ts.j, K: ts.k, Lo: ts.lo, Lhi: ts.lhi()}, true
			}
			continue // skip an all-screened L block without spending an id
		}
		// Advance (i, j, k) to the next triplet.
		ts.lo = -5
		ts.k++
		if ts.k > ts.i {
			ts.k = 0
			ts.j++
			if ts.j > ts.i {
				ts.j = 0
				ts.i++
				if ts.i >= na {
					ts.done = true
					return TaskDesc{}, false
				}
			}
		}
		// Skip insignificant (I, J) pairs without spending ids.
		if !ts.ad.Sig(ts.i, ts.j) {
			// Jump past all K for this (i, j).
			ts.k = ts.i
			ts.lo = ts.lhi() + 1 // force triplet advance on next spin
			continue
		}
	}
}

// TaskBlocks is a task's one walk, shared by the real build and the
// simulator: it appends to ls the L values whose atom quartet (I J | K L)
// survives screening, and to blocks the distinct atom blocks those
// quartets read from D and add to F, (I,J), (I,K), (J,K) first and then
// (K,L), (J,L), (I,L) for each L in order.
func (ad *AtomData) TaskBlocks(td TaskDesc, ls []int, blocks [][2]int) ([]int, [][2]int) {
	n0 := len(ls)
	for l := td.Lo; l <= min(td.Lo+4, td.Lhi); l++ {
		if ad.Sig(td.K, l) {
			ls = append(ls, l)
		}
	}
	b0 := len(blocks)
	blocks = appendBlock(blocks, b0, [2]int{td.I, td.J})
	blocks = appendBlock(blocks, b0, [2]int{td.I, td.K})
	blocks = appendBlock(blocks, b0, [2]int{td.J, td.K})
	for _, l := range ls[n0:] {
		// A block (x, L) can repeat one of the first three only if L is J
		// or K, and never one of another L's.
		from := len(blocks)
		if l == td.J || l == td.K {
			from = b0
		}
		blocks = appendBlock(blocks, from, [2]int{td.K, l})
		blocks = appendBlock(blocks, from, [2]int{td.J, l})
		blocks = appendBlock(blocks, from, [2]int{td.I, l})
	}
	return ls, blocks
}

// appendBlock appends b to blocks unless blocks[from:] holds it. It and
// the walk's readers index [][2]int rather than range over it: under
// -race a range loop pays a pointer check per element, and the race suite
// runs the simulator at paper scale.
func appendBlock(blocks [][2]int, from int, b [2]int) [][2]int {
	for i := from; i < len(blocks); i++ {
		if blocks[i] == b {
			return blocks
		}
	}
	return append(blocks, b)
}
