package core

import (
	"sort"

	"gtfock/internal/basis"
	"gtfock/internal/dist"
	"gtfock/internal/screen"
)

// The D and F footprint of the task (M,:|N,:) is, per Sec. III-B, the
// shell-block index sets (M, Phi(M)), (N, Phi(N)) and (Phi(M), Phi(N)).
// For a block of tasks the three regions are unioned over the block's rows
// and columns. Two views of the footprint are used:
//
//   - Footprint: the *transfer* footprint — per row shell, the contiguous
//     column span [min, max] of the shells it touches. This is what an
//     implementation fetches with strided one-sided Gets, and it is why
//     the paper's spatial reordering matters: a tight Phi span makes the
//     fetched spans tight. Patches is its one walk: the real build moves
//     those patches, and the simulator charges them for Tables VI-VII.
//   - ExactDElements: the exact element-level union (Fig. 1's nz counts).
type Footprint struct {
	// span[m] = inclusive shell-index column span fetched for row shell m.
	span map[int][2]int
}

// NewFootprint returns an empty footprint.
func NewFootprint() *Footprint { return &Footprint{span: map[int][2]int{}} }

// Reset empties the footprint, keeping its storage.
func (f *Footprint) Reset() { clear(f.span) }

// addSpan merges the inclusive span [lo, hi] into row shell m.
func (f *Footprint) addSpan(m, lo, hi int) {
	if s, ok := f.span[m]; ok {
		if s[0] < lo {
			lo = s[0]
		}
		if s[1] > hi {
			hi = s[1]
		}
	}
	f.span[m] = [2]int{lo, hi}
}

// phiSpan returns the inclusive span of Phi(m); ok is false when Phi(m) is
// empty.
func phiSpan(scr *screen.Screening, m int) (lo, hi int, ok bool) {
	phi := scr.Phi[m]
	if len(phi) == 0 {
		return 0, 0, false
	}
	return phi[0], phi[len(phi)-1], true
}

// AddBlock extends the footprint with the regions of a task block.
func (f *Footprint) AddBlock(scr *screen.Screening, b TaskBlock) {
	if b.Empty() {
		return
	}
	// Region 1: (M, Phi(M)) for block rows; also collect rows3 = U Phi(M).
	rows3 := map[int]bool{}
	for m := b.R0; m < b.R1; m++ {
		if lo, hi, ok := phiSpan(scr, m); ok {
			f.addSpan(m, lo, hi)
		}
		for _, p := range scr.Phi[m] {
			rows3[p] = true
		}
	}
	// Region 2: (N, Phi(N)) for block columns; collect the ket span.
	colLo, colHi, anyCol := 0, 0, false
	for n := b.C0; n < b.C1; n++ {
		lo, hi, ok := phiSpan(scr, n)
		if !ok {
			continue
		}
		f.addSpan(n, lo, hi)
		if !anyCol {
			colLo, colHi, anyCol = lo, hi, true
		} else {
			if lo < colLo {
				colLo = lo
			}
			if hi > colHi {
				colHi = hi
			}
		}
	}
	// Region 3: (U Phi(M)) x (U Phi(N)); columns approximated by their
	// transfer span.
	if anyCol {
		for p := range rows3 {
			f.addSpan(p, colLo, colHi)
		}
	}
}

// Rows returns the row shells of the footprint in ascending order.
func (f *Footprint) Rows() []int {
	rows := make([]int, 0, len(f.span))
	for m := range f.span {
		rows = append(rows, m)
	}
	sort.Ints(rows)
	return rows
}

// Patches is the one footprint walk, the real build's and the
// simulator's: the patches that move f once (a Get each for D, an Acc each
// for F). A run of consecutive row shells with equal column spans is one
// rectangle, split by owner block — so a patch never leaves one block, and
// the elements moved are exactly the paper's per-row-shell walk's
// (Sec. III-D) in fewer calls. Rows ascend, so the Get and Acc sequences
// — and with them the Acc tokens — repeat from build to build.
func (f *Footprint) Patches(bs *basis.Set, grid *dist.Grid2D) []dist.Patch {
	var out []dist.Patch
	rows := f.Rows()
	for i := 0; i < len(rows); {
		m, s := rows[i], f.span[rows[i]]
		j := i + 1
		for j < len(rows) && rows[j] == rows[j-1]+1 && f.span[rows[j]] == s {
			j++
		}
		last := rows[j-1]
		out = append(out, grid.Patches(bs.Offsets[m], bs.Offsets[last]+bs.ShellFuncs(last),
			bs.Offsets[s[0]], bs.Offsets[s[1]]+bs.ShellFuncs(s[1]))...)
		i = j
	}
	return out
}

// BufferBytes returns the size of the local buffer holding the footprint
// (the Dlocal a thief copies when it steals from a new victim).
func (f *Footprint) BufferBytes(bs *basis.Set) int64 {
	var b int64
	for m, s := range f.span {
		rows := int64(bs.ShellFuncs(m))
		cols := int64(bs.Offsets[s[1]] + bs.ShellFuncs(s[1]) - bs.Offsets[s[0]])
		b += 8 * rows * cols
	}
	return b
}

// ExactDElements returns the exact number of D elements required by a task
// block: the element count of the union of the three regions (the paper's
// Fig. 1 nz values), plus the shell-pair set itself for rendering.
func ExactDElements(bs *basis.Set, scr *screen.Screening, b TaskBlock) (int64, map[[2]int]bool) {
	pairs := map[[2]int]bool{}
	rows3 := map[int]bool{}
	cols3 := map[int]bool{}
	for m := b.R0; m < b.R1; m++ {
		for _, p := range scr.Phi[m] {
			pairs[[2]int{m, p}] = true
			rows3[p] = true
		}
	}
	for n := b.C0; n < b.C1; n++ {
		for _, q := range scr.Phi[n] {
			pairs[[2]int{n, q}] = true
			cols3[q] = true
		}
	}
	for p := range rows3 {
		for q := range cols3 {
			pairs[[2]int{p, q}] = true
		}
	}
	var elems int64
	for pq := range pairs {
		elems += int64(bs.ShellFuncs(pq[0]) * bs.ShellFuncs(pq[1]))
	}
	return elems, pairs
}
