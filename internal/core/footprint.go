package core

import (
	"slices"

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
//     fetched spans tight. Patches is its one walk, and Intake its one
//     intake: the real build moves those patches, and the simulator
//     charges them for Tables VI-VII.
//   - ExactDElements: the exact element-level union (Fig. 1's nz counts).
type Footprint struct {
	// spans[m] is the inclusive shell-index column span fetched for row
	// shell m, when held[m]; rows lists those m in the order they came.
	spans [][2]int
	held  []bool
	rows  []int
	// AddBlock's scratch, kept between calls: mark[p] is set while p is
	// listed in rows3, the union of the block rows' Phi.
	mark  []bool
	rows3 []int
	// Intake's scratch, made by its first call.
	in *intake
}

// intake is Intake's scratch: the block's own footprint, and the parts of
// the merged spans left (or wholly new) and right of the held spans.
type intake struct{ blk, lo, hi *Footprint }

// NewFootprint returns an empty footprint.
func NewFootprint() *Footprint { return &Footprint{} }

// Reset empties the footprint, keeping its storage.
func (f *Footprint) Reset() {
	for _, m := range f.rows {
		f.held[m] = false
	}
	f.rows = f.rows[:0]
}

// span returns row shell m's span; ok is false when f holds none.
func (f *Footprint) span(m int) (s [2]int, ok bool) {
	if m < len(f.held) && f.held[m] {
		return f.spans[m], true
	}
	return s, false
}

// addSpan merges the inclusive span [lo, hi] into row shell m.
func (f *Footprint) addSpan(m, lo, hi int) {
	if n := m + 1 - len(f.held); n > 0 {
		f.held = append(f.held, make([]bool, n)...)
		f.spans = append(f.spans, make([][2]int, n)...)
	}
	if !f.held[m] {
		f.held[m] = true
		f.rows = append(f.rows, m)
		f.spans[m] = [2]int{lo, hi}
		return
	}
	s := &f.spans[m]
	s[0], s[1] = min(s[0], lo), max(s[1], hi)
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
	if len(f.mark) < len(scr.Phi) {
		f.mark = make([]bool, len(scr.Phi))
	}
	// Region 1: (M, Phi(M)) for block rows; also collect rows3 = U Phi(M).
	f.rows3 = f.rows3[:0]
	for m := b.R0; m < b.R1; m++ {
		if lo, hi, ok := phiSpan(scr, m); ok {
			f.addSpan(m, lo, hi)
		}
		for _, p := range scr.Phi[m] {
			if !f.mark[p] {
				f.mark[p] = true
				f.rows3 = append(f.rows3, p)
			}
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
			colLo, colHi = min(colLo, lo), max(colHi, hi)
		}
	}
	// Region 3: (U Phi(M)) x (U Phi(N)); columns approximated by their
	// transfer span.
	for _, p := range f.rows3 {
		f.mark[p] = false
		if anyCol {
			f.addSpan(p, colLo, colHi)
		}
	}
}

// Intake is the one block intake, the real build's (worker.addWork) and
// the simulator's: it merges b into f and returns the patches of D that f
// did not hold. For each row shell of b's footprint that is the part of
// its merged span outside the span it held, the gap between the two
// included, and the whole span for a row f did not hold at all. So
// whoever has fetched every intake's patches holds D over each row's whole
// span — what the flush's Patches walk covers — and nothing twice.
func (f *Footprint) Intake(bs *basis.Set, scr *screen.Screening, grid *dist.Grid2D, b TaskBlock) []dist.Patch {
	if f.in == nil {
		f.in = &intake{NewFootprint(), NewFootprint(), NewFootprint()}
	}
	in := f.in
	in.blk.Reset()
	in.lo.Reset()
	in.hi.Reset()
	in.blk.AddBlock(scr, b)
	for _, m := range in.blk.rows {
		s := in.blk.spans[m]
		held, ok := f.span(m)
		switch {
		case !ok:
			in.lo.addSpan(m, s[0], s[1])
		default:
			if s[0] < held[0] {
				in.lo.addSpan(m, s[0], held[0]-1)
			}
			if s[1] > held[1] {
				in.hi.addSpan(m, held[1]+1, s[1])
			}
		}
		f.addSpan(m, s[0], s[1])
	}
	return append(in.lo.Patches(bs, grid), in.hi.Patches(bs, grid)...)
}

// Rows returns the row shells of the footprint in ascending order.
func (f *Footprint) Rows() []int {
	rows := slices.Clone(f.rows)
	slices.Sort(rows)
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
		m, s := rows[i], f.spans[rows[i]]
		j := i + 1
		for j < len(rows) && rows[j] == rows[j-1]+1 && f.spans[rows[j]] == s {
			j++
		}
		last := rows[j-1]
		out = append(out, grid.Patches(bs.Offsets[m], bs.Offsets[last]+bs.ShellFuncs(last),
			bs.Offsets[s[0]], bs.Offsets[s[1]]+bs.ShellFuncs(s[1]))...)
		i = j
	}
	return out
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
