// Package reorder implements the shell-ordering schemes of the paper's
// Sec. III-D: shells are sorted by the index of the small spatial cell
// containing their center, so that shells with nearby centers — which are
// exactly the pairs likely to be significant — receive nearby indices.
// This shrinks the spread of each Phi(M) and creates the footprint overlap
// between neighboring tasks that the prefetch scheme exploits (Fig. 1).
//
// Cell ordering with a "natural" (lexicographic) cell numbering is the
// paper's scheme; identity/random orderings serve as ablation baselines.
package reorder

import (
	"fmt"
	"math/rand"
	"sort"

	"gtfock/internal/basis"
)

// DefaultCellBohr is the default spatial cell edge length (Bohr); roughly
// two bond lengths, so a cell holds the shells of one or two atoms.
const DefaultCellBohr = 5.0

// Identity returns the identity permutation (generator order: the order
// atoms were emitted by the molecule builder).
func Identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// Random returns a seeded random shell permutation (worst-case ablation).
func Random(n int, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// ByName resolves the shell-ordering name every driver takes: "" and
// "natural" keep the generator's atom order (a nil function: nothing to
// permute), "cell" is the paper's cell ordering at the default edge. The
// name is checked without a basis, so a bad one costs no integral work.
func ByName(name string) (func(*basis.Set) []int, error) {
	switch name {
	case "", "natural":
		return nil, nil
	case "cell":
		return func(bs *basis.Set) []int { return Cell(bs, 0) }, nil
	}
	return nil, fmt.Errorf("unknown reordering %q", name)
}

// Cell returns the paper's cell ordering: the bounding box of the shell
// centers is divided into cubical cells of edge cellBohr (pass 0 for the
// default), cells are numbered in natural x-fastest lexicographic order,
// and shells are sorted by cell number (original order within a cell).
// The result r is usable with basis.Set.Permute: new shell i is old shell
// r[i].
func Cell(bs *basis.Set, cellBohr float64) []int {
	if cellBohr <= 0 {
		cellBohr = DefaultCellBohr
	}
	n := bs.NumShells()
	if n == 0 {
		return nil
	}
	min := bs.Shells[0].Center
	max := min
	for _, sh := range bs.Shells[1:] {
		c := sh.Center
		if c.X < min.X {
			min.X = c.X
		}
		if c.Y < min.Y {
			min.Y = c.Y
		}
		if c.Z < min.Z {
			min.Z = c.Z
		}
		if c.X > max.X {
			max.X = c.X
		}
		if c.Y > max.Y {
			max.Y = c.Y
		}
		if c.Z > max.Z {
			max.Z = c.Z
		}
	}
	nx := int((max.X-min.X)/cellBohr) + 1
	ny := int((max.Y-min.Y)/cellBohr) + 1

	keys := make([]int64, n)
	for i, sh := range bs.Shells {
		ix := int((sh.Center.X - min.X) / cellBohr)
		iy := int((sh.Center.Y - min.Y) / cellBohr)
		iz := int((sh.Center.Z - min.Z) / cellBohr)
		keys[i] = int64(iz)*int64(nx)*int64(ny) + int64(iy)*int64(nx) + int64(ix)
	}
	order := Identity(n)
	sort.SliceStable(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	return order
}

// IndexSpread measures ordering quality for a screening: the average over
// shells M of (max(Phi(M)) - min(Phi(M)) + 1) / n_shells — the normalized
// index spread of the significant sets. Lower is better; the paper's cell
// ordering exists to reduce exactly this quantity (Sec. III-D).
func IndexSpread(phi [][]int, nshells int) float64 {
	if len(phi) == 0 || nshells == 0 {
		return 0
	}
	var total float64
	for _, set := range phi {
		if len(set) == 0 {
			continue
		}
		min, max := set[0], set[0]
		for _, p := range set {
			if p < min {
				min = p
			}
			if p > max {
				max = p
			}
		}
		total += float64(max-min+1) / float64(nshells)
	}
	return total / float64(len(phi))
}
