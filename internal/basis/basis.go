// Package basis implements contracted Gaussian basis sets grouped into
// shells, following the paper's terminology (Sec. II-A): a *shell* is a set
// of basis functions sharing an angular momentum and a center; an *atom* is
// the set of shells on one center. Shells are the minimal ERI batching
// unit; atoms are the batching unit of the NWChem-style baseline.
//
// The built-in "cc-pvdz" set reproduces the exact shell structure of
// Dunning's cc-pVDZ for H and C (H: 3 shells / 5 functions, C: 6 shells /
// 14 functions, spherical d), so molecule-level shell and function counts
// match the paper's Table II and Fig. 1 (e.g. C100H202 -> 1206 shells,
// 2410 functions). Exponents and contraction coefficients are close to the
// published values; see DESIGN.md for the substitution note.
package basis

import (
	"fmt"
	"math"

	"gtfock/internal/chem"
)

// Shell is one contracted Gaussian shell. Coefs hold the contraction
// coefficients with primitive normalization folded in, scaled so the
// contracted functions are unit-normalized (xy-convention for d shells;
// see the integrals package).
type Shell struct {
	L      int // angular momentum: 0=s, 1=p, 2=d, ...
	Atom   int // index of the parent atom in the molecule
	Pos    int // position among its atom's shells in the basis-set table
	Center chem.Vec3
	Exps   []float64
	Coefs  []float64
}

// NumFuncs returns the number of (spherical) basis functions in the shell.
func (s *Shell) NumFuncs() int { return 2*s.L + 1 }

// NumCart returns the number of Cartesian components for the shell's L.
func (s *Shell) NumCart() int { return (s.L + 1) * (s.L + 2) / 2 }

// Set is a basis set instantiated on a molecule.
type Set struct {
	Name     string
	Mol      *chem.Molecule
	Shells   []Shell
	Offsets  []int   // Offsets[i] = index of first basis function of shell i
	NumFuncs int     // total basis functions
	AtomOf   []int   // AtomOf[i] = atom index of shell i (== Shells[i].Atom)
	ByAtom   [][]int // ByAtom[a] = shell indices on atom a
}

// NumShells returns the number of shells.
func (b *Set) NumShells() int { return len(b.Shells) }

// ShellFuncs returns the number of basis functions of shell i.
func (b *Set) ShellFuncs(i int) int { return b.Shells[i].NumFuncs() }

// AvgFuncsPerShell returns A, the average number of basis functions per
// shell (the quantity A of the paper's performance model, Sec. III-G).
func (b *Set) AvgFuncsPerShell() float64 {
	if len(b.Shells) == 0 {
		return 0
	}
	return float64(b.NumFuncs) / float64(len(b.Shells))
}

// elementShell is a shell template from a basis-set table.
type elementShell struct {
	l     int
	exps  []float64
	coefs []float64
}

// Tables of built-in basis sets, keyed by atomic number.
var tables = map[string]map[int][]elementShell{
	// cc-pVDZ-like data for H and C (see package comment).
	"cc-pvdz": {
		chem.ZHydrogen: {
			{l: 0,
				exps:  []float64{13.0100, 1.9620, 0.4446},
				coefs: []float64{0.019685, 0.137977, 0.478148}},
			{l: 0, exps: []float64{0.1220}, coefs: []float64{1}},
			{l: 1, exps: []float64{0.7270}, coefs: []float64{1}},
		},
		chem.ZCarbon: {
			{l: 0,
				exps: []float64{6665.0, 1000.0, 228.0, 64.71, 21.06,
					7.495, 2.797, 0.5215},
				coefs: []float64{0.000692, 0.005329, 0.027077, 0.101718,
					0.274740, 0.448564, 0.285074, 0.015204}},
			{l: 0,
				exps: []float64{6665.0, 1000.0, 228.0, 64.71, 21.06,
					7.495, 2.797, 0.5215},
				coefs: []float64{-0.000146, -0.001154, -0.005725, -0.023312,
					-0.063955, -0.149981, -0.127262, 0.544529}},
			{l: 0, exps: []float64{0.1596}, coefs: []float64{1}},
			{l: 1,
				exps:  []float64{9.439, 2.002, 0.5456},
				coefs: []float64{0.038109, 0.209480, 0.508557}},
			{l: 1, exps: []float64{0.1517}, coefs: []float64{1}},
			{l: 2, exps: []float64{0.5500}, coefs: []float64{1}},
		},
	},
	// cc-pVTZ-like data (exact cc-pVTZ shell structure for H and C:
	// H [3s2p1d] -> 6 shells / 14 funcs, C [4s3p2d1f] -> 10 shells /
	// 30 funcs; exponents/coefficients approximate, see DESIGN.md).
	"cc-pvtz": {
		chem.ZHydrogen: {
			{l: 0,
				exps:  []float64{33.870, 5.095, 1.159},
				coefs: []float64{0.006068, 0.045308, 0.202822}},
			{l: 0, exps: []float64{0.3258}, coefs: []float64{1}},
			{l: 0, exps: []float64{0.1027}, coefs: []float64{1}},
			{l: 1, exps: []float64{1.407}, coefs: []float64{1}},
			{l: 1, exps: []float64{0.388}, coefs: []float64{1}},
			{l: 2, exps: []float64{1.057}, coefs: []float64{1}},
		},
		chem.ZCarbon: {
			{l: 0,
				exps: []float64{8236.0, 1235.0, 280.8, 79.27, 25.59,
					8.997, 3.319, 0.3643},
				coefs: []float64{0.000531, 0.004108, 0.021087, 0.081853,
					0.234817, 0.434401, 0.346129, -0.008983}},
			{l: 0,
				exps: []float64{8236.0, 1235.0, 280.8, 79.27, 25.59,
					8.997, 3.319, 0.3643},
				coefs: []float64{-0.000113, -0.000878, -0.004540, -0.018133,
					-0.055760, -0.126895, -0.170352, 0.598684}},
			{l: 0, exps: []float64{0.9059}, coefs: []float64{1}},
			{l: 0, exps: []float64{0.1285}, coefs: []float64{1}},
			{l: 1,
				exps:  []float64{18.71, 4.133, 1.200},
				coefs: []float64{0.014031, 0.086866, 0.290216}},
			{l: 1, exps: []float64{0.3827}, coefs: []float64{1}},
			{l: 1, exps: []float64{0.1209}, coefs: []float64{1}},
			{l: 2, exps: []float64{1.097}, coefs: []float64{1}},
			{l: 2, exps: []float64{0.318}, coefs: []float64{1}},
			{l: 3, exps: []float64{0.761}, coefs: []float64{1}},
		},
	},
	// Pople 6-31G (split valence; H 2 shells / 2 funcs, C 5 shells /
	// 9 funcs).
	"6-31g": {
		chem.ZHydrogen: {
			{l: 0,
				exps:  []float64{18.7311370, 2.8253937, 0.6401217},
				coefs: []float64{0.03349460, 0.23472695, 0.81375733}},
			{l: 0, exps: []float64{0.1612778}, coefs: []float64{1}},
		},
		chem.ZCarbon: {
			{l: 0,
				exps: []float64{3047.5249, 457.36951, 103.94869,
					29.210155, 9.2866630, 3.1639270},
				coefs: []float64{0.0018347, 0.0140373, 0.0688426,
					0.2321844, 0.4679413, 0.3623120}},
			{l: 0,
				exps:  []float64{7.8682724, 1.8812885, 0.5442493},
				coefs: []float64{-0.1193324, -0.1608542, 1.1434564}},
			{l: 1,
				exps:  []float64{7.8682724, 1.8812885, 0.5442493},
				coefs: []float64{0.0689991, 0.3164240, 0.7443083}},
			{l: 0, exps: []float64{0.1687144}, coefs: []float64{1}},
			{l: 1, exps: []float64{0.1687144}, coefs: []float64{1}},
		},
	},
	// STO-3G, for fast correctness tests.
	"sto-3g": {
		chem.ZHydrogen: {
			{l: 0,
				exps:  []float64{3.42525091, 0.62391373, 0.16885540},
				coefs: []float64{0.15432897, 0.53532814, 0.44463454}},
		},
		chem.ZCarbon: {
			{l: 0,
				exps:  []float64{71.6168370, 13.0450960, 3.5305122},
				coefs: []float64{0.15432897, 0.53532814, 0.44463454}},
			{l: 0,
				exps:  []float64{2.9412494, 0.6834831, 0.2222899},
				coefs: []float64{-0.09996723, 0.39951283, 0.70011547}},
			{l: 1,
				exps:  []float64{2.9412494, 0.6834831, 0.2222899},
				coefs: []float64{0.15591627, 0.60768372, 0.39195739}},
		},
	},
}

// Names returns the available built-in basis set names.
func Names() []string { return []string{"sto-3g", "6-31g", "cc-pvdz", "cc-pvtz"} }

// Build instantiates the named basis set on a molecule.
func Build(mol *chem.Molecule, name string) (*Set, error) {
	table, ok := tables[name]
	if !ok {
		return nil, fmt.Errorf("basis: unknown basis set %q", name)
	}
	b := &Set{Name: name, Mol: mol, ByAtom: make([][]int, len(mol.Atoms))}
	for ai, atom := range mol.Atoms {
		shells, ok := table[atom.Z]
		if !ok {
			return nil, fmt.Errorf("basis: %s has no data for element %s",
				name, chem.Symbol(atom.Z))
		}
		for pos, es := range shells {
			sh := Shell{
				L:      es.l,
				Atom:   ai,
				Pos:    pos,
				Center: atom.Pos,
				Exps:   append([]float64(nil), es.exps...),
				Coefs:  normalizeContraction(es.l, es.exps, es.coefs),
			}
			b.ByAtom[ai] = append(b.ByAtom[ai], len(b.Shells))
			b.AtomOf = append(b.AtomOf, ai)
			b.Shells = append(b.Shells, sh)
		}
	}
	b.rebuildOffsets()
	return b, nil
}

// rebuildOffsets recomputes Offsets and NumFuncs from Shells.
func (b *Set) rebuildOffsets() {
	b.Offsets = make([]int, len(b.Shells)+1)
	for i := range b.Shells {
		b.Offsets[i+1] = b.Offsets[i] + b.Shells[i].NumFuncs()
	}
	b.NumFuncs = b.Offsets[len(b.Shells)]
	b.Offsets = b.Offsets[:len(b.Shells)]
}

// Permute returns a new Set whose shell i is b.Shells[order[i]]. order must
// be a permutation of [0, NumShells). This implements the basis-function
// renumbering of the paper's Sec. III-D: functions within a shell stay
// consecutive, and consecutive shells get consecutive function blocks.
func (b *Set) Permute(order []int) *Set {
	if len(order) != len(b.Shells) {
		panic("basis: Permute length mismatch")
	}
	seen := make([]bool, len(order))
	nb := &Set{Name: b.Name, Mol: b.Mol, ByAtom: make([][]int, len(b.ByAtom))}
	for newIdx, oldIdx := range order {
		if oldIdx < 0 || oldIdx >= len(b.Shells) || seen[oldIdx] {
			panic("basis: Permute order is not a permutation")
		}
		seen[oldIdx] = true
		sh := b.Shells[oldIdx]
		nb.Shells = append(nb.Shells, sh)
		nb.AtomOf = append(nb.AtomOf, sh.Atom)
		nb.ByAtom[sh.Atom] = append(nb.ByAtom[sh.Atom], newIdx)
	}
	nb.rebuildOffsets()
	return nb
}

// FunctionPermutation returns the basis-function index map induced by
// Permute(order): fmap[oldFunc] = newFunc. Useful for comparing matrices
// computed in differently ordered bases.
func (b *Set) FunctionPermutation(order []int) []int {
	nb := b.Permute(order)
	fmap := make([]int, b.NumFuncs)
	for newIdx, oldIdx := range order {
		oldOff := b.Offsets[oldIdx]
		newOff := nb.Offsets[newIdx]
		for k := 0; k < b.ShellFuncs(oldIdx); k++ {
			fmap[oldOff+k] = newOff + k
		}
	}
	return fmap
}

// doubleFactorial returns n!! with (-1)!! == 0!! == 1.
func doubleFactorial(n int) float64 {
	r := 1.0
	for ; n > 1; n -= 2 {
		r *= float64(n)
	}
	return r
}

// primNorm returns the normalization constant of a primitive Gaussian of
// exponent a and angular momentum l, using the "all-ones" Cartesian
// reference component (x^l for p, xy for d): the convention under which the
// spherical transform in the integrals package yields unit-normalized
// spherical functions.
func primNorm(a float64, l int) float64 {
	var k float64
	switch l {
	case 0, 1:
		k = 1
	case 2:
		k = 1 // xy component: (2*1-1)!!^2 = 1
	default:
		// Reference component with maximally spread exponents.
		i := (l + 1) / 2
		j := l - i
		k = doubleFactorial(2*i-1) * doubleFactorial(2*j-1)
	}
	return math.Pow(2*a/math.Pi, 0.75) * math.Pow(4*a, float64(l)/2) / math.Sqrt(k)
}

// refSelfOverlap returns the self-overlap of the reference Cartesian
// component of the product of two primitives with exponents a, b at the
// same center (used for contracted normalization).
func refSelfOverlap(a, b float64, l int) float64 {
	p := a + b
	var k float64
	switch l {
	case 0, 1:
		k = doubleFactorial(2*l - 1)
	case 2:
		k = 1
	default:
		i := (l + 1) / 2
		j := l - i
		k = doubleFactorial(2*i-1) * doubleFactorial(2*j-1)
	}
	return math.Pow(math.Pi/p, 1.5) * k / math.Pow(2*p, float64(l))
}

// normalizeContraction folds primitive normalization into the contraction
// coefficients and scales the result to a unit-normalized contracted
// function.
func normalizeContraction(l int, exps, coefs []float64) []float64 {
	if len(exps) != len(coefs) {
		panic("basis: exps/coefs length mismatch")
	}
	out := make([]float64, len(coefs))
	for i := range coefs {
		out[i] = coefs[i] * primNorm(exps[i], l)
	}
	var s float64
	for i := range out {
		for j := range out {
			s += out[i] * out[j] * refSelfOverlap(exps[i], exps[j], l)
		}
	}
	inv := 1 / math.Sqrt(s)
	for i := range out {
		out[i] *= inv
	}
	return out
}

// CountFuncs returns (shells, functions) the named basis would produce on
// the molecule without instantiating it.
func CountFuncs(mol *chem.Molecule, name string) (int, int, error) {
	table, ok := tables[name]
	if !ok {
		return 0, 0, fmt.Errorf("basis: unknown basis set %q", name)
	}
	shells, funcs := 0, 0
	for _, atom := range mol.Atoms {
		es, ok := table[atom.Z]
		if !ok {
			return 0, 0, fmt.Errorf("basis: %s has no data for element %s",
				name, chem.Symbol(atom.Z))
		}
		shells += len(es)
		for _, sh := range es {
			funcs += 2*sh.l + 1
		}
	}
	return shells, funcs, nil
}
