package scf

import (
	"fmt"
	"sync"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/integrals"
	"gtfock/internal/linalg"
	"gtfock/internal/screen"
)

// GuessDensity returns the superposition of atomic densities (SAD) over
// bs: the density of every neutral atom, from a spherically averaged,
// spin-restricted, fractional-occupation SCF of that atom alone in the
// same basis, placed block-diagonally in bs's working function order. It
// is the physical density (Tr(D S) = number of electrons); the builders
// take half of it. Each (basis, element) atom is solved once per process.
func GuessDensity(bs *basis.Set) *linalg.Matrix {
	d := linalg.NewMatrix(bs.NumFuncs, bs.NumFuncs)
	for a, shells := range bs.ByAtom {
		at := atomFor(bs.Name, bs.Mol.Atoms[a].Z)
		for _, i := range shells {
			si, oi := bs.Shells[i], at.bs.Offsets[bs.Shells[i].Pos]
			for _, j := range shells {
				sj, oj := bs.Shells[j], at.bs.Offsets[bs.Shells[j].Pos]
				for r := 0; r < si.NumFuncs(); r++ {
					for c := 0; c < sj.NumFuncs(); c++ {
						d.Set(bs.Offsets[i]+r, bs.Offsets[j]+c, at.d.At(oi+r, oj+c))
					}
				}
			}
		}
	}
	return d
}

// atom is one element's solved density in its own basis (table order).
type atom struct {
	bs *basis.Set
	d  *linalg.Matrix
}

type atomKey struct {
	basis string
	z     int
}

// atoms memoizes atomicDensity per (basis, element). The lock is held
// across a first solve (milliseconds), so concurrent first users of one
// key wait for the same result instead of racing to compute it.
var atoms struct {
	sync.Mutex
	m map[atomKey]atom
}

func atomFor(basisName string, z int) atom {
	atoms.Lock()
	defer atoms.Unlock()
	k := atomKey{basisName, z}
	at, ok := atoms.m[k]
	if !ok {
		if atoms.m == nil {
			atoms.m = map[atomKey]atom{}
		}
		at = atomicDensity(basisName, z)
		atoms.m[k] = at
	}
	return at
}

// aufbau is the Madelung filling order of subshells through 4p, by l:
// 1s 2s 2p 3s 3p 4s 3d 4p.
var aufbau = []int{0, 0, 1, 0, 1, 0, 2, 1}

// occupations returns, per l, the electrons of the neutral atom's
// successive radial orbitals of that l (C: s [2 2], p [2]).
func occupations(z int) [][]float64 {
	var occ [][]float64
	left := z
	for _, l := range aufbau {
		if left == 0 {
			break
		}
		e := min(left, 2*(2*l+1))
		for len(occ) <= l {
			occ = append(occ, nil)
		}
		occ[l] = append(occ[l], float64(e))
		left -= e
	}
	if left > 0 {
		panic(fmt.Sprintf("scf: no aufbau occupation for Z = %d", z))
	}
	return occ
}

// Convergence of the atomic SCF: max |Δp| between successive densities.
const (
	atomTol     = 1e-10
	atomMaxIter = 100
)

// atomicDensity runs the SCF of the neutral atom z alone in the named
// basis. The density is spherically averaged: within each l the radial
// orbitals come from the m-averaged Fock and overlap blocks, and an open
// subshell's electrons are spread evenly over its 2l+1 components, so
// every m of a shell carries the same block. When every l block is fully
// occupied or holds one radial function (STO-3G) the second density
// equals the first and the loop stops after one Fock build. G comes from
// buildG, as in RunHF, over the atom's own screening, pair table and an
// unbudgeted ERI store: the first build records the atom's integrals and
// every later one replays them.
func atomicDensity(basisName string, z int) atom {
	bs, err := basis.Build(&chem.Molecule{Atoms: []chem.Atom{{Z: z}}}, basisName)
	if err != nil {
		panic(fmt.Sprintf("scf: atomic guess: %v", err))
	}
	occ := occupations(z)
	byL := make([][]int, len(occ))
	for i, sh := range bs.Shells {
		if sh.L < len(byL) {
			byL[sh.L] = append(byL[sh.L], i)
		}
	}
	for l, o := range occ {
		if len(o) > len(byL[l]) {
			panic(fmt.Sprintf("scf: %s has %d radial l=%d functions for %s, need %d",
				basisName, len(byL[l]), l, chem.Symbol(z), len(o)))
		}
	}

	s := integrals.Overlap(bs)
	h := integrals.CoreHamiltonian(bs)
	scr := screen.Compute(bs, screen.DefaultTau)
	pt := scr.PairTable(integrals.PrimTol)
	store := integrals.NewERIStore(bs.NumShells(), 0, nil, 0, nil)
	f := h
	var p *linalg.Matrix
	for it := 0; it < atomMaxIter; it++ {
		pNew := linalg.NewMatrix(bs.NumFuncs, bs.NumFuncs)
		for l, o := range occ {
			sphericalBlock(bs, byL[l], l, o, f, s, pNew)
		}
		done := p != nil && linalg.MaxAbsDiff(p, pNew) < atomTol
		p = pNew
		if done {
			break
		}
		// With no context, backend or fault injector, the build fails only
		// if one of the atom's tasks outlasts the 1 s lease on every retry.
		g, _, err := buildG(bs, scr, p, pt, store, Options{})
		if err != nil {
			panic(fmt.Sprintf("scf: atomic guess: %v", err))
		}
		f = h.Clone()
		f.AXPY(1, g)
	}
	return atom{bs: bs, d: p.Scale(2)}
}

// sphericalBlock adds to p the spinless density of the l block: the radial
// orbitals of the m-averaged f over the m-averaged s, filled with occ
// electrons each, spread evenly over the 2l+1 components.
func sphericalBlock(bs *basis.Set, shells []int, l int, occ []float64, f, s, p *linalg.Matrix) {
	nr, nm := len(shells), 2*l+1
	avg := func(m *linalg.Matrix) *linalg.Matrix {
		b := linalg.NewMatrix(nr, nr)
		for u, i := range shells {
			for v, j := range shells {
				var sum float64
				for k := 0; k < nm; k++ {
					sum += m.At(bs.Offsets[i]+k, bs.Offsets[j]+k)
				}
				b.Set(u, v, sum/float64(nm))
			}
		}
		return b
	}
	x := linalg.InvSqrtSym(avg(s), 0)
	eig := linalg.EigSym(linalg.MatMul(linalg.MatMul(x.T(), avg(f)), x))
	c := linalg.MatMul(x, eig.Vectors)
	for u, i := range shells {
		for v, j := range shells {
			var sum float64
			for r, e := range occ {
				sum += e / float64(2*nm) * c.At(u, r) * c.At(v, r)
			}
			for k := 0; k < nm; k++ {
				p.Set(bs.Offsets[i]+k, bs.Offsets[j]+k, sum)
			}
		}
	}
}
