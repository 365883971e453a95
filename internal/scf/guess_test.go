package scf

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/integrals"
	"gtfock/internal/linalg"
)

// sqrtSym returns s^{1/2} of a symmetric positive definite matrix.
func sqrtSym(s *linalg.Matrix) *linalg.Matrix {
	eig := linalg.EigSym(s)
	n := s.Rows
	scaled := linalg.NewMatrix(n, n)
	for j := 0; j < n; j++ {
		f := math.Sqrt(eig.Values[j])
		for i := 0; i < n; i++ {
			scaled.Set(i, j, eig.Vectors.At(i, j)*f)
		}
	}
	return linalg.MatMul(scaled, eig.Vectors.T())
}

// Every atomic density is a physical, spherical density of the neutral
// atom: symmetric, Tr(D S) = Z, natural occupations in [0, 2], and every
// m component of a p or d shell equally occupied with nothing between
// components. STO-3G C has a closed form: 1s and 2s fill the whole s
// space (D_ss = 2 S_ss^{-1}), the two 2p electrons spread over the one p
// shell (D_pp = 2/3 I), and H's one 1s electron gives D = 1.
func TestAtomicDensity(t *testing.T) {
	for _, name := range basis.Names() {
		for _, z := range []int{chem.ZHydrogen, chem.ZCarbon} {
			mol := &chem.Molecule{Atoms: []chem.Atom{{Z: z, Pos: chem.Vec3{X: 0.3, Y: -1.2, Z: 2}}}}
			bs, err := basis.Build(mol, name)
			if err != nil {
				t.Fatal(err)
			}
			tag := name + "/" + chem.Symbol(z)
			d := GuessDensity(bs)
			s := integrals.Overlap(bs)
			if e := d.SymmetryError(); e > 1e-14 {
				t.Errorf("%s: D asymmetric by %g", tag, e)
			}
			if tr := linalg.TraceMul(d, s); math.Abs(tr-float64(z)) > 1e-10 {
				t.Errorf("%s: Tr(D S) = %.12f, want %d", tag, tr, z)
			}
			half := sqrtSym(s)
			occ := linalg.EigSym(linalg.MatMul(linalg.MatMul(half, d), half)).Values
			if lo, hi := occ[0], occ[len(occ)-1]; lo < -1e-10 || hi > 2+1e-10 {
				t.Errorf("%s: natural occupations span [%g, %g], want within [0, 2]", tag, lo, hi)
			}
			for _, i := range bs.ByAtom[0] {
				for _, j := range bs.ByAtom[0] {
					li, lj := bs.Shells[i].L, bs.Shells[j].L
					for r := 0; r < 2*li+1; r++ {
						for c := 0; c < 2*lj+1; c++ {
							v := d.At(bs.Offsets[i]+r, bs.Offsets[j]+c)
							if (li != lj || r != c) && v != 0 {
								t.Errorf("%s: D couples shells %d,%d components %d,%d: %g", tag, i, j, r, c, v)
							}
						}
					}
				}
			}
			// Population of each m component of each l.
			pop := map[int][]float64{}
			for _, i := range bs.ByAtom[0] {
				l := bs.Shells[i].L
				if pop[l] == nil {
					pop[l] = make([]float64, 2*l+1)
				}
				for _, j := range bs.ByAtom[0] {
					if bs.Shells[j].L != l {
						continue
					}
					for k := 0; k <= 2*l; k++ {
						pop[l][k] += d.At(bs.Offsets[i]+k, bs.Offsets[j]+k) * s.At(bs.Offsets[j]+k, bs.Offsets[i]+k)
					}
				}
			}
			for l, ps := range pop {
				for k, v := range ps {
					if math.Abs(v-ps[0]) > 1e-12 {
						t.Errorf("%s: l=%d component %d holds %.14f electrons, component 0 %.14f", tag, l, k, v, ps[0])
					}
				}
			}
		}
	}

	bs, err := basis.Build(&chem.Molecule{Atoms: []chem.Atom{{Z: chem.ZCarbon}}}, "sto-3g")
	if err != nil {
		t.Fatal(err)
	}
	s := integrals.Overlap(bs)
	s01, det := s.At(0, 1), s.At(0, 0)*s.At(1, 1)-s.At(0, 1)*s.At(0, 1)
	want := linalg.NewMatrix(5, 5)
	want.Set(0, 0, 2*s.At(1, 1)/det)
	want.Set(1, 1, 2*s.At(0, 0)/det)
	want.Set(0, 1, -2*s01/det)
	want.Set(1, 0, -2*s01/det)
	for k := 2; k < 5; k++ {
		want.Set(k, k, 2.0/3)
	}
	if diff := linalg.MaxAbsDiff(GuessDensity(bs), want); diff > 1e-12 {
		t.Errorf("STO-3G C: off its closed form by %g", diff)
	}
	hbs, err := basis.Build(chem.Hydrogen2(0.74), "sto-3g")
	if err != nil {
		t.Fatal(err)
	}
	if diff := linalg.MaxAbsDiff(GuessDensity(hbs), linalg.Identity(2)); diff > 1e-12 {
		t.Errorf("STO-3G H2: guess off diag(1, 1) by %g", diff)
	}
}

// tensorAtomicDensity is the oracle for atomicDensity: the same atomic SCF
// with G contracted by hand from every (ij|kl) of the atom, computed
// unscreened (no Schwarz test, no primitive prescreen) into a dense n^4
// tensor. It is the production path before the atom's G came from buildG.
func tensorAtomicDensity(basisName string, z int) *linalg.Matrix {
	bs, err := basis.Build(&chem.Molecule{Atoms: []chem.Atom{{Z: z}}}, basisName)
	if err != nil {
		panic(err)
	}
	occ := occupations(z)
	byL := make([][]int, len(occ))
	for i, sh := range bs.Shells {
		if sh.L < len(byL) {
			byL[sh.L] = append(byL[sh.L], i)
		}
	}
	s := integrals.Overlap(bs)
	h := integrals.CoreHamiltonian(bs)
	eri := denseERIs(bs)
	n := bs.NumFuncs
	f := h
	var p *linalg.Matrix
	for it := 0; it < atomMaxIter; it++ {
		pNew := linalg.NewMatrix(n, n)
		for l, o := range occ {
			sphericalBlock(bs, byL[l], l, o, f, s, pNew)
		}
		done := p != nil && linalg.MaxAbsDiff(p, pNew) < atomTol
		p = pNew
		if done {
			break
		}
		// F = H + G(p), G_ij = sum_kl p_kl (2 (ij|kl) - (ik|jl)).
		f = h.Clone()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var g float64
				for k := 0; k < n; k++ {
					for l := 0; l < n; l++ {
						g += p.At(k, l) * (2*eri[((i*n+j)*n+k)*n+l] - eri[((i*n+k)*n+j)*n+l])
					}
				}
				f.Add(i, j, g)
			}
		}
	}
	return p.Scale(2)
}

// denseERIs returns every (ij|kl) of bs, n^4 values row-major, computed
// once per unique shell quartet and copied to its eight permutations.
func denseERIs(bs *basis.Set) []float64 {
	n, ns := bs.NumFuncs, bs.NumShells()
	v := make([]float64, n*n*n*n)
	eng := integrals.NewEngine()
	pair := func(m, p int) *integrals.ShellPair {
		return integrals.NewShellPair(&bs.Shells[m], &bs.Shells[p], 0)
	}
	for m := 0; m < ns; m++ {
		for p := 0; p <= m; p++ {
			bra := pair(m, p)
			for r := 0; r <= m; r++ {
				top := r
				if r == m {
					top = p
				}
				for q := 0; q <= top; q++ {
					batch := eng.ERI(bra, pair(r, q))
					om, op, or, oq := bs.Offsets[m], bs.Offsets[p], bs.Offsets[r], bs.Offsets[q]
					nm, np, nr, nq := bs.ShellFuncs(m), bs.ShellFuncs(p), bs.ShellFuncs(r), bs.ShellFuncs(q)
					idx := 0
					for a := om; a < om+nm; a++ {
						for b := op; b < op+np; b++ {
							for c := or; c < or+nr; c++ {
								for d := oq; d < oq+nq; d++ {
									x := batch[idx]
									idx++
									for _, o := range [8][4]int{
										{a, b, c, d}, {b, a, c, d}, {a, b, d, c}, {b, a, d, c},
										{c, d, a, b}, {d, c, a, b}, {c, d, b, a}, {d, c, b, a},
									} {
										v[((o[0]*n+o[1])*n+o[2])*n+o[3]] = x
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return v
}

// The atom's G from buildG (screened, prescreened, recorded once and then
// replayed) gives the density the unscreened dense-tensor contraction
// does, for every basis and both elements, to 1e-12 relative.
func TestAtomicDensityMatchesTensorOracle(t *testing.T) {
	for _, name := range basis.Names() {
		for _, z := range []int{chem.ZHydrogen, chem.ZCarbon} {
			got, want := atomicDensity(name, z).d, tensorAtomicDensity(name, z)
			var worst float64
			for k, ref := range want.Data {
				if e := math.Abs(got.Data[k]-ref) / math.Max(1, math.Abs(ref)); e > worst {
					worst = e
				}
			}
			if worst > 1e-12 {
				t.Errorf("%s/%s: density off the tensor oracle by %g (relative)", name, chem.Symbol(z), worst)
			}
		}
	}
}

// The guess over a permuted basis is the atom-order guess permuted the
// way bs.Permute permutes shells, for any shell order — including ones
// that reorder the shells of one atom, which no reordering in
// internal/reorder does.
func TestGuessFollowsPermute(t *testing.T) {
	bs, err := basis.Build(chem.Alkane(2), "cc-pvdz")
	if err != nil {
		t.Fatal(err)
	}
	order := rand.New(rand.NewSource(7)).Perm(bs.NumShells())
	d, pd := GuessDensity(bs), GuessDensity(bs.Permute(order))
	fmap := bs.FunctionPermutation(order)
	for i := 0; i < bs.NumFuncs; i++ {
		for j := 0; j < bs.NumFuncs; j++ {
			if got, want := pd.At(fmap[i], fmap[j]), d.At(i, j); got != want {
				t.Fatalf("D[%d][%d] = %g in atom order, %g at its permuted place", i, j, want, got)
			}
		}
	}
}

// The atomic start converges the declared workloads' molecules in no more
// builds than the core-Hamiltonian start did (the counts it took are
// pinned here), in fewer on the alkanes, to the pinned energies. A
// cell-ordered run places the same atomic blocks in its permuted order,
// so it takes the same path to the same energy.
func TestGuessCutsBuilds(t *testing.T) {
	for _, tc := range []struct {
		mol, basis string
		cache      bool // alkane:6 replays its integrals, as on scf_replay
		energy     float64
		coreIters  int // iterations from the core-Hamiltonian start
		fewer      bool
	}{
		{"alkane:3", "sto-3g", false, -116.878829676865, 10, true},
		{"alkane:6", "sto-3g", true, -232.623507363494, 12, true},
		{"CH4", "sto-3g", false, -39.726700055707, 7, false},
		{"alkane:2", "sto-3g", false, -78.305262873674, 8, false},
		{"CH4", "cc-pvdz", false, -40.198710292482, 9, false},
	} {
		mol, err := chem.ParseSpec(tc.mol)
		if err != nil {
			t.Fatal(err)
		}
		tag := tc.mol + "/" + tc.basis
		var atomIters int
		for _, order := range []string{"", "cell"} {
			res, err := RunHF(mol, Options{BasisName: tc.basis, ERICache: tc.cache, Reorder: order})
			if err != nil {
				t.Fatalf("%s %q: %v", tag, order, err)
			}
			n := len(res.Iterations)
			if !res.Converged || n > tc.coreIters || (tc.fewer && n >= tc.coreIters) {
				t.Errorf("%s %q: converged=%v in %d iterations, core-Hamiltonian start took %d",
					tag, order, res.Converged, n, tc.coreIters)
			}
			if diff := math.Abs(res.Energy - tc.energy); diff > 1e-9 {
				t.Errorf("%s %q: E = %.12f, off the reference by %g", tag, order, res.Energy, diff)
			}
			if order == "" {
				atomIters = n
			} else if n != atomIters {
				t.Errorf("%s: cell order took %d iterations, atom order %d", tag, n, atomIters)
			}
		}
	}
}

// Concurrent first users of a cold memo share one atomic solve: eight
// solves started together take the same number of iterations to the same
// energy, to the 1e-11 that repeats of one input reach when lanes sum G
// in a different order (TestEnergyReproducibleUnderLanes).
func TestGuessFirstUseConcurrent(t *testing.T) {
	atoms.Lock()
	atoms.m = nil
	atoms.Unlock()
	mol := chem.Methane()
	res := make([]*Result, 8)
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for i := range res {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], errs[i] = RunHF(mol, Options{BasisName: "cc-pvdz"})
		}()
	}
	wg.Wait()
	for i, r := range res {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if math.Abs(r.Energy-res[0].Energy) > 1e-11 || len(r.Iterations) != len(res[0].Iterations) {
			t.Errorf("solve %d: E = %.13f in %d iterations, solve 0: %.13f in %d",
				i, r.Energy, len(r.Iterations), res[0].Energy, len(res[0].Iterations))
		}
	}
}

// atomSink keeps the benchmarked calls from being optimized away.
var atomSink atom

// What the guess costs: one atomic SCF per (basis, element) on first use,
// a memo lookup after it (EXPERIMENTS.md "SCF starting density"):
//
//	go test -run NONE -bench AtomicDensity ./internal/scf/
func BenchmarkAtomicDensity(b *testing.B) {
	for _, name := range basis.Names() {
		for _, z := range []int{chem.ZHydrogen, chem.ZCarbon} {
			b.Run(name+"/"+chem.Symbol(z), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					atomSink = atomicDensity(name, z)
				}
			})
		}
	}
	b.Run("memo-hit", func(b *testing.B) {
		atomFor("cc-pvdz", chem.ZCarbon)
		for i := 0; i < b.N; i++ {
			atomSink = atomFor("cc-pvdz", chem.ZCarbon)
		}
	})
}
