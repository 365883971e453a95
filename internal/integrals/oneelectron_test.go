package integrals

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/linalg"
)

// The one-electron oracle: the straightforward path the production code
// replaced, kept as the reference TestOneElectronMatchesOracle compares
// against. Per shell pair and per matrix it builds fresh primitive-pair
// data with its own E tables, and V runs the full t, u, v loop for every
// nucleus.

// overlapOracle returns the overlap matrix S.
func overlapOracle(bs *basis.Set) *linalg.Matrix {
	return oneElectronOracle(bs, func(ctx *oe1Ctx, cart []float64) {
		ctx.overlapKinetic(cart, nil)
	})
}

// Kinetic returns the kinetic energy matrix T = <i| -1/2 nabla^2 |j>.
func Kinetic(bs *basis.Set) *linalg.Matrix {
	return oneElectronOracle(bs, func(ctx *oe1Ctx, cart []float64) {
		tmp := make([]float64, len(cart))
		ctx.overlapKinetic(tmp, cart)
	})
}

// NuclearAttraction returns V = <i| sum_C -Z_C/|r-R_C| |j> for the
// molecule the basis was built on.
func NuclearAttraction(bs *basis.Set) *linalg.Matrix {
	return oneElectronOracle(bs, func(ctx *oe1Ctx, cart []float64) {
		ctx.nuclear(cart, bs.Mol)
	})
}

// coreOracle returns H_core = T + V.
func coreOracle(bs *basis.Set) *linalg.Matrix {
	h := Kinetic(bs)
	h.AXPY(1, NuclearAttraction(bs))
	return h
}

// oe1Ctx carries the per-shell-pair state for one-electron integrals.
type oe1Ctx struct {
	a, b   *basis.Shell
	la, lb int
	// Per primitive pair: exponent data and extended E tables.
	prims []oe1CtxPrim
}

type oe1CtxPrim struct {
	p, bexp float64
	P       chem.Vec3
	cck     float64 // cc * exp(-mu |AB|^2)
	e       [3][]float64
}

const oe1JExtra = 2 // kinetic needs j+2

func newOE1Ctx(a, b *basis.Shell) *oe1Ctx {
	ctx := &oe1Ctx{a: a, b: b, la: a.L, lb: b.L}
	ab2 := a.Center.Sub(b.Center).Norm2()
	la, lb := a.L, b.L
	jdim := lb + 1 + oe1JExtra
	tdim := la + lb + oe1JExtra + 1
	for i, ea := range a.Exps {
		for j, eb := range b.Exps {
			p := ea + eb
			mu := ea * eb / p
			P := a.Center.Scale(ea / p).Add(b.Center.Scale(eb / p))
			pr := oe1CtxPrim{
				p:    p,
				bexp: eb,
				P:    P,
				cck:  a.Coefs[i] * b.Coefs[j] * math.Exp(-mu*ab2),
			}
			pa := P.Sub(a.Center)
			pb := P.Sub(b.Center)
			paD := [3]float64{pa.X, pa.Y, pa.Z}
			pbD := [3]float64{pb.X, pb.Y, pb.Z}
			for d := 0; d < 3; d++ {
				pr.e[d] = make([]float64, (la+1)*jdim*tdim)
				eTable(la, lb+oe1JExtra, 1/(2*p), paD[d], pbD[d], pr.e[d], jdim, tdim)
			}
			ctx.prims = append(ctx.prims, pr)
		}
	}
	return ctx
}

// e0 returns the t=0 MD coefficient E_0^{ij} for dimension d of primitive
// pair pr; with the sqrt(pi/p) factor this is the 1D overlap.
func (ctx *oe1Ctx) e0(pr *oe1CtxPrim, d, i, j int) float64 {
	jdim := ctx.lb + 1 + oe1JExtra
	tdim := ctx.la + ctx.lb + oe1JExtra + 1
	return pr.e[d][(i*jdim+j)*tdim]
}

// overlapKinetic fills the Cartesian overlap block (sOut, if non-nil) and
// kinetic block (tOut, if non-nil) for the shell pair.
func (ctx *oe1Ctx) overlapKinetic(sOut, tOut []float64) {
	ca, cb := CartComponents(ctx.la), CartComponents(ctx.lb)
	nb := len(cb)
	for i := range sOut {
		sOut[i] = 0
	}
	for i := range tOut {
		tOut[i] = 0
	}
	for pi := range ctx.prims {
		pr := &ctx.prims[pi]
		sqp := math.Sqrt(math.Pi / pr.p)
		for ia, A := range ca {
			for ib, B := range cb {
				idx := ia*nb + ib
				sx := ctx.e0(pr, 0, A.X, B.X) * sqp
				sy := ctx.e0(pr, 1, A.Y, B.Y) * sqp
				sz := ctx.e0(pr, 2, A.Z, B.Z) * sqp
				if sOut != nil {
					sOut[idx] += pr.cck * sx * sy * sz
				}
				if tOut != nil {
					kx := ctx.kin1D(pr, 0, A.X, B.X) * sqp
					ky := ctx.kin1D(pr, 1, A.Y, B.Y) * sqp
					kz := ctx.kin1D(pr, 2, A.Z, B.Z) * sqp
					tOut[idx] += pr.cck * (kx*sy*sz + sx*ky*sz + sx*sy*kz)
				}
			}
		}
	}
}

// kin1D returns the 1D kinetic integral (without the sqrt(pi/p) factor):
// -1/2 <i| d^2/dx^2 |j> = -1/2 j(j-1) S(i,j-2) + b(2j+1) S(i,j) - 2b^2 S(i,j+2).
func (ctx *oe1Ctx) kin1D(pr *oe1CtxPrim, d, i, j int) float64 {
	b := pr.bexp
	v := b * float64(2*j+1) * ctx.e0(pr, d, i, j)
	v -= 2 * b * b * ctx.e0(pr, d, i, j+2)
	if j >= 2 {
		v -= 0.5 * float64(j) * float64(j-1) * ctx.e0(pr, d, i, j-2)
	}
	return v
}

// nuclear fills the Cartesian nuclear-attraction block for the shell pair.
func (ctx *oe1Ctx) nuclear(out []float64, mol *chem.Molecule) {
	la, lb := ctx.la, ctx.lb
	ca, cb := CartComponents(la), CartComponents(lb)
	nb := len(cb)
	ltot := la + lb
	td := ltot + 1
	td3 := td * td * td
	raux := make([]float64, (ltot+1)*td3)
	var boys [maxBoysM + 1]float64
	jdim := lb + 1 + oe1JExtra
	tdim := la + lb + oe1JExtra + 1
	for i := range out {
		out[i] = 0
	}
	for pi := range ctx.prims {
		pr := &ctx.prims[pi]
		for _, atom := range mol.Atoms {
			pc := pr.P.Sub(atom.Pos)
			x := pr.p * pc.Norm2()
			Boys(ltot, x, boys[:])
			rtab := hermiteRTable(ltot, pr.p, pc, boys[:], raux)
			pref := -float64(atom.Z) * 2 * math.Pi / pr.p * pr.cck
			for ia, A := range ca {
				for ib, B := range cb {
					exBase := (A.X*jdim + B.X) * tdim
					eyBase := (A.Y*jdim + B.Y) * tdim
					ezBase := (A.Z*jdim + B.Z) * tdim
					var s float64
					for t := 0; t <= A.X+B.X; t++ {
						ex := pr.e[0][exBase+t]
						if ex == 0 {
							continue
						}
						for u := 0; u <= A.Y+B.Y; u++ {
							ey := pr.e[1][eyBase+u]
							if ey == 0 {
								continue
							}
							for v := 0; v <= A.Z+B.Z; v++ {
								ez := pr.e[2][ezBase+v]
								if ez != 0 {
									s += ex * ey * ez * rtab[(t*td+u)*td+v]
								}
							}
						}
					}
					out[ia*nb+ib] += pref * s
				}
			}
		}
	}
}

// oneElectronOracle assembles a full matrix from per-shell-pair Cartesian
// blocks produced by fill, spherical-transforming each block.
func oneElectronOracle(bs *basis.Set, fill func(*oe1Ctx, []float64)) *linalg.Matrix {
	m := linalg.NewMatrix(bs.NumFuncs, bs.NumFuncs)
	ns := len(bs.Shells)
	nw := runtime.GOMAXPROCS(0)
	if nw > ns {
		nw = ns
	}
	rows := make(chan int, ns)
	for si := 0; si < ns; si++ {
		rows <- si
	}
	close(rows)
	var wg sync.WaitGroup
	for range nw {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch [2][]float64
			for si := range rows {
				for sj := si; sj < ns; sj++ {
					a, b := &bs.Shells[si], &bs.Shells[sj]
					ctx := newOE1Ctx(a, b)
					cart := make([]float64, a.NumCart()*b.NumCart())
					fill(ctx, cart)
					sph := sphTransform2(a.L, b.L, cart, &scratch)
					na, nb := a.NumFuncs(), b.NumFuncs()
					oi, oj := bs.Offsets[si], bs.Offsets[sj]
					for i := 0; i < na; i++ {
						for j := 0; j < nb; j++ {
							v := sph[i*nb+j]
							m.Set(oi+i, oj+j, v)
							m.Set(oj+j, oi+i, v)
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	return m
}

func hAtom(t *testing.T, name string) *basis.Set {
	t.Helper()
	mol := &chem.Molecule{Name: "H", Atoms: []chem.Atom{{Z: chem.ZHydrogen}}}
	bs, err := basis.Build(mol, name)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

// jittered displaces every coordinate of mol by at most 0.01 bohr.
func jittered(mol *chem.Molecule, seed int64) *chem.Molecule {
	rng := rand.New(rand.NewSource(seed))
	for i := range mol.Atoms {
		p := &mol.Atoms[i].Pos
		p.X += (2*rng.Float64() - 1) * 0.01
		p.Y += (2*rng.Float64() - 1) * 0.01
		p.Z += (2*rng.Float64() - 1) * 0.01
	}
	return mol
}

// S and H_core agree with the oracle elementwise to 1e-12 relative, on
// every basis set (cc-pVTZ brings f shells) and on a geometry with no
// symmetry.
func TestOneElectronMatchesOracle(t *testing.T) {
	mols := []struct {
		name string
		mol  func() *chem.Molecule
	}{
		{"H2", func() *chem.Molecule { return chem.Hydrogen2(0) }},
		{"CH4", chem.Methane},
		{"alkane:3", func() *chem.Molecule { return chem.Alkane(3) }},
		{"alkane:3 jittered", func() *chem.Molecule { return jittered(chem.Alkane(3), 7) }},
	}
	for _, m := range mols {
		for _, name := range basis.Names() {
			t.Run(fmt.Sprintf("%s/%s", m.name, name), func(t *testing.T) {
				bs, err := basis.Build(m.mol(), name)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range []struct {
					what     string
					got, ref *linalg.Matrix
				}{
					{"S", Overlap(bs), overlapOracle(bs)},
					{"H", CoreHamiltonian(bs), coreOracle(bs)},
				} {
					for i := 0; i < c.ref.Rows; i++ {
						for j := 0; j < c.ref.Cols; j++ {
							g, r := c.got.At(i, j), c.ref.At(i, j)
							if math.Abs(g-r) > 1e-12*math.Max(1, math.Abs(r)) {
								t.Fatalf("%s[%d][%d] = %.16g, oracle %.16g", c.what, i, j, g, r)
							}
						}
					}
				}
			})
		}
	}
}

// A warmed worker fills every shell pair's S and T+V block, f shells
// included, without allocating.
func TestOneElectronSteadyStateZeroAlloc(t *testing.T) {
	bs, err := basis.Build(chem.Methane(), "cc-pvtz")
	if err != nil {
		t.Fatal(err)
	}
	fam, members := shellFamilies(bs)
	w := newOE1Worker(bs, fam, members)
	fill := func() {
		for si := range bs.Shells {
			for sj := si; sj < len(bs.Shells); sj++ {
				w.block(si, sj, false)
				w.block(si, sj, true)
			}
		}
	}
	fill() // warm scratch
	if n := testing.AllocsPerRun(3, fill); n != 0 {
		t.Fatalf("steady-state one-electron fills allocate %v times per sweep", n)
	}
}

// A normalized basis must give unit diagonal overlap.
func TestOverlapDiagonalIsOne(t *testing.T) {
	for _, name := range basis.Names() {
		mol := chem.Methane()
		bs, err := basis.Build(mol, name)
		if err != nil {
			t.Fatal(err)
		}
		s := Overlap(bs)
		for i := 0; i < s.Rows; i++ {
			if math.Abs(s.At(i, i)-1) > 1e-10 {
				t.Fatalf("%s: S[%d][%d] = %.12f, want 1", name, i, i, s.At(i, i))
			}
		}
	}
}

func TestOverlapSymmetricPositiveDefinite(t *testing.T) {
	mol := chem.Hydrogen2(0)
	bs, _ := basis.Build(mol, "cc-pvdz")
	s := Overlap(bs)
	if s.SymmetryError() > 1e-12 {
		t.Fatalf("S asymmetric by %g", s.SymmetryError())
	}
	eig := linalg.EigSym(s)
	if eig.Values[0] <= 0 {
		t.Fatalf("S not positive definite: lambda_min = %g", eig.Values[0])
	}
}

// Known STO-3G hydrogen-atom values: <s|T|s> = 0.7600, <s|V|s> = -1.2266
// (standard textbook/reference values for the STO-3G 1s function).
func TestSTO3GHydrogenOneElectron(t *testing.T) {
	bs := hAtom(t, "sto-3g")
	tm := Kinetic(bs)
	vm := NuclearAttraction(bs)
	if math.Abs(tm.At(0, 0)-0.7600) > 2e-3 {
		t.Fatalf("<s|T|s> = %.6f, want ~0.7600", tm.At(0, 0))
	}
	if math.Abs(vm.At(0, 0)-(-1.2266)) > 2e-3 {
		t.Fatalf("<s|V|s> = %.6f, want ~-1.2266", vm.At(0, 0))
	}
	if h := CoreHamiltonian(bs).At(0, 0); math.Abs(h-(0.7600-1.2266)) > 4e-3 {
		t.Fatalf("<s|H|s> = %.6f, want ~-0.4666", h)
	}
}

// Known STO-3G hydrogen (ss|ss) = 0.7746 (the standard H2 minimal-basis
// two-electron integral at a single center).
func TestSTO3GHydrogenERI(t *testing.T) {
	bs := hAtom(t, "sto-3g")
	e := NewEngine()
	p := e.Pair(&bs.Shells[0], &bs.Shells[0])
	v := e.ERI(p, p)[0]
	if math.Abs(v-0.7746) > 2e-3 {
		t.Fatalf("(ss|ss) = %.6f, want ~0.7746", v)
	}
}

func TestKineticPositiveDiagonal(t *testing.T) {
	mol := chem.Methane()
	bs, _ := basis.Build(mol, "cc-pvdz")
	tm := Kinetic(bs)
	if tm.SymmetryError() > 1e-11 {
		t.Fatalf("T asymmetric by %g", tm.SymmetryError())
	}
	for i := 0; i < tm.Rows; i++ {
		if tm.At(i, i) <= 0 {
			t.Fatalf("T[%d][%d] = %g <= 0", i, i, tm.At(i, i))
		}
	}
}

func TestNuclearAttractionNegativeDiagonal(t *testing.T) {
	mol := chem.Methane()
	bs, _ := basis.Build(mol, "cc-pvdz")
	vm := NuclearAttraction(bs)
	if vm.SymmetryError() > 1e-11 {
		t.Fatalf("V asymmetric by %g", vm.SymmetryError())
	}
	for i := 0; i < vm.Rows; i++ {
		if vm.At(i, i) >= 0 {
			t.Fatalf("V[%d][%d] = %g >= 0", i, i, vm.At(i, i))
		}
	}
}

func TestCoreHamiltonianIsTPlusV(t *testing.T) {
	mol := chem.Hydrogen2(0)
	bs, _ := basis.Build(mol, "sto-3g")
	h := CoreHamiltonian(bs)
	want := Kinetic(bs)
	want.AXPY(1, NuclearAttraction(bs))
	if linalg.MaxAbsDiff(h, want) > 1e-14 {
		t.Fatal("H_core != T + V")
	}
}

// Overlap between two identical s shells decays as exp(-mu R^2): check the
// H2 off-diagonal falls monotonically with bond length.
func TestOverlapDecaysWithDistance(t *testing.T) {
	prev := math.Inf(1)
	for _, r := range []float64{0.5, 1.0, 2.0, 4.0} {
		mol := chem.Hydrogen2(r)
		bs, _ := basis.Build(mol, "sto-3g")
		s := Overlap(bs)
		off := s.At(0, 1)
		if off <= 0 || off >= prev {
			t.Fatalf("overlap at R=%g is %g, prev %g", r, off, prev)
		}
		prev = off
	}
}

// One-electron integrals are translation invariant.
func TestOneElectronTranslationInvariance(t *testing.T) {
	mol := chem.Methane()
	bs, _ := basis.Build(mol, "sto-3g")
	s1, h1 := Overlap(bs), CoreHamiltonian(bs)
	mol2 := chem.Methane()
	mol2.Translate(chem.Vec3{X: -4, Y: 2, Z: 9})
	bs2, _ := basis.Build(mol2, "sto-3g")
	s2, h2 := Overlap(bs2), CoreHamiltonian(bs2)
	if linalg.MaxAbsDiff(s1, s2) > 1e-11 || linalg.MaxAbsDiff(h1, h2) > 1e-10 {
		t.Fatal("one-electron integrals not translation invariant")
	}
}

// Spherical d functions on one center must be orthonormal among themselves.
func TestDShellOrthonormal(t *testing.T) {
	mol := &chem.Molecule{Atoms: []chem.Atom{{Z: chem.ZCarbon}}}
	bs, _ := basis.Build(mol, "cc-pvdz")
	s := Overlap(bs)
	// The d shell is the last 5 functions.
	n := bs.NumFuncs
	for i := n - 5; i < n; i++ {
		for j := n - 5; j < n; j++ {
			want := 0.0
			if i == j {
				want = 1.0
			}
			if math.Abs(s.At(i, j)-want) > 1e-10 {
				t.Fatalf("d-shell overlap [%d][%d] = %g, want %g", i, j, s.At(i, j), want)
			}
		}
	}
}

// Diagnosis only (make microbench); nothing gates on them.
func BenchmarkOverlap(b *testing.B)         { benchOneElectron(b, Overlap) }
func BenchmarkCoreHamiltonian(b *testing.B) { benchOneElectron(b, CoreHamiltonian) }

var oneElectronSink *linalg.Matrix

func benchOneElectron(b *testing.B, f func(*basis.Set) *linalg.Matrix) {
	for _, c := range []struct {
		name, basis string
		mol         *chem.Molecule
	}{
		{"alkane6_sto3g", "sto-3g", chem.Alkane(6)},
		{"CH4_ccpvdz", "cc-pvdz", chem.Methane()},
	} {
		bs, err := basis.Build(c.mol, c.basis)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				oneElectronSink = f(bs)
			}
		})
	}
}

// hermPos extends the generated R functions' order: its first 35
// positions are genHermOff9's, and it numbers every index of order <= 8
// once.
func TestHermPosExtendsGenHermOff9(t *testing.T) {
	for i, off := range genHermOff9 {
		if p := hermPos[off/81][off/9%9][off%9]; int(p) != i {
			t.Fatalf("genHermOff9[%d] = (%d,%d,%d) at hermPos %d", i, off/81, off/9%9, off%9, p)
		}
	}
	seen := make([]bool, hermCount(hermMaxL))
	for tt := 0; tt <= hermMaxL; tt++ {
		for u := 0; u <= hermMaxL-tt; u++ {
			for v := 0; v <= hermMaxL-tt-u; v++ {
				p := hermPos[tt][u][v]
				if n := tt + u + v; int(p) < hermCount(n-1) || int(p) >= hermCount(n) || seen[p] {
					t.Fatalf("(%d,%d,%d) at %d: outside order %d's range or taken", tt, u, v, p, n)
				}
				seen[p] = true
			}
		}
	}
}
