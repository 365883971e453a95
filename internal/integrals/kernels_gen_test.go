package integrals

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
)

// checkKernel compares the dispatched kernel on (bra|ket) with the
// general MD path on the same pairs and, when oracle is non-nil, with
// that independent reference, element by element to 1e-10 of the
// batch's scale.
func checkKernel(t *testing.T, label string, fast, slow *Engine, bra, ket *ShellPair, oracle []float64) {
	t.Helper()
	got := append([]float64(nil), fast.eriCartAuto(bra, ket)...)
	ref := slow.eriCart(bra, ket)
	var scale float64
	for _, v := range ref {
		if m := math.Abs(v); m > scale {
			scale = m
		}
	}
	tol := 1e-10 * (1 + scale)
	for i := range got {
		if math.Abs(got[i]-ref[i]) > tol {
			t.Fatalf("%s elem %d: kernel %.14g vs MD %.14g", label, i, got[i], ref[i])
		}
		if oracle != nil && math.Abs(got[i]-oracle[i]) > tol {
			t.Fatalf("%s elem %d: kernel %.14g vs OS %.14g", label, i, got[i], oracle[i])
		}
	}
}

// Property sweep over every class key up to d — all 81 of them, so each
// canonical kernel, each mirrored (transposed) orientation and the sp/sd
// aliases of ps/ds are hit: the dispatched kernel must match both the
// general MD path and the independent Obara-Saika oracle to 1e-10 over
// random exponents, contractions and geometries.
func TestGenKernelsAgainstGeneralMDAndOS(t *testing.T) {
	rng := rand.New(rand.NewSource(271828))
	fast := NewEngine()
	slow := NewEngine()
	slow.DisableFastKernels = true
	var wantSP, wantD int64
	for la := 0; la <= 2; la++ {
		for lb := 0; lb <= 2; lb++ {
			for lc := 0; lc <= 2; lc++ {
				for ld := 0; ld <= 2; ld++ {
					trials := 4
					if la < 2 && lb < 2 && lc < 2 && ld < 2 {
						trials = 8
						wantSP += 8
					} else {
						wantD += 4
					}
					for trial := 0; trial < trials; trial++ {
						a := randShellWide(rng, la)
						b := randShellWide(rng, lb)
						c := randShellWide(rng, lc)
						d := randShellWide(rng, ld)
						checkKernel(t, fmt.Sprintf("L=%d%d%d%d trial %d", la, lb, lc, ld, trial),
							fast, slow, fast.Pair(a, b), fast.Pair(c, d), ERICartOS(a, b, c, d))
					}
				}
			}
		}
	}
	st := &fast.Stats
	if st.FastSP != wantSP || st.FastGen != wantD || st.FastQuartets != wantSP+wantD {
		t.Fatalf("kernels served sp=%d gen=%d fast=%d, want %d/%d/%d",
			st.FastSP, st.FastGen, st.FastQuartets, wantSP, wantD, wantSP+wantD)
	}
	if st.GeneralQuartets != 0 {
		t.Fatalf("%d quartets leaked to the general path", st.GeneralQuartets)
	}
	if slow.Stats.FastQuartets != 0 {
		t.Fatalf("DisableFastKernels still counted %d fast quartets", slow.Stats.FastQuartets)
	}

	// Member sets: every two-member side of the library's family shapes
	// (s+p, s+s) on a first shell up to d, against every one- and
	// two-member side up to d, in both orientations; each member must
	// match its own generated kernel, the general path and the OS oracle.
	shapes := [][]int{{0, 1}, {0, 0}}
	type sideSpec struct {
		lm int   // first shell's L
		lf []int // its partners' Ls, one family
	}
	var sides []sideSpec
	for lm := 0; lm <= 2; lm++ {
		for lb := 0; lb <= 2; lb++ {
			sides = append(sides, sideSpec{lm, []int{lb}})
		}
		for _, sh := range shapes {
			sides = append(sides, sideSpec{lm, sh})
		}
	}
	var groups, setCalls, mirrored int64
	for _, bs := range sides {
		for _, ks := range sides {
			if len(bs.lf) == 1 && len(ks.lf) == 1 {
				continue // the one-member sweep above
			}
			for trial := 0; trial < 2; trial++ {
				g := newFamilyGroup(randShellWide(rng, bs.lm), familyOf(rng, bs.lf, 3),
					randShellWide(rng, ks.lm), familyOf(rng, ks.lf, 3), 0)
				st, oneCall := checkFamilyGroup(t, fmt.Sprintf("sides %v|%v trial %d", bs, ks, trial), g, true)
				groups++
				if oneCall {
					setCalls++
					mirrored += st.MirrorGen
				}
			}
		}
	}
	if setCalls == 0 || mirrored == 0 || setCalls == groups {
		t.Fatalf("%d groups: %d served by one kernel call, %d mirrored members", groups, setCalls, mirrored)
	}
}

// familyOf returns shells of the given Ls that form one family: one
// random centre and exponent set (nprim primitives, wide range), each
// shell its own signed coefficients.
func familyOf(rng *rand.Rand, ls []int, nprim int) []*basis.Shell {
	proto := deepShell(rng, 0, nprim, chem.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}, 0.1, 300)
	var out []*basis.Shell
	for _, l := range ls {
		coefs := make([]float64, nprim)
		for i := range coefs {
			coefs[i] = (0.3 + rng.Float64()) * float64(1-2*rng.Intn(2))
		}
		out = append(out, rawShell(l, proto.Center, proto.Exps, coefs))
	}
	return out
}

// familyGroup is a sibling group built as a pair table builds one:
// first shells m and n on atoms of their own, each paired with a family
// (shells of one atom with identical exponents), the pairs taken from a
// PairTable over all the shells at primTol, so the siblings of a side
// share one primitive-pair list.
type familyGroup struct {
	pt       *PairTable
	bra, ket []PairID
	shells   map[PairID][2]*basis.Shell
	primTol  float64
}

func newFamilyGroup(m *basis.Shell, bfam []*basis.Shell, n *basis.Shell, kfam []*basis.Shell, primTol float64) *familyGroup {
	bs := &basis.Set{}
	add := func(s *basis.Shell, atom int) int {
		c := *s
		c.Atom = atom
		bs.Shells = append(bs.Shells, c)
		return len(bs.Shells) - 1
	}
	im := add(m, 0)
	var ib, ik []int
	for _, s := range bfam {
		ib = append(ib, add(s, 1))
	}
	in := add(n, 2)
	for _, s := range kfam {
		ik = append(ik, add(s, 3))
	}
	bs.Offsets = make([]int, len(bs.Shells))
	for i := 1; i < len(bs.Shells); i++ {
		bs.Offsets[i] = bs.Offsets[i-1] + bs.Shells[i-1].NumFuncs()
	}
	bs.NumFuncs = bs.Offsets[len(bs.Shells)-1] + bs.Shells[len(bs.Shells)-1].NumFuncs()
	g := &familyGroup{
		pt: NewPairTable(bs,
			func(m, p int) float64 { return 1 },
			func(m, p int) bool { return true }, primTol),
		shells:  map[PairID][2]*basis.Shell{},
		primTol: primTol,
	}
	for _, p := range ib {
		id := g.pt.ID(im, p)
		g.bra = append(g.bra, id)
		g.shells[id] = [2]*basis.Shell{&bs.Shells[im], &bs.Shells[p]}
	}
	for _, q := range ik {
		id := g.pt.ID(in, q)
		g.ket = append(g.ket, id)
		g.shells[id] = [2]*basis.Shell{&bs.Shells[in], &bs.Shells[q]}
	}
	return g
}

// checkFamilyGroup computes g's members with one group dispatch and
// checks each against its own generated kernel on the same pairs, the
// general MD path on them, and — what the member's integrals were before
// families — the general path on the member's standalone pair at the
// same primTol, plus, when oracle is set, the Obara-Saika oracle. Flat
// side pairs of the library's shapes must take one kernel call that
// counts its primitive quartets once.
func checkFamilyGroup(t *testing.T, label string, g *familyGroup, oracle bool) (st Stats, oneCall bool) {
	t.Helper()
	e, own, slow := NewEngine(), NewEngine(), NewEngine()
	slow.DisableFastKernels = true
	nb, nk := len(g.bra), len(g.ket)
	maxOrd := func(ids []PairID) (o int) {
		for _, id := range ids {
			o = max(o, g.pt.At(id).LA+g.pt.At(id).LB)
		}
		return o
	}
	for i, id := range g.bra {
		e.set[0][i] = g.pt.At(id)
	}
	for j, id := range g.ket {
		e.set[1][j] = g.pt.At(id)
	}
	flat := sideOf(&e.set[0], nb) >= 0 && sideOf(&e.set[1], nk) >= 0 && maxOrd(g.bra)+maxOrd(g.ket) <= 4
	cart, mirror := e.groupCart(nb, nk)
	if flat != (cart != nil) {
		t.Fatalf("%s: flat side pair %v, group kernel %v", label, flat, cart != nil)
	}
	if want := int64(len(e.set[0][0].prims) * len(e.set[1][0].prims)); cart != nil && e.Stats.PrimQuartets != want {
		t.Fatalf("%s: group counted %d primitive quartets, want %d once", label, e.Stats.PrimQuartets, want)
	}
	for i, bid := range g.bra {
		for j, kid := range g.ket {
			bra, ket := g.pt.At(bid), g.pt.At(kid)
			got := append([]float64(nil), e.memberCart(cart, mirror, i, j)...)
			sa, sc := g.shells[bid], g.shells[kid]
			refs := [][]float64{
				append([]float64(nil), own.eriCartAuto(bra, ket)...),
				append([]float64(nil), slow.eriCart(bra, ket)...),
				append([]float64(nil), slow.eriCart(NewShellPair(sa[0], sa[1], g.primTol), NewShellPair(sc[0], sc[1], g.primTol))...),
			}
			if oracle {
				refs = append(refs, ERICartOS(sa[0], sa[1], sc[0], sc[1]))
			}
			var scale float64
			for _, v := range refs[1] {
				scale = max(scale, math.Abs(v))
			}
			for r, ref := range refs {
				if len(ref) != len(got) {
					t.Fatalf("%s member (%d,%d): %d values, reference %d has %d", label, i, j, len(got), r, len(ref))
				}
				for k := range got {
					if math.Abs(got[k]-ref[k]) > 1e-10*(1+scale) {
						t.Fatalf("%s member (%d,%d) elem %d: group %.14g vs reference %d %.14g",
							label, i, j, k, got[k], r, ref[k])
					}
				}
			}
		}
	}
	if flat && e.Stats.FastQuartets != int64(nb*nk) {
		t.Fatalf("%s: %d fast quartets for %d members", label, e.Stats.FastQuartets, nb*nk)
	}
	return e.Stats, cart != nil
}

// Member sets at contraction depths 1, 3 and 8 per shell, in three
// geometries — generic, all centres coincident (the Boys x = 0 corner)
// and the two sides far apart (every Boys argument >= 36) — and with
// siblings whose own primitive screens keep different primitive pairs
// at PrimTol: the table gives them the union, with c = 0 where a
// member's own screen drops one, and each member still equals what its
// own pruned pair gives.
func TestGenKernelSetsDepthGeometryAndPruning(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	fam := func(ls []int, depth int, c chem.Vec3, lo, hi float64) []*basis.Shell {
		proto := deepShell(rng, 0, depth, c, lo, hi)
		var out []*basis.Shell
		for _, l := range ls {
			out = append(out, deepShell(rng, l, depth, c, 1, 2))
			out[len(out)-1].Exps = proto.Exps
		}
		return out
	}
	sides := []struct {
		lm int   // first shell's L
		lf []int // its partners' Ls, one family
	}{
		{0, []int{0, 1}}, {1, []int{0, 1}}, {1, []int{0, 0}}, {0, []int{0, 0}}, {2, []int{0, 0}}, {0, []int{1}},
	}
	for bi, bs := range sides {
		for ki, ks := range sides {
			if len(bs.lf) == 1 && len(ks.lf) == 1 {
				continue
			}
			for _, depth := range []int{1, 3, 8} {
				if bs.lm == 2 || ks.lm == 2 {
					depth = min(depth, 3)
				}
				for _, geom := range []string{"generic", "coincident", "far"} {
					// First shells at mb, mk; the families at cb, ck.
					var mb, mk, cb, ck chem.Vec3
					lo, hi := 0.1, 300.0
					switch geom {
					case "generic":
						rnd := func() chem.Vec3 { return chem.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()} }
						mb, mk, cb, ck = rnd(), rnd(), rnd(), rnd()
					case "coincident":
						cb = chem.Vec3{X: 0.3, Y: -0.1, Z: 0.9}
						mb, mk, ck = cb, cb, cb
					default:
						mb, mk, cb, ck = chem.Vec3{Y: 0.3}, chem.Vec3{X: 12}, chem.Vec3{}, chem.Vec3{X: 12, Z: 0.3}
						lo, hi = 0.5, 5
					}
					g := newFamilyGroup(deepShell(rng, bs.lm, depth, mb, lo, hi), fam(bs.lf, depth, cb, lo, hi),
						deepShell(rng, ks.lm, depth, mk, lo, hi), fam(ks.lf, depth, ck, lo, hi), 0)
					bra, ket := g.pt.At(g.bra[0]), g.pt.At(g.ket[0])
					blo, bhi := boysArgRange(bra, ket)
					if geom == "coincident" && bhi > 1e-25 {
						t.Fatalf("coincident centres but Boys argument up to %g", bhi)
					}
					if geom == "far" && blo < boysXMax {
						t.Fatalf("far geometry but Boys argument down to %g", blo)
					}
					checkFamilyGroup(t, fmt.Sprintf("sides %d|%d depth %d %s", bi, ki, depth, geom), g, depth <= 3)
				}
			}
		}
	}

	// Misaligned siblings: at primTol = 1e-6 the s member keeps the
	// tight primitive (coefficient 1) against every partner, the p member
	// (coefficient 1e-9 there) drops it.
	c := chem.Vec3{X: 0.4}
	sib := []*basis.Shell{
		rawShell(0, c, []float64{40, 0.4}, []float64{1, 0.8}),
		rawShell(1, c, []float64{40, 0.4}, []float64{1e-9, 1.1}),
	}
	m := rawShell(0, chem.Vec3{X: -2}, []float64{35, 0.5}, []float64{0.6, 0.9})
	n := rawShell(1, chem.Vec3{Y: 1.5}, []float64{0.7}, []float64{1})
	const primTol = 1e-6
	g := newFamilyGroup(m, sib, n, sib, primTol)
	for _, side := range [][]PairID{g.bra, g.ket} {
		table := len(g.pt.At(side[0]).prims)
		if len(g.pt.At(side[1]).prims) != table {
			t.Fatalf("siblings not aligned: %d and %d primitive pairs", table, len(g.pt.At(side[1]).prims))
		}
		sh := g.shells[side[1]]
		if own := len(NewShellPair(sh[0], sh[1], primTol).prims); own >= table {
			t.Fatalf("p member's own screen keeps %d of the family's %d primitive pairs: not misaligned", own, table)
		}
	}
	checkFamilyGroup(t, "misaligned siblings", g, false)
}

// deepShell returns a shell of nprim primitives with exponents log-spread
// over [lo, hi] and signed contraction coefficients.
func deepShell(rng *rand.Rand, l, nprim int, c chem.Vec3, lo, hi float64) *basis.Shell {
	exps := make([]float64, nprim)
	coefs := make([]float64, nprim)
	for i := range exps {
		exps[i] = lo * math.Pow(hi/lo, rng.Float64())
		coefs[i] = (0.3 + rng.Float64()) * float64(1-2*rng.Intn(2))
	}
	return rawShell(l, c, exps, coefs)
}

// boysArgRange returns the smallest and largest Boys argument
// alpha*|PQ|^2 over the primitive quartets of (bra|ket).
func boysArgRange(bra, ket *ShellPair) (lo, hi float64) {
	lo = math.Inf(1)
	for bi := range bra.prims {
		for ki := range ket.prims {
			p, q := bra.prims[bi].p, ket.prims[ki].p
			x := p * q / (p + q) * bra.prims[bi].P.Sub(ket.prims[ki].P).Norm2()
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
	}
	return lo, hi
}

// The straight-line s/p kernels over every s/p class key (canonical,
// mirrored, sp aliasing ps) at contraction depths 1, 3 and 8 per shell —
// the contract-ket-first loop structure sees 1 to 64 primitives a side —
// in three geometries: generic, all four centres coincident (PQ = 0, the
// Boys x = 0 corner) and bra and ket far apart (every Boys argument
// beyond the tabulated range, x >= 36).
func TestSPKernelsDepthAndGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(1618))
	fast := NewEngine()
	slow := NewEngine()
	slow.DisableFastKernels = true
	jitter := func(o chem.Vec3, s float64) chem.Vec3 {
		return chem.Vec3{X: o.X + s*rng.NormFloat64(), Y: o.Y + s*rng.NormFloat64(), Z: o.Z + s*rng.NormFloat64()}
	}
	for key := 0; key < 16; key++ {
		l := [4]int{key >> 3 & 1, key >> 2 & 1, key >> 1 & 1, key & 1}
		for _, depth := range []int{1, 3, 8} {
			for _, geom := range []string{"generic", "coincident", "far"} {
				var sh [4]*basis.Shell
				for i := range sh {
					switch geom {
					case "generic":
						sh[i] = deepShell(rng, l[i], depth, jitter(chem.Vec3{}, 1), 0.1, 300)
					case "coincident":
						sh[i] = deepShell(rng, l[i], depth, chem.Vec3{X: 0.3, Y: -0.1, Z: 0.9}, 0.1, 300)
					default:
						sh[i] = deepShell(rng, l[i], depth, jitter(chem.Vec3{X: 12 * float64(i/2)}, 0.3), 0.5, 5)
					}
				}
				bra, ket := fast.Pair(sh[0], sh[1]), fast.Pair(sh[2], sh[3])
				if len(bra.prims) != depth*depth || len(ket.prims) != depth*depth {
					t.Fatalf("depth %d: %d x %d primitive pairs", depth, len(bra.prims), len(ket.prims))
				}
				lo, hi := boysArgRange(bra, ket)
				if geom == "coincident" && hi > 1e-25 { // P = Q up to rounding
					t.Fatalf("coincident centres but Boys argument up to %g", hi)
				}
				if geom == "far" && lo < boysXMax {
					t.Fatalf("far geometry but Boys argument down to %g", lo)
				}
				checkKernel(t, fmt.Sprintf("L=%v depth %d %s", l, depth, geom),
					fast, slow, bra, ket, ERICartOS(sh[0], sh[1], sh[2], sh[3]))
			}
		}
	}
	if fast.Stats.FastSP != 16*9 || fast.Stats.MirrorGen == 0 {
		t.Fatalf("s/p kernels served %d of %d quartets (%d mirrored)",
			fast.Stats.FastSP, 16*9, fast.Stats.MirrorGen)
	}
}

// PrimTol-pruned pairs: the pair-resident terms are laid out over the
// surviving primitive pairs only, so a pair that lost primitives — down
// to a single survivor — must still line its terms up with its prims.
// The dropped products are ~1e-70, so the unpruned oracle still applies.
func TestSPKernelsPrunedPairs(t *testing.T) {
	fast := NewEngine()
	fast.PrimTol = 1e-13
	slow := NewEngine()
	slow.DisableFastKernels = true
	for key := 0; key < 16; key++ {
		l := [4]int{key >> 3 & 1, key >> 2 & 1, key >> 1 & 1, key & 1}
		a := rawShell(l[0], chem.Vec3{}, []float64{40, 0.4}, []float64{0.7, -1.1})
		b := rawShell(l[1], chem.Vec3{X: 3}, []float64{35, 0.35}, []float64{1.2, 0.5})
		c := rawShell(l[2], chem.Vec3{Y: 1}, []float64{40}, []float64{0.9})
		d := rawShell(l[3], chem.Vec3{Y: 1, Z: 3}, []float64{35, 0.35}, []float64{-0.6, 1})
		bra, ket := fast.Pair(a, b), fast.Pair(c, d)
		if len(bra.prims) != 3 || len(ket.prims) != 1 {
			t.Fatalf("pruning left %d and %d primitive pairs, want 3 and 1", len(bra.prims), len(ket.prims))
		}
		os := ERICartOS(a, b, c, d)
		checkKernel(t, fmt.Sprintf("pruned L=%v", l), fast, slow, bra, ket, os)
		checkKernel(t, fmt.Sprintf("pruned mirror L=%v", l), fast, slow, ket, bra, ERICartOS(c, d, a, b))
	}
}

// Mirror routing: non-canonical class keys (bra class < ket class) must
// go through the swap-and-transpose wrapper, counted in MirrorGen, and
// still match the general path. One spot per mirrored key family.
func TestGenKernelMirrorRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(99173))
	fast := NewEngine()
	slow := NewEngine()
	slow.DisableFastKernels = true
	cases := []struct {
		la, lb, lc, ld int
		bc, kc         int
	}{
		{0, 0, 2, 0, ClassSS, ClassDS}, // (ss|ds)
		{1, 0, 0, 2, ClassPS, ClassDS}, // (ps|sd) — sd aliases ds
		{1, 1, 2, 2, ClassPP, ClassDD}, // (pp|dd)
		{2, 0, 1, 2, ClassDS, ClassPD}, // (ds|pd)
		{1, 2, 2, 1, ClassPD, ClassDP}, // (pd|dp)
		{2, 1, 2, 2, ClassDP, ClassDD}, // (dp|dd)
	}
	for n, tc := range cases {
		bra := fast.Pair(randShellWide(rng, tc.la), randShellWide(rng, tc.lb))
		ket := fast.Pair(randShellWide(rng, tc.lc), randShellWide(rng, tc.ld))
		before := fast.Stats.MirrorGen
		got := append([]float64(nil), fast.eriCartAuto(bra, ket)...)
		if fast.Stats.MirrorGen != before+1 {
			t.Fatalf("case %d (%d%d|%d%d): not mirror-routed: %+v", n, tc.la, tc.lb, tc.lc, tc.ld, fast.Stats)
		}
		if fast.Stats.ByClass[tc.bc][tc.kc] == 0 {
			t.Fatalf("case %d: ByClass[%s][%s] not counted",
				n, PairClassName(tc.bc), PairClassName(tc.kc))
		}
		ref := slow.eriCart(bra, ket)
		for i := range got {
			if math.Abs(got[i]-ref[i]) > 1e-10*(1+math.Abs(ref[i])) {
				t.Fatalf("case %d elem %d: mirror %.14g vs MD %.14g", n, i, got[i], ref[i])
			}
		}
	}
}

// Coincident centers zero PA/PB/PQ and expose the structural-zero E
// entries the generator does not fold away.
func TestGenKernelsCoincidentCenters(t *testing.T) {
	fast := NewEngine()
	slow := NewEngine()
	slow.DisableFastKernels = true
	c := chem.Vec3{X: -0.2, Y: 0.4, Z: 1.1}
	mk := func(l int, e float64) *basis.Shell {
		return rawShell(l, c, []float64{e}, []float64{1})
	}
	for _, l := range [][4]int{{2, 2, 2, 2}, {2, 0, 1, 2}, {0, 2, 2, 1}} {
		bra := fast.Pair(mk(l[0], 1.3), mk(l[1], 0.7))
		ket := fast.Pair(mk(l[2], 2.1), mk(l[3], 0.5))
		got := append([]float64(nil), fast.eriCartAuto(bra, ket)...)
		ref := slow.eriCart(bra, ket)
		for i := range got {
			if math.Abs(got[i]-ref[i]) > 1e-12*(1+math.Abs(ref[i])) {
				t.Fatalf("coincident L=%v elem %d: %.14g vs %.14g", l, i, got[i], ref[i])
			}
		}
	}
}

// Generated kernels must be allocation-free at steady state, including
// the mirror-transpose wrapper (mirroring TestERIBatchZeroAlloc).
func TestGenKernelsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := NewEngine()
	mkPair := func(la, lb int) *ShellPair {
		return e.Pair(randShellWide(rng, la), randShellWide(rng, lb))
	}
	cases := []struct {
		name     string
		bra, ket *ShellPair
	}{
		{"dd_dd", mkPair(2, 2), mkPair(2, 2)},
		{"dd_ss", mkPair(2, 2), mkPair(0, 0)},
		{"pd_ps", mkPair(1, 2), mkPair(1, 0)},
		{"mirror_pp_dd", mkPair(1, 1), mkPair(2, 2)},
	}
	for _, tc := range cases {
		e.eriCartAuto(tc.bra, tc.ket) // warm scratch
		if n := testing.AllocsPerRun(50, func() {
			e.eriCartAuto(tc.bra, tc.ket)
		}); n != 0 {
			t.Errorf("%s: %v allocs/op at steady state", tc.name, n)
		}
	}
	// A 2 x 2 sibling group through ERIBatch, direct and mirrored.
	g := newFamilyGroup(randShellWide(rng, 1), familyOf(rng, []int{0, 1}, 3),
		randShellWide(rng, 0), familyOf(rng, []int{0, 0}, 3), 0)
	var direct, mirror []Quartet
	for _, b := range g.bra {
		for _, k := range g.ket {
			direct = append(direct, Quartet{Bra: b, Ket: k})
		}
	}
	for _, k := range g.ket {
		for _, b := range g.bra {
			mirror = append(mirror, Quartet{Bra: k, Ket: b})
		}
	}
	visit := func(int, []float64) {}
	for _, qs := range [][]Quartet{direct, mirror} {
		e.ERIBatch(g.pt, qs, visit) // warm scratch
		before := e.Stats.PrimQuartets
		if n := testing.AllocsPerRun(50, func() { e.ERIBatch(g.pt, qs, visit) }); n != 0 {
			t.Errorf("sibling group: %v allocs/op at steady state", n)
		}
		one := int64(len(g.pt.At(qs[0].Bra).prims) * len(g.pt.At(qs[0].Ket).prims))
		if got := e.Stats.PrimQuartets - before; got != 51*one {
			t.Errorf("sibling group: %d primitive quartets over 51 calls, want %d (one kernel call each)", got, 51*one)
		}
	}
}

// stridedBatchStats runs every (bra, ket) pair of mol's full pair table
// in the named basis, kets strided by 7 to keep it quick, through
// ERIBatch and returns the engine's counters.
func stridedBatchStats(t *testing.T, mol *chem.Molecule, bname string) Stats {
	t.Helper()
	bs, err := basis.Build(mol, bname)
	if err != nil {
		t.Fatal(err)
	}
	pt := NewPairTable(bs,
		func(m, p int) float64 { return 1 },
		func(m, p int) bool { return true }, 0)
	e := NewEngine()
	var qs []Quartet
	np := pt.NumPairs()
	for b := PairID(0); b < PairID(np); b++ {
		for k := PairID(0); k < PairID(np); k += 7 {
			qs = append(qs, Quartet{Bra: b, Ket: k})
		}
	}
	e.ERIBatch(pt, qs, func(int, []float64) {})
	return e.Stats
}

// On a real d-bearing basis (methane, cc-pVDZ) the dispatcher must
// route 100% of quartets to specialized kernels: every pair class is
// L<=2 per side, so the general path must never fire.
func TestCCPVDZDispatchCoverage(t *testing.T) {
	st := stridedBatchStats(t, chem.Methane(), "cc-pvdz")
	if st.Quartets == 0 || st.GeneralQuartets != 0 {
		t.Fatalf("general path fired on cc-pVDZ: %d of %d quartets general",
			st.GeneralQuartets, st.Quartets)
	}
	if st.FastSP+st.FastGen != st.Quartets || st.FastQuartets != st.Quartets {
		t.Fatalf("fast counts inconsistent: sp=%d gen=%d fast=%d total=%d",
			st.FastSP, st.FastGen, st.FastQuartets, st.Quartets)
	}
	if st.FastGen == 0 || st.ByClass[ClassDS][ClassDS] == 0 {
		t.Fatalf("cc-pVDZ exercised no d-class kernels: %+v", st)
	}
	if st.GeneralFraction() != 0 {
		t.Fatalf("GeneralFraction = %v, want 0", st.GeneralFraction())
	}
}

// The same on the s/p-only workhorse (propane, sto-3g): every quartet is
// an all-s/p class, none general, and the non-canonical orientations
// ((ss|ps), (ps|pp), ...) go through the mirror wrapper.
func TestSTO3GDispatchCoverage(t *testing.T) {
	st := stridedBatchStats(t, chem.Alkane(3), "sto-3g")
	if st.Quartets == 0 || st.GeneralQuartets != 0 || st.GeneralFraction() != 0 {
		t.Fatalf("general path fired on sto-3g: %d of %d quartets general",
			st.GeneralQuartets, st.Quartets)
	}
	if st.FastSP != st.Quartets || st.FastGen != 0 || st.FastQuartets != st.Quartets {
		t.Fatalf("fast counts inconsistent: sp=%d gen=%d fast=%d total=%d",
			st.FastSP, st.FastGen, st.FastQuartets, st.Quartets)
	}
	var mirrored int64
	for bc := ClassSS; bc <= ClassPP; bc++ {
		for kc := bc + 1; kc <= ClassPP; kc++ {
			mirrored += st.ByClass[bc][kc]
		}
	}
	if mirrored == 0 || st.MirrorGen != mirrored {
		t.Fatalf("MirrorGen = %d, want the %d non-canonical quartets", st.MirrorGen, mirrored)
	}
}

// PrimQuartets is added once per quartet (len(bra.prims)*len(ket.prims))
// instead of once per primitive quartet inside the kernels; the totals
// and the class split are pinned to what the per-primitive counters of
// the hand-written kernels reported on the same quartet lists.
func TestPrimQuartetTotalsPinned(t *testing.T) {
	for _, tc := range []struct {
		mol             *chem.Molecule
		bname           string
		quartets, prims int64
		fastSP, fastGen int64
	}{
		{mol: chem.Alkane(3), bname: "sto-3g", quartets: 12138, prims: 983178, fastSP: 12138},
		{mol: chem.Methane(), bname: "cc-pvdz", quartets: 15228, prims: 474516, fastSP: 12138, fastGen: 3090},
	} {
		st := stridedBatchStats(t, tc.mol, tc.bname)
		if st.Quartets != tc.quartets || st.PrimQuartets != tc.prims ||
			st.FastSP != tc.fastSP || st.FastGen != tc.fastGen {
			t.Errorf("%s: quartets %d prims %d sp %d gen %d, want %d %d %d %d", tc.bname,
				st.Quartets, st.PrimQuartets, st.FastSP, st.FastGen,
				tc.quartets, tc.prims, tc.fastSP, tc.fastGen)
		}
	}
}

func BenchmarkERIKernelDSSS(b *testing.B)  { benchKernelPair(b, 2, 0, 0, 0, false) }
func BenchmarkERIKernelPDPS(b *testing.B)  { benchKernelPair(b, 1, 2, 1, 0, false) }
func BenchmarkERIKernelDDDD(b *testing.B)  { benchKernelPair(b, 2, 2, 2, 2, false) }
func BenchmarkERIGeneralDSSS(b *testing.B) { benchKernelPair(b, 2, 0, 0, 0, true) }
func BenchmarkERIGeneralPDPS(b *testing.B) { benchKernelPair(b, 1, 2, 1, 0, true) }
func BenchmarkERIGeneralDDDD(b *testing.B) { benchKernelPair(b, 2, 2, 2, 2, true) }
