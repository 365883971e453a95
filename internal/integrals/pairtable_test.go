package integrals

import (
	"math"
	"math/rand"
	"testing"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
)

// testPairTable builds a PairTable over a small random shell set with a
// synthetic Schwarz bound (the real one comes from screen.Screening,
// which this package cannot import).
func testPairTable(t *testing.T, ns int, seed int64, primTol float64) (*basis.Set, *PairTable, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	bs := &basis.Set{}
	for i := 0; i < ns; i++ {
		s := randShell(rng, rng.Intn(2))
		bs.Shells = append(bs.Shells, *s)
	}
	bs.Offsets = make([]int, ns+1)
	for i := range bs.Shells {
		bs.Offsets[i+1] = bs.Offsets[i] + bs.Shells[i].NumFuncs()
	}
	bs.NumFuncs = bs.Offsets[ns]
	q := make([]float64, ns*ns)
	eng := NewEngine()
	for m := 0; m < ns; m++ {
		for p := 0; p < ns; p++ {
			pair := eng.Pair(&bs.Shells[m], &bs.Shells[p])
			batch := eng.ERI(pair, pair)
			var mx float64
			for _, v := range batch {
				if a := math.Abs(v); a > mx {
					mx = a
				}
			}
			q[m*ns+p] = math.Sqrt(mx)
		}
	}
	cut := q[0] * 1e-3 // drop some pairs so NoPair paths are exercised
	pt := NewPairTable(bs,
		func(m, p int) float64 { return q[m*ns+p] },
		func(m, p int) bool { return q[m*ns+p] >= cut },
		primTol)
	return bs, pt, q
}

func TestPairTableIndexAndOrder(t *testing.T) {
	_, pt, q := testPairTable(t, 8, 1234, 0)
	ns := 8
	stored := 0
	for m := 0; m < ns; m++ {
		for p := 0; p < ns; p++ {
			id := pt.ID(m, p)
			if id == NoPair {
				if pt.Lookup(m, p) != nil {
					t.Fatalf("Lookup(%d,%d) non-nil for NoPair", m, p)
				}
				continue
			}
			stored++
			if got := pt.Q(id); got != q[m*ns+p] {
				t.Fatalf("Q(%d,%d) = %g, want %g", m, p, got, q[m*ns+p])
			}
			gm, gp := pt.Shells(id)
			if gm != m || gp != p {
				t.Fatalf("Shells(%v) = (%d,%d), want (%d,%d)", id, gm, gp, m, p)
			}
			sp := pt.Lookup(m, p)
			if sp != pt.At(id) || sp.A != &pt.Basis.Shells[m] || sp.B != &pt.Basis.Shells[p] {
				t.Fatalf("pair (%d,%d) wired to wrong shells", m, p)
			}
		}
	}
	if stored != pt.NumPairs() || stored == 0 || stored == ns*ns {
		t.Fatalf("stored %d of %d pairs (table %d): cut not exercised",
			stored, ns*ns, pt.NumPairs())
	}
	for id := 1; id < pt.NumPairs(); id++ {
		if pt.Q(PairID(id)) > pt.Q(PairID(id-1)) {
			t.Fatalf("pair table not Schwarz-sorted at %d", id)
		}
	}
	if !pt.KeepQuartet(0, 0, pt.Q(0)*pt.Q(0)) ||
		pt.KeepQuartet(PairID(pt.NumPairs()-1), PairID(pt.NumPairs()-1), math.Inf(1)) {
		t.Fatal("KeepQuartet threshold broken")
	}
}

// Table-built pairs must produce bit-identical batches to pairs built by
// NewShellPair: same primitive survivors, same E tables, just arena
// storage.
func TestPairTableERIEquivalence(t *testing.T) {
	for _, primTol := range []float64{0, 1e-12} {
		bs, pt, _ := testPairTable(t, 6, 99, primTol)
		eng := NewEngine()
		ref := NewEngine()
		ref.PrimTol = primTol
		ns := bs.NumShells()
		for m := 0; m < ns; m++ {
			for p := 0; p < ns; p++ {
				if pt.ID(m, p) == NoPair {
					continue
				}
				bra := pt.Lookup(m, p)
				ket := pt.Lookup(p, m)
				if ket == nil {
					continue
				}
				got := append([]float64(nil), eng.ERI(bra, ket)...)
				want := ref.ERI(ref.Pair(&bs.Shells[m], &bs.Shells[p]),
					ref.Pair(&bs.Shells[p], &bs.Shells[m]))
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("primTol=%g pair (%d,%d) elem %d: %g != %g",
							primTol, m, p, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestERIBatchMatchesERI(t *testing.T) {
	_, pt, _ := testPairTable(t, 6, 31, 0)
	eng := NewEngine()
	ref := NewEngine()
	var qs []Quartet
	for b := 0; b < pt.NumPairs(); b += 3 {
		for k := 0; k < pt.NumPairs(); k += 5 {
			qs = append(qs, Quartet{Bra: PairID(b), Ket: PairID(k)})
		}
	}
	var visited int
	eng.ERIBatch(pt, qs, func(k int, batch []float64) {
		visited++
		want := ref.ERI(pt.At(qs[k].Bra), pt.At(qs[k].Ket))
		if len(batch) != len(want) {
			t.Fatalf("quartet %d: batch length %d vs %d", k, len(batch), len(want))
		}
		for i := range batch {
			if batch[i] != want[i] {
				t.Fatalf("quartet %d elem %d: %g != %g", k, i, batch[i], want[i])
			}
		}
	})
	if visited != len(qs) {
		t.Fatalf("visited %d of %d quartets", visited, len(qs))
	}
	if eng.Stats.Quartets != int64(len(qs)) {
		t.Fatalf("batch stats: %+v", eng.Stats)
	}
}

// The steady-state batched ERI path must not allocate: scratch is warmed
// by the first pass and reused thereafter. This is the allocation
// regression test the kernel layer is built around.
func TestERIBatchZeroAlloc(t *testing.T) {
	_, pt, _ := testPairTable(t, 8, 5, 0)
	eng := NewEngine()
	var qs []Quartet
	for b := 0; b < pt.NumPairs(); b += 2 {
		for k := 0; k < pt.NumPairs(); k += 7 {
			qs = append(qs, Quartet{Bra: PairID(b), Ket: PairID(k)})
		}
	}
	sink := 0.0
	visit := func(k int, batch []float64) { sink += batch[0] }
	eng.ERIBatch(pt, qs, visit) // warm scratch
	allocs := testing.AllocsPerRun(10, func() {
		eng.ERIBatch(pt, qs, visit)
	})
	if allocs != 0 {
		t.Fatalf("steady-state ERIBatch allocates %.1f allocs/run", allocs)
	}
	_ = sink
}

// A pair filled into engine scratch gives the same batch, bit for bit, as
// one built on its own, and a warmed engine fills and uses it without
// allocating (screen.Compute's Schwarz pass).
func TestPairScratchMatchesPairZeroAlloc(t *testing.T) {
	bs, err := basis.Build(chem.Methane(), "cc-pvtz")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	eng.PrimTol = PrimTol
	sweep := func(check bool) {
		for m := range bs.Shells {
			for p := m; p < len(bs.Shells); p++ {
				sp := eng.PairScratch(&bs.Shells[m], &bs.Shells[p])
				got := eng.ERI(sp, sp)
				if !check {
					continue
				}
				got = append([]float64(nil), got...)
				solo := eng.Pair(&bs.Shells[m], &bs.Shells[p])
				want := eng.ERI(solo, solo)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("pair (%d,%d) elem %d: %.17g vs %.17g", m, p, i, got[i], want[i])
					}
				}
			}
		}
	}
	sweep(true)
	if n := testing.AllocsPerRun(3, func() { sweep(false) }); n != 0 {
		t.Fatalf("steady-state PairScratch + ERI allocates %v times per sweep", n)
	}
}

// The pair-resident folded terms: genTermSlots per surviving primitive
// pair, reported by TermBytes, and identical whether a pair is carved
// from the table's arena or built on its own by NewShellPair (the path
// Engine.Pair, the micro benchmarks and BuildSerial take).
func TestPairTableTermsMatchStandalonePairs(t *testing.T) {
	bs, err := basis.Build(chem.Methane(), "cc-pvdz")
	if err != nil {
		t.Fatal(err)
	}
	const primTol = 1e-8
	pt := NewPairTable(bs,
		func(m, p int) float64 { return 1 },
		func(m, p int) bool { return true }, primTol)
	want := 0
	for id := PairID(0); id < PairID(pt.NumPairs()); id++ {
		sp := pt.At(id)
		slots := genTermSlots[pairClassOf(sp.LA, sp.LB)]
		if len(sp.terms) != len(sp.prims)*slots {
			t.Fatalf("pair %d (L=%d%d): %d terms for %d primitive pairs of %d slots",
				id, sp.LA, sp.LB, len(sp.terms), len(sp.prims), slots)
		}
		want += len(sp.terms) * 8
		m, p := pt.Shells(id)
		solo := NewShellPair(&bs.Shells[m], &bs.Shells[p], primTol)
		if len(solo.terms) != len(sp.terms) {
			t.Fatalf("pair %d: standalone pair has %d terms, table %d", id, len(solo.terms), len(sp.terms))
		}
		for i, v := range sp.terms {
			if solo.terms[i] != v {
				t.Fatalf("pair %d term %d: standalone %g vs table %g", id, i, solo.terms[i], v)
			}
		}
	}
	if got := pt.TermBytes(); got != want || got == 0 {
		t.Fatalf("TermBytes = %d, want %d", got, want)
	}
}

// The folded primitive-quartet prologue over the 40-byte hot records,
// s = 1/(p+q), alpha = p q s, pref = c c' sqrt(s), must reproduce the
// two-division form it replaced, alpha = pq/(p+q), pref = 2 pi^{5/2} /
// (p q sqrt(p+q)) cc cc' k3 k3', over the whole exponent range of real
// basis sets: alpha to 1 ulp; pref to 10, because either form rounds about
// ten times on the way (against the exactly rounded value the old form is
// up to 5 ulp off and the folded one up to 6).
func TestFoldedPrologueMatchesUnfolded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ulps := func(got, want float64) float64 {
		return math.Abs(got-want) / (math.Nextafter(math.Abs(want), math.Inf(1)) - math.Abs(want))
	}
	type prim struct {
		sh  *basis.Shell
		exp float64
	}
	mk := func() prim {
		e := math.Pow(10, -2+7*rng.Float64()) // 1e-2 .. 1e5
		c := chem.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Scale(0.2)
		coef := (0.3 + rng.Float64()) * float64(1-2*rng.Intn(2))
		return prim{rawShell(rng.Intn(3), c, []float64{e}, []float64{coef}), e}
	}
	var worstA, worstP float64
	for trial := 0; trial < 20000; trial++ {
		a, b, c, d := mk(), mk(), mk(), mk()
		bra := NewShellPair(a.sh, b.sh, 0).prims[0]
		ket := NewShellPair(c.sh, d.sh, 0).prims[0]
		s := 1 / (bra.p + ket.p)
		alpha, pref := bra.p*ket.p*s, bra.c*ket.c*math.Sqrt(s)

		p, q := a.exp+b.exp, c.exp+d.exp
		k3 := func(x, y prim) float64 {
			return math.Exp(-x.exp * y.exp / (x.exp + y.exp) * x.sh.Center.Sub(y.sh.Center).Norm2())
		}
		wantAlpha := p * q / (p + q)
		wantPref := twoPiPow52 / (p * q * math.Sqrt(p+q)) *
			a.sh.Coefs[0] * b.sh.Coefs[0] * c.sh.Coefs[0] * d.sh.Coefs[0] * k3(a, b) * k3(c, d)
		if math.Abs(wantPref) < 1e-280 {
			continue // Gaussian products this far apart underflow either way
		}
		worstA = math.Max(worstA, ulps(alpha, wantAlpha))
		worstP = math.Max(worstP, ulps(pref, wantPref))
	}
	t.Logf("worst: alpha %.1f ulp, pref %.1f ulp", worstA, worstP)
	if worstA > 1 || worstP > 10 {
		t.Fatalf("folded prologue off by %.1f ulp (alpha), %.1f ulp (pref); want <= 1, <= 10", worstA, worstP)
	}
}

func TestTrimScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	e := NewEngine()
	d1, d2 := randShell(rng, 2), randShell(rng, 2)
	bra, ket := e.Pair(d1, d2), e.Pair(d2, d1)
	e.ERI(bra, ket)
	grown := e.ScratchBytes()
	if grown == 0 {
		t.Fatal("no scratch after a (dd|dd) quartet")
	}
	e.TrimScratch(grown + 1) // under budget: keep
	if e.ScratchBytes() != grown {
		t.Fatal("TrimScratch shrank under-budget scratch")
	}
	e.TrimScratch(1) // over budget: release
	if e.ScratchBytes() != 0 {
		t.Fatalf("TrimScratch left %d bytes", e.ScratchBytes())
	}
	// The engine must keep working (and regrow) after a trim.
	e.ERI(bra, ket)
	if e.ScratchBytes() == 0 {
		t.Fatal("scratch did not regrow")
	}
	// The default budget comfortably holds a d-quartet working set.
	e.TrimScratch(0)
	if e.ScratchBytes() == 0 {
		t.Fatal("default budget trimmed an ordinary working set")
	}
}
