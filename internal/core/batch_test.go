package core

import (
	"sort"
	"testing"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/integrals"
	"gtfock/internal/linalg"
	"gtfock/internal/screen"
)

// A prebuilt pair table passed through Options must give the same G as
// letting Build construct its own, and must be reusable across builds
// (the SCF loop shares one table for the whole run).
func TestBuildWithSharedPairTable(t *testing.T) {
	bs, scr, d := buildSetup(t, chem.Alkane(2), "sto-3g")
	ref := BuildSerial(bs, scr, d)
	pt := scr.PairTable(0)
	for round := 0; round < 2; round++ {
		res := Build(bs, scr, d, Options{Prow: 2, Pcol: 2, PairTable: pt})
		if err := linalg.MaxAbsDiff(ref, res.G); err > 1e-9 {
			t.Fatalf("round %d: |G - serial| = %g", round, err)
		}
	}
}

// The production primitive prescreen keeps a build on the oracle: a table
// at integrals.PrimTol — what scf.RunHF and Build's own fallback
// construct — matches the serial build, which drops no primitive, to 1e-9
// with d shells in play.
func TestBuildAtProductionPrimTolMatchesSerial(t *testing.T) {
	bs, scr, d := buildSetup(t, chem.Methane(), "cc-pvdz")
	ref := BuildSerial(bs, scr, d)
	res := Build(bs, scr, d, Options{Prow: 2, Pcol: 2, PairTable: scr.PairTable(integrals.PrimTol)})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if err := linalg.MaxAbsDiff(ref, res.G); err > 1e-9 {
		t.Fatalf("|G(PrimTol) - serial| = %g", err)
	}
}

// testDoTaskLane builds the minimal lane doTask needs: shared pair table,
// engine, density image, private Fock accumulator. No distributed
// machinery.
func testDoTaskLane(bs *basis.Set, scr *screen.Screening, pt *integrals.PairTable, d *linalg.Matrix) *lane {
	return newLane(&worker{
		bs: bs, scr: scr, pt: pt,
		width: shellWidths(bs),
		dloc:  append([]float64(nil), d.Data...),
		nf:    bs.NumFuncs,
	}, 0)
}

// The batched doTask walks the partner families (Schwarz-descending) and
// breaks at the first failing family. That early exit must select
// EXACTLY the quartets the reference Phi scan with KeepQuartet and the
// same pair orientation (PairCheck) selects — same set, possibly
// different order.
func TestDoTaskSurvivorSetMatchesKeepQuartet(t *testing.T) {
	bs, scr, d := buildSetup(t, chem.Alkane(2), "sto-3g")
	pt := scr.PairTable(0)
	w := testDoTaskLane(bs, scr, pt, d)
	ns := bs.NumShells()
	total := 0
	for m := 0; m < ns; m++ {
		for n := 0; n < ns; n++ {
			if !SymmetryCheck(m, n) {
				continue
			}
			w.doTask(Task{M: m, N: n})
			got := make([][2]int32, len(w.labels))
			for k, lb := range w.labels {
				got[k] = [2]int32{int32(lb & 0xffff), int32(lb >> 16)}
			}
			var want [][2]int32
			for _, p := range scr.Phi[m] {
				if !PairCheck(pt, m, p) {
					continue
				}
				for _, q := range scr.Phi[n] {
					if !PairCheck(pt, n, q) || !scr.KeepQuartet(m, p, n, q) {
						continue
					}
					if m == n && !PairCheck(pt, p, q) {
						continue
					}
					want = append(want, [2]int32{int32(p), int32(q)})
				}
			}
			less := func(s [][2]int32) func(i, j int) bool {
				return func(i, j int) bool {
					if s[i][0] != s[j][0] {
						return s[i][0] < s[j][0]
					}
					return s[i][1] < s[j][1]
				}
			}
			sort.Slice(got, less(got))
			sort.Slice(want, less(want))
			if len(got) != len(want) {
				t.Fatalf("task (%d,%d): %d quartets, want %d", m, n, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("task (%d,%d): quartet %d is %v, want %v", m, n, i, got[i], want[i])
				}
			}
			total += len(want)
		}
	}
	if total == 0 {
		t.Fatal("no quartets survived anywhere")
	}
}

// generalSerial is the serial oracle with every quartet on the general MD
// recursion: the reference G of the kernel-equivalence tests.
func generalSerial(bs *basis.Set, scr *screen.Screening, d *linalg.Matrix) *linalg.Matrix {
	eng := integrals.NewEngine()
	eng.DisableFastKernels = true
	return buildSerialWith(eng, bs, scr, d)
}

// Two workers of one build read the same pair-resident folded terms
// (filled once by NewPairTable, read-only after): under the race
// detector the 1x2 build must be clean, and its G must equal the serial
// oracle that sends every quartet down the general MD path to 1e-10.
func TestTwoWorkersSharePairTermsMatchGeneralKernels(t *testing.T) {
	bs, scr, d := buildSetup(t, chem.Alkane(3), "sto-3g")
	pt := scr.PairTable(0)
	if pt.TermBytes() == 0 {
		t.Fatal("pair table carries no folded terms")
	}
	fast := Build(bs, scr, d, Options{Prow: 1, Pcol: 2, PairTable: pt})
	if fast.Err != nil {
		t.Fatal(fast.Err)
	}
	if err := linalg.MaxAbsDiff(generalSerial(bs, scr, d), fast.G); err > 1e-10 {
		t.Fatalf("|G_general - G_kernels| = %g", err)
	}
}

// After one warm pass, repeating a worker's entire task sweep must not
// allocate: batch and meta slices are reused, ERIBatch scratch is warm,
// and the stored visit closure digests in place.
func TestDoTaskSteadyStateZeroAlloc(t *testing.T) {
	bs, scr, d := buildSetup(t, chem.Alkane(2), "sto-3g")
	pt := scr.PairTable(0)
	w := testDoTaskLane(bs, scr, pt, d)
	ns := bs.NumShells()
	sweep := func() {
		for m := 0; m < ns; m++ {
			for n := 0; n < ns; n++ {
				if SymmetryCheck(m, n) {
					w.doTask(Task{M: m, N: n})
				}
			}
		}
	}
	sweep() // warm scratch and slices
	if allocs := testing.AllocsPerRun(3, sweep); allocs != 0 {
		t.Fatalf("steady-state doTask sweep allocates %.1f allocs/run", allocs)
	}
}
