package scf

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/core"
	"gtfock/internal/integrals"
	"gtfock/internal/linalg"
	"gtfock/internal/screen"
)

// randDensity returns a seeded symmetric pseudo-density with decaying
// off-diagonals.
func randDensity(nf int, seed int64) *linalg.Matrix {
	d := linalg.NewMatrix(nf, nf)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nf; i++ {
		for j := 0; j <= i; j++ {
			v := rng.NormFloat64() * math.Exp(-0.1*float64(i-j))
			d.Set(i, j, v)
			d.Set(j, i, v)
		}
	}
	return d
}

// What iterations 2..N of an ERICache run do: one stored batch, recorded
// once, is replayed against a different density every build. G is linear
// in the density, so the replays of D_prev, D - D_prev and D must satisfy
// G(D) = G(D_prev) + G(D - D_prev) to floating-point accumulation error —
// a replay that dropped, doubled or mis-scaled a stored quartet for some
// densities and not others would break it. Checked across alkanes and a
// d-shell case.
func TestStoredBatchReplayIsLinearInDensity(t *testing.T) {
	for _, tc := range []struct {
		name, bname string
		mol         *chem.Molecule
	}{
		{"alkane2-sto3g", "sto-3g", chem.Alkane(2)},
		{"alkane3-sto3g", "sto-3g", chem.Alkane(3)},
		{"h2-ccpvdz", "cc-pvdz", chem.Hydrogen2(0.9)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bs, err := basis.Build(tc.mol, tc.bname)
			if err != nil {
				t.Fatal(err)
			}
			scr := screen.Compute(bs, 1e-11)
			store := integrals.NewERIStore(bs.NumShells(), 0, nil, 1, nil)
			opt := core.Options{Prow: 2, Pcol: 2, ERIStore: store}
			for seed := int64(0); seed < 3; seed++ {
				d := randDensity(bs.NumFuncs, 100+seed)
				dPrev := randDensity(bs.NumFuncs, 200+seed)
				delta := d.Clone()
				delta.AXPY(-1, dPrev)

				full := core.Build(bs, scr, d, opt)
				base := core.Build(bs, scr, dPrev, opt)
				inc := core.Build(bs, scr, delta, opt)
				if full.Err != nil || base.Err != nil || inc.Err != nil {
					t.Fatalf("build errors: %v %v %v", full.Err, base.Err, inc.Err)
				}
				sum := base.G.Clone()
				sum.AXPY(1, inc.G)
				if diff := linalg.MaxAbsDiff(full.G, sum); diff > 1e-10 {
					t.Fatalf("seed %d: |G(D) - G(Dprev) - G(dD)| = %g", seed, diff)
				}
			}
			if st := store.Stats(); st.TaskHits == 0 {
				t.Fatalf("store never replayed: %+v", st)
			}
		})
	}
}

// Satellite regression: FockStats must be recorded per iteration, not
// silently overwritten — each gtfock iteration carries its own stats
// object and the result-level field is the final build's.
func TestPerIterationFockStats(t *testing.T) {
	res, err := RunHF(chem.Methane(), Options{
		BasisName: "sto-3g", Prow: 2, Pcol: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) < 2 {
		t.Fatalf("only %d iterations", len(res.Iterations))
	}
	for i, it := range res.Iterations {
		if it.FockStats == nil {
			t.Fatalf("iteration %d: no FockStats", i+1)
		}
		if i > 0 && it.FockStats == res.Iterations[i-1].FockStats {
			t.Fatalf("iterations %d and %d share a FockStats object", i, i+1)
		}
	}
	if res.FockStats != res.Iterations[len(res.Iterations)-1].FockStats {
		t.Fatal("result FockStats is not the final iteration's")
	}
}

// Satellite regression: blow-ups must surface at the iteration that
// produced them. The guard helper attributes NaN and Inf entries with
// the producing iteration and matrix, and a poisoned warm start is
// caught before any work at iteration 1.
func TestBlowUpReportedAtProducingIteration(t *testing.T) {
	m := linalg.NewMatrix(2, 2)
	if err := nonFiniteErr(m, 3, "two-electron matrix"); err != nil {
		t.Fatalf("finite matrix flagged: %v", err)
	}
	m.Set(1, 0, math.Inf(1))
	err := nonFiniteErr(m, 3, "two-electron matrix")
	if !errors.Is(err, ErrNumericalBlowUp) {
		t.Fatalf("err = %v, want ErrNumericalBlowUp", err)
	}
	for _, want := range []string{"iteration 3", "two-electron matrix", "(1,0)"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
	m.Set(1, 0, math.NaN())
	if err := nonFiniteErr(m, 1, "Fock matrix"); !errors.Is(err, ErrNumericalBlowUp) {
		t.Fatalf("NaN not flagged: %v", err)
	}

	// End to end: a poisoned warm start is attributed to iteration 1.
	mol := chem.Hydrogen2(0.74)
	bs, berr := basis.Build(mol, "sto-3g")
	if berr != nil {
		t.Fatal(berr)
	}
	bad := linalg.NewMatrix(bs.NumFuncs, bs.NumFuncs)
	bad.Set(0, 1, math.Inf(1))
	_, err = RunHF(mol, Options{
		BasisName: "sto-3g", InitialFock: bad,
	})
	if !errors.Is(err, ErrNumericalBlowUp) || !strings.Contains(err.Error(), "iteration 1") {
		t.Fatalf("warm-start blow-up not attributed to iteration 1: %v", err)
	}
}
