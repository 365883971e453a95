package core

import (
	"math"
	"testing"
	"time"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/fault"
	"gtfock/internal/integrals"
	"gtfock/internal/linalg"
	"gtfock/internal/metrics"
	"gtfock/internal/screen"
)

// A store-enabled build sequence — build 1 records, builds 2..N replay —
// must match the serial oracle on every build, with every task replayed
// from the store after the recording pass. Covered for s/p shells and a
// d-shell basis.
func TestStoreReplayMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name, bname string
		mol         func() *chem.Molecule
	}{
		{"alkane-sto3g", "sto-3g", func() *chem.Molecule { return chem.Alkane(2) }},
		{"h2-ccpvdz", "cc-pvdz", func() *chem.Molecule { return chem.Hydrogen2(0.9) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bs, scr, d := buildSetup(t, tc.mol(), tc.bname)
			ref := BuildSerial(bs, scr, d)
			ns := bs.NumShells()
			store := integrals.NewERIStore(ns, 0, nil, 1, nil)
			opt := Options{Prow: 2, Pcol: 2, ERIStore: store}
			for build := 1; build <= 3; build++ {
				res := Build(bs, scr, d, opt)
				if res.Err != nil {
					t.Fatalf("build %d: %v", build, res.Err)
				}
				if err := linalg.MaxAbsDiff(ref, res.G); err > 1e-9 {
					t.Fatalf("build %d: |G - serial| = %g", build, err)
				}
			}
			// One miss per symmetry-surviving task on build 1, then every
			// task hits on builds 2 and 3.
			survivors := 0
			for m := 0; m < ns; m++ {
				for n := 0; n < ns; n++ {
					if SymmetryCheck(m, n) {
						survivors++
					}
				}
			}
			st := store.Stats()
			if st.TaskMisses != int64(survivors) || st.TaskHits != 2*int64(survivors) {
				t.Fatalf("hits/misses = %d/%d, want %d/%d", st.TaskHits, st.TaskMisses,
					2*survivors, survivors)
			}
			if st.QuartetsStored == 0 || st.QuartetsReplayed != 2*st.QuartetsStored {
				t.Fatalf("stored %d quartets, replayed %d", st.QuartetsStored, st.QuartetsReplayed)
			}
		})
	}
}

// StoreBytes is exact for a basis nothing screens out and an upper bound
// otherwise: what a recorded store holds is sized by ERIStoreBytes from
// its counters and compared with the bound computed from the basis alone.
func TestStoreBytesBoundsRecordedStore(t *testing.T) {
	for _, tc := range []struct {
		name, bname string
		mol         *chem.Molecule
		tau         float64
	}{
		{"methane-sto3g-unscreened", "sto-3g", chem.Methane(), 1e-300},
		{"methane-ccpvdz-unscreened", "cc-pvdz", chem.Methane(), 1e-300},
		{"butane-sto3g", "sto-3g", chem.Alkane(4), 1e-11},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bs, _, d := buildSetup(t, tc.mol, tc.bname)
			scr := screen.Compute(bs, tc.tau)
			ns := bs.NumShells()
			store := integrals.NewERIStore(ns, 0, nil, 1, nil)
			if res := Build(bs, scr, d, Options{ERIStore: store}); res.Err != nil {
				t.Fatal(res.Err)
			}
			st := store.Stats()
			index, values := integrals.ERIStoreBytes(ns, int64(ns*(ns+1)/2), st.QuartetsStored, st.BytesStored/8)
			boundIndex, boundValues := StoreBytes(bs)
			if index > boundIndex || values > boundValues {
				t.Fatalf("store holds %d index + %d value bytes, bound %d + %d", index, values, boundIndex, boundValues)
			}
			if tc.tau < 1e-200 && (index != boundIndex || values != boundValues) {
				t.Fatalf("unscreened store holds %d index + %d value bytes, bound %d + %d: want equal",
					index, values, boundIndex, boundValues)
			}
		})
	}
}

// Record with the specialized kernels, replay from the store: the
// replayed G is the recorded G (the store holds what the kernels
// produced; only the accumulation order may differ), and both equal the
// serial oracle on the general MD reference path to 1e-10. Propane/sto-3g
// runs the straight-line s/p kernels, methane/cc-pVDZ the d classes
// beside them.
func TestStoreReplayMatchesGeneratedKernels(t *testing.T) {
	for _, tc := range []struct {
		name, bname string
		mol         *chem.Molecule
	}{
		{"propane-sto3g", "sto-3g", chem.Alkane(3)},
		{"methane-ccpvdz", "cc-pvdz", chem.Methane()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bs, scr, d := buildSetup(t, tc.mol, tc.bname)
			ref := generalSerial(bs, scr, d)
			store := integrals.NewERIStore(bs.NumShells(), 0, nil, 1, nil)
			opt := Options{Prow: 1, Pcol: 2, ERIStore: store}
			rec := Build(bs, scr, d, opt)
			rep := Build(bs, scr, d, opt)
			if rec.Err != nil || rep.Err != nil {
				t.Fatalf("record %v, replay %v", rec.Err, rep.Err)
			}
			if st := store.Stats(); st.TaskHits == 0 || st.QuartetsReplayed != st.QuartetsStored {
				t.Fatalf("second build did not replay the first: %+v", st)
			}
			if err := linalg.MaxAbsDiff(rec.G, rep.G); err > 1e-12 {
				t.Fatalf("|G_record - G_replay| = %g", err)
			}
			if err := linalg.MaxAbsDiff(ref, rec.G); err > 1e-10 {
				t.Fatalf("|G_general - G_kernels| = %g", err)
			}
		})
	}
}

// A replay applies the record's bits: on one lane at 1x1 the replay build
// hands the contraction the labels and scaled values the record build
// computed, in the same order, so G is equal bit for bit — for s/p
// classes and with d shells (generated kernels, spherical transform).
func TestReplayBitIdenticalToRecord(t *testing.T) {
	withGOMAXPROCS(t, 1)
	for _, tc := range []struct {
		name, bname string
		mol         *chem.Molecule
	}{
		{"alkane2-sto3g", "sto-3g", chem.Alkane(2)},
		{"methane-ccpvdz", "cc-pvdz", chem.Methane()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bs, scr, d := buildSetup(t, tc.mol, tc.bname)
			store := integrals.NewERIStore(bs.NumShells(), 0, nil, 1, nil)
			opt := Options{ERIStore: store}
			rec := Build(bs, scr, d, opt)
			rep := Build(bs, scr, d, opt)
			if rec.Err != nil || rep.Err != nil {
				t.Fatalf("record %v, replay %v", rec.Err, rep.Err)
			}
			if st := store.Stats(); st.TaskHits == 0 || st.QuartetsReplayed != st.QuartetsStored {
				t.Fatalf("second build did not replay the first: %+v", st)
			}
			for i, v := range rec.G.Data {
				if math.Float64bits(v) != math.Float64bits(rep.G.Data[i]) {
					t.Fatalf("G[%d]: record %v, replay %v", i, v, rep.G.Data[i])
				}
			}
		})
	}
}

// A basis past the store label's shell bound is refused before anything
// is allocated: a task's quartet labels pack P and Q in 16 bits.
func TestBuildRejectsShellsPastLabel(t *testing.T) {
	bs := &basis.Set{Shells: make([]basis.Shell, integrals.MaxStoreShells+1)}
	if res := Build(bs, nil, nil, Options{}); res.Err == nil {
		t.Fatal("Build accepted more shells than a label packs")
	}
}

// A store sized for a different geometry must be rejected up front, not
// silently produce wrong task keys.
func TestStoreSizeMismatchRejected(t *testing.T) {
	bs, scr, d := buildSetup(t, chem.Alkane(2), "sto-3g")
	store := integrals.NewERIStore(bs.NumShells()+1, 0, nil, 1, nil)
	res := Build(bs, scr, d, Options{Prow: 1, Pcol: 1, ERIStore: store})
	if res.Err == nil {
		t.Fatal("mismatched store accepted")
	}
}

// The headline exactly-once check with the store in the loop: under
// seeded crash/stall/drop chaos, the recording build (duplicate commits
// from re-executed tasks) and subsequent replay builds (mixed replay and
// recompute across fenced incarnations) must all match the serial
// oracle, and the metric registry must hold exactly ns^2 committed task
// executions per build.
func TestStoreChaosExactlyOnce(t *testing.T) {
	bs, scr, d := buildSetup(t, chem.Alkane(2), "sto-3g")
	ref := BuildSerial(bs, scr, d)
	ns := int64(bs.NumShells())

	mix := fault.Config{
		CrashBeforeFlush: 0.3,
		CrashAfterFlush:  0.1,
		StallProb:        0.03,
		StallFor:         50 * time.Millisecond,
		DropProb:         0.15,
	}
	var fenced int64
	for seed := int64(0); seed < 4; seed++ {
		mix.Seed = 4200 + seed
		store := integrals.NewERIStore(int(ns), 0, nil, uint64(seed), nil)
		for build := 1; build <= 2; build++ {
			reg := metrics.NewRegistry(4)
			res := buildDeadline(t, 60*time.Second, func() Result {
				return Build(bs, scr, d, Options{
					Prow: 2, Pcol: 2,
					ERIStore: store,
					Fault:    fault.New(mix),
					LeaseTTL: 15 * time.Millisecond,
					Metrics:  reg,
				})
			})
			if res.Err != nil {
				t.Fatalf("seed %d build %d: %v", mix.Seed, seed, res.Err)
			}
			if err := linalg.MaxAbsDiff(ref, res.G); err > 1e-9 {
				t.Fatalf("seed %d build %d: |G - serial| = %g", mix.Seed, build, err)
			}
			if snap := reg.Snapshot(); snap.TasksTotal != ns*ns {
				t.Fatalf("seed %d build %d: committed TasksTotal = %d, want %d",
					mix.Seed, build, snap.TasksTotal, ns*ns)
			}
			fenced += res.Stats.Recovery.WorkersFenced
		}
		if st := store.Stats(); st.TaskHits == 0 {
			t.Fatalf("seed %d: replay build never hit the store: %+v", mix.Seed, st)
		}
	}
	if fenced == 0 {
		t.Fatal("chaos mix never fenced a worker; duplicate-commit path not exercised")
	}
}

// BenchmarkReplayBuild times the replay build of alkane:6/STO-3G (the
// scf_replay molecule) at 1x1 on one kept Builder, as RunHF makes one
// per solve, recorded once before the timer starts, and reports ns per
// stored integral value: the A/B figure for a change to the contraction
// loop or the store format, without the harness or the builder's set-up.
// `go test -run NONE -bench ReplayBuild -cpu 1 ./internal/core/`.
func BenchmarkReplayBuild(b *testing.B) {
	bs, scr, d := buildSetup(b, chem.Alkane(6), "sto-3g")
	store := integrals.NewERIStore(bs.NumShells(), 0, nil, 1, nil)
	opt := Options{ERIStore: store, PairTable: scr.PairTable(integrals.PrimTol)}
	fb := NewBuilder(bs, scr, opt.PairTable, opt)
	if res := fb.Build(d, opt); res.Err != nil {
		b.Fatal(res.Err)
	}
	values := store.Stats().BytesStored / 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := fb.Build(d, opt); res.Err != nil {
			b.Fatal(res.Err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*values), "ns/value")
}
