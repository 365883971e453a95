package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"gtfock/internal/chem"
	"gtfock/internal/fault"
	"gtfock/internal/integrals"
	"gtfock/internal/linalg"
	"gtfock/internal/metrics"
)

// A Builder keeps what a build used to allocate per lane: once it has
// recorded its store, a replay build of CH4/STO-3G at 1x1 allocates less
// than the one integral Engine every build allocated per lane before.
func TestBuilderReplayAllocs(t *testing.T) {
	bs, scr, d := buildSetup(t, chem.Methane(), "sto-3g")
	store := integrals.NewERIStore(bs.NumShells(), 0, nil, 1, nil)
	opt := Options{ERIStore: store}
	b := NewBuilder(bs, scr, nil, opt)
	if r := b.Build(d, opt); r.Err != nil {
		t.Fatal(r.Err)
	}
	const builds = 50
	recorded := store.Stats()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		if r := b.Build(d, opt); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	runtime.ReadMemStats(&after)
	if st := store.Stats().Sub(recorded); st.TaskMisses != 0 || st.TaskHits == 0 {
		t.Fatalf("replay builds missed the store: %+v", st)
	}
	perBuild := (after.TotalAlloc - before.TotalAlloc) / builds
	engine := uint64(unsafe.Sizeof(integrals.Engine{}))
	if perBuild >= engine {
		t.Fatalf("a replay build allocates %d bytes, want < %d (one Engine)", perBuild, engine)
	}
	t.Logf("%d bytes in %d allocs per replay build", perBuild, (after.Mallocs-before.Mallocs)/builds)
}

// A builder reused after a faulted build starts clean: each faulted build
// (crashes before and after the flush, stalls past the lease, dropped
// ops; steals and adoptions) is followed by a clean one on the same
// builder, and both match the serial oracle and commit every task once.
// The 1x2 grid at GOMAXPROCS 4 runs two lanes per rank, so a dead
// incarnation leaves helper accumulators dirty too.
//
// Each seed runs two faulted builds. The full mix's 15 ms lease fences a
// rank at its first stall, and on a loaded host every rank of every
// round can be fenced before it reaches a flush, so none of its crash
// draws is made. The crash-only mix keeps the default lease: every rank
// reaches its first flush and draws, so the crashes this test counts do
// not depend on how busy the host is.
func TestBuilderReuseAfterFault(t *testing.T) {
	withGOMAXPROCS(t, 4)
	bs, scr, d := buildSetup(t, chem.Alkane(2), "sto-3g")
	ref := BuildSerial(bs, scr, d)
	ns := int64(bs.NumShells())
	mixes := []struct {
		cfg fault.Config
		ttl time.Duration
	}{
		{fault.Config{
			CrashBeforeFlush: 0.3,
			CrashAfterFlush:  0.15,
			StallProb:        0.03,
			StallFor:         50 * time.Millisecond,
			DropProb:         0.15,
		}, 15 * time.Millisecond},
		{fault.Config{CrashBeforeFlush: 0.3, CrashAfterFlush: 0.15}, 0},
	}
	for _, grid := range [][2]int{{2, 2}, {1, 2}} {
		b := NewBuilder(bs, scr, nil, Options{Prow: grid[0], Pcol: grid[1]})
		var crashes, reassigned, steals int64
		for seed := int64(0); seed < 4; seed++ {
			for mi, mix := range mixes {
				mix.cfg.Seed = 4600 + seed
				for _, faulted := range []bool{true, false} {
					name := fmt.Sprintf("grid %dx%d mix %d seed %d faulted %v", grid[0], grid[1], mi, mix.cfg.Seed, faulted)
					opt := Options{Metrics: metrics.NewRegistry(grid[0] * grid[1])}
					if faulted {
						opt.Fault, opt.LeaseTTL = fault.New(mix.cfg), mix.ttl
					}
					res := buildDeadline(t, 60*time.Second, func() Result { return b.Build(d, opt) })
					if res.Err != nil {
						t.Fatalf("%s: %v", name, res.Err)
					}
					if err := linalg.MaxAbsDiff(ref, res.G); err > 1e-9 {
						t.Fatalf("%s: |G - serial| = %g", name, err)
					}
					if snap := opt.Metrics.Snapshot(); snap.TasksTotal != ns*ns {
						t.Fatalf("%s: committed tasks_total = %d, want %d", name, snap.TasksTotal, ns*ns)
					}
					rec := &res.Stats.Recovery
					if !faulted && (rec.Crashes != 0 || rec.WorkersFenced != 0) {
						t.Fatalf("%s: clean build recorded recovery %+v", name, *rec)
					}
					crashes += rec.Crashes
					reassigned += rec.BlocksReassigned
					for _, p := range res.Stats.Per {
						steals += p.Steals
					}
				}
			}
		}
		if crashes == 0 || reassigned == 0 || steals == 0 {
			t.Fatalf("grid %dx%d: faults not exercised: %d crashes, %d blocks adopted, %d steals",
				grid[0], grid[1], crashes, reassigned, steals)
		}
	}
}

// A Build naming another grid, pair table or store than its Builder's is
// refused; left zero, each is the Builder's.
func TestBuilderRefusesOtherOptions(t *testing.T) {
	bs, scr, d := buildSetup(t, chem.Methane(), "sto-3g")
	pt := scr.PairTable(integrals.PrimTol)
	store := integrals.NewERIStore(bs.NumShells(), 0, nil, 1, nil)
	b := NewBuilder(bs, scr, pt, Options{Prow: 1, Pcol: 2, ERIStore: store})
	if r := b.Build(d, Options{}); r.Err != nil {
		t.Fatalf("zero options: %v", r.Err)
	}
	for name, opt := range map[string]Options{
		"grid":       {Prow: 2, Pcol: 1},
		"pair table": {PairTable: scr.PairTable(integrals.PrimTol)},
		"store":      {ERIStore: integrals.NewERIStore(bs.NumShells(), 0, nil, 1, nil)},
	} {
		if r := b.Build(d, opt); r.Err == nil {
			t.Errorf("another %s accepted", name)
		}
	}
}
