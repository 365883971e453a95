package core

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gtfock/internal/chem"
	"gtfock/internal/dist"
	"gtfock/internal/integrals"
	"gtfock/internal/linalg"
)

// withGOMAXPROCS sets the one control lanes have for the rest of the test.
func withGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// checkRankAccounting holds a fault-free build to the paper's accounting
// under lanes: every task ran once somewhere, and a rank's compute time is
// wall-clock, never the sum over its lanes.
func checkRankAccounting(t *testing.T, name string, st *dist.RunStats, ns int) {
	t.Helper()
	var tasks int64
	for r, p := range st.Per {
		tasks += p.TasksRun
		if p.ComputeTime <= 0 || p.ComputeTime > p.TotalTime {
			t.Fatalf("%s: rank %d ComputeTime %g outside (0, TotalTime %g]", name, r, p.ComputeTime, p.TotalTime)
		}
	}
	if tasks != int64(ns*ns) {
		t.Fatalf("%s: ran %d tasks, want %d", name, tasks, ns*ns)
	}
}

// One lane, two lanes and four lanes (or, on the 2x2 grid, one lane per
// rank whatever GOMAXPROCS says until it reaches 8) build the same G as the
// serial oracle with d shells in play.
func TestLanesMatchSerialOracle(t *testing.T) {
	bs, scr, d := buildSetup(t, chem.Methane(), "cc-pvdz")
	ref := BuildSerial(bs, scr, d)
	pt := scr.PairTable(integrals.PrimTol)
	for _, procs := range []int{1, 2, 4} {
		for _, grid := range [][2]int{{1, 1}, {2, 2}} {
			name := fmt.Sprintf("GOMAXPROCS=%d grid %dx%d", procs, grid[0], grid[1])
			t.Run(name, func(t *testing.T) {
				withGOMAXPROCS(t, procs)
				res := Build(bs, scr, d, Options{Prow: grid[0], Pcol: grid[1], PairTable: pt})
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				if err := linalg.MaxAbsDiff(ref, res.G); err > 1e-9 {
					t.Fatalf("|G - serial| = %g", err)
				}
				if res.G.SymmetryError() > 1e-11 {
					t.Fatal("G not symmetric")
				}
				checkRankAccounting(t, name, res.Stats, bs.NumShells())
			})
		}
	}
}

// The chaos grid again with two lanes on every rank of every grid shape:
// a fenced rank loses all of its lanes' work at once, and the sweep's
// exactly-once checks (tasks_total == ns^2, fenced flushes discarded,
// orphans re-executed) must hold unchanged.
func TestChaosRecoveryWithLanes(t *testing.T) {
	withGOMAXPROCS(t, 8) // 2x2, 3x1 and 1x4 all get 2 lanes per rank
	chaosGrid(t)
}

// A lopsided 2x1 partition: butane's shells fill rank 0's rows, and rank
// 1's are eleven H2 molecules 100 bohr apart, whose Phi sets hold two
// shells each — a few per cent of the work. Rank 1 runs dry while rank 0's
// two lanes are still inside tasks and steals from under them; the stolen
// block's claim moves with it and every task still runs once. Every build
// is held to the oracle; which rank the host lets run first is not ours to
// say, so the steal itself must show up in one build of ten.
func TestStealFromRankWithBusyLanes(t *testing.T) {
	withGOMAXPROCS(t, 4)
	mol := chem.Alkane(4)
	for i := 1; i <= 11; i++ {
		h2 := chem.Hydrogen2(0).Translate(chem.Vec3{X: 100 * float64(i)})
		mol.Atoms = append(mol.Atoms, h2.Atoms...)
	}
	bs, scr, d := buildSetup(t, mol, "sto-3g")
	ref := BuildSerial(bs, scr, d)
	for attempt := 1; attempt <= 10; attempt++ {
		tr := &dist.Trace{}
		res := Build(bs, scr, d, Options{Prow: 2, Pcol: 1, Trace: tr})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if err := linalg.MaxAbsDiff(ref, res.G); err > 1e-9 {
			t.Fatalf("|G - serial| = %g", err)
		}
		checkRankAccounting(t, "2x1", res.Stats, bs.NumShells())

		// Rank 1's first steal, and the lanes of rank 0 that were still
		// computing when it had landed.
		spans := tr.Spans()
		stolenAt := -1.0
		for _, s := range spans {
			if s.Proc == 1 && s.Kind == dist.SpanSteal {
				stolenAt = s.End
				break
			}
		}
		busy := map[int]bool{}
		for _, s := range spans {
			if stolenAt >= 0 && s.Proc == 0 && s.Kind == dist.SpanCompute && s.End > stolenAt {
				busy[s.Lane] = true
			}
		}
		if len(busy) == 2 {
			return
		}
		t.Logf("attempt %d: rank 1 stole %d times, rank 0 lanes busy after the first: %v",
			attempt, res.Stats.Per[1].Steals, busy)
	}
	t.Fatal("rank 1 never stole from rank 0 while both of its lanes were computing")
}

// Record and replay ride the same lanes: four lanes record every task
// once, a later commit of a recorded task is dropped (first writer wins),
// and the replay build hits the store on every task and lands the G the
// record build did.
func TestStoreRecordReplayWithLanes(t *testing.T) {
	withGOMAXPROCS(t, 4)
	bs, scr, d := buildSetup(t, chem.Alkane(2), "sto-3g")
	ns := bs.NumShells()
	store := integrals.NewERIStore(ns, 0, nil, 1, nil)
	opt := Options{ERIStore: store}
	rec := Build(bs, scr, d, opt)
	if rec.Err != nil {
		t.Fatal(rec.Err)
	}
	if err := linalg.MaxAbsDiff(BuildSerial(bs, scr, d), rec.G); err > 1e-9 {
		t.Fatalf("record build: |G - serial| = %g", err)
	}
	recorded := store.Stats()
	if recorded.TaskHits != 0 || recorded.TaskMisses == 0 {
		t.Fatalf("record build: %+v", recorded)
	}

	store.CommitTask(0, []uint32{0}, []float64{1e6})
	if st := store.Stats(); st.BytesStored != recorded.BytesStored || st.QuartetsStored != recorded.QuartetsStored {
		t.Fatalf("second commit of task 0 was not dropped: %+v, recorded %+v", st, recorded)
	}

	rep := Build(bs, scr, d, opt)
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	replayed := store.Stats().Sub(recorded)
	if replayed.HitRate() != 1 || replayed.TaskHits != recorded.TaskMisses {
		t.Fatalf("replay build: %+v", replayed)
	}
	if err := linalg.MaxAbsDiff(rec.G, rep.G); err > 1e-12 {
		t.Fatalf("|G_replay - G_record| = %g", err)
	}
	checkRankAccounting(t, "replay", rep.Stats, ns)
}

// cancelAfter is a context that reports cancellation from its n-th Err
// call on: lanes ask once before every task, so the build is canceled
// mid-drain at a point that does not depend on the clock.
type cancelAfter struct {
	context.Context
	left atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// A build canceled while its lanes are draining returns Result.Err, and
// the fork-join has already collected every lane: nothing it started is
// still running.
func TestCancelMidBuildJoinsLanes(t *testing.T) {
	withGOMAXPROCS(t, 4)
	bs, scr, d := buildSetup(t, chem.Alkane(3), "sto-3g")
	before := runtime.NumGoroutine()
	ctx := &cancelAfter{Context: context.Background()}
	ctx.left.Store(40)
	res := Build(bs, scr, d, Options{Ctx: ctx})
	if res.Err == nil {
		t.Fatal("canceled build returned no error")
	}
	var tasks int64
	for _, p := range res.Stats.Per {
		tasks += p.TasksRun
	}
	if ns := int64(bs.NumShells()); tasks == 0 || tasks >= ns*ns {
		t.Fatalf("cancellation was not mid-build: %d of %d tasks ran", tasks, ns*ns)
	}
	// A goroutine that has signalled its WaitGroup may take a moment to be
	// unscheduled; one that is still in the task loop never goes away.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the build, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}
