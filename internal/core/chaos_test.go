package core

import (
	"fmt"
	"testing"
	"time"

	"gtfock/internal/chem"
	"gtfock/internal/dist"
	"gtfock/internal/fault"
	"gtfock/internal/linalg"
	"gtfock/internal/metrics"
)

// buildDeadline runs Build with a hard deadline; a hang is a test
// failure, not a stuck CI job.
func buildDeadline(t *testing.T, timeout time.Duration, f func() Result) Result {
	t.Helper()
	ch := make(chan Result, 1)
	go func() { ch <- f() }()
	select {
	case r := <-ch:
		return r
	case <-time.After(timeout):
		t.Fatalf("build did not complete within %v", timeout)
		panic("unreachable")
	}
}

// TestChaosRecoveryMatchesOracle is the headline fault-tolerance check:
// across a grid of process shapes and seeded fault mixes (worker crash
// probability >= 0.2, stalls past the lease TTL, dropped and delayed
// one-sided ops), every recovered build must match the serial oracle to
// the same tolerance the fault-free builds are held to, and none may
// hang.
func TestChaosRecoveryMatchesOracle(t *testing.T) { chaosGrid(t) }

// chaosGrid is the 24-run sweep (3 grids x 4 mixes x 2 seeds) at whatever
// GOMAXPROCS — hence lanes per rank — the caller has set. Beyond the
// oracle match it holds every run to exactly-once in the registry:
// tasks_total == ns^2, fenced work dropped and re-executed, never merged.
func chaosGrid(t *testing.T) {
	bs, scr, d := buildSetup(t, chem.Alkane(2), "sto-3g")
	ref := BuildSerial(bs, scr, d)
	ns := int64(bs.NumShells())

	grids := [][2]int{{2, 2}, {3, 1}, {1, 4}}
	mixes := []fault.Config{
		{ // crash-heavy: most workers die before their first flush
			CrashBeforeFlush: 0.4,
			CrashAfterFlush:  0.1,
		},
		{ // stall-heavy: stalls exceed the TTL, so zombies get fenced
			CrashBeforeFlush: 0.2,
			StallProb:        0.04,
			StallFor:         60 * time.Millisecond,
		},
		{ // lossy transport: drops force retries and aborts
			CrashBeforeFlush: 0.2,
			DropProb:         0.3,
			DelayProb:        0.05,
			DelayFor:         time.Millisecond,
		},
		{ // everything at once
			CrashBeforeFlush: 0.3,
			CrashAfterFlush:  0.15,
			StallProb:        0.03,
			StallFor:         50 * time.Millisecond,
			DropProb:         0.2,
			DelayProb:        0.05,
			DelayFor:         time.Millisecond,
		},
	}

	runs := 0
	var crashes, fenced, reassigned, fencedFlushes int64
	for gi, grid := range grids {
		for mi, mix := range mixes {
			for seed := int64(0); seed < 2; seed++ {
				mix.Seed = int64(1000*gi+100*mi) + seed
				runs++
				name := fmt.Sprintf("grid %dx%d mix %d seed %d", grid[0], grid[1], mi, mix.Seed)
				reg := metrics.NewRegistry(grid[0] * grid[1])
				res := buildDeadline(t, 60*time.Second, func() Result {
					return Build(bs, scr, d, Options{
						Prow: grid[0], Pcol: grid[1],
						Fault:    fault.New(mix),
						LeaseTTL: 15 * time.Millisecond,
						Metrics:  reg,
					})
				})
				if err := linalg.MaxAbsDiff(ref, res.G); err > 1e-9 {
					t.Fatalf("%s: |G - serial| = %g", name, err)
				}
				if snap := reg.Snapshot(); snap.TasksTotal != ns*ns {
					t.Fatalf("%s: committed tasks_total = %d, want %d (%d samples discarded)",
						name, snap.TasksTotal, ns*ns, snap.DiscardedSamples)
				}
				if res.G.SymmetryError() > 1e-11 {
					t.Fatalf("%s: recovered G not symmetric", name)
				}
				rec := &res.Stats.Recovery
				crashes += rec.Crashes
				fenced += rec.WorkersFenced
				reassigned += rec.BlocksReassigned
				fencedFlushes += rec.FencedFlushes
				if rec.BlocksOrphaned > 0 && rec.BlocksReassigned == 0 {
					t.Fatalf("%s: %d blocks orphaned but none reassigned", name, rec.BlocksOrphaned)
				}
			}
		}
	}
	if runs < 20 {
		t.Fatalf("only %d chaos runs; want >= 20", runs)
	}
	// The sweep must actually have exercised the machinery.
	if crashes == 0 {
		t.Fatal("no crashes injected across the chaos sweep")
	}
	if fenced == 0 || reassigned == 0 || fencedFlushes == 0 {
		t.Fatalf("recovery never engaged: fenced=%d reassigned=%d fenced flushes=%d", fenced, reassigned, fencedFlushes)
	}
	t.Logf("chaos sweep: %d runs, %d crashes, %d workers fenced, %d blocks reassigned, %d fenced flushes",
		runs, crashes, fenced, reassigned, fencedFlushes)
}

// A fault-free build — with an armed zero-rate injector, and plain (no
// injector, no backend) — must match the oracle, record no recovery
// events and commit every task once: the lease machinery itself must not
// perturb the result. Both run it: every rank renews its lease.
func TestFaultPathZeroRatesIsClean(t *testing.T) {
	bs, scr, d := buildSetup(t, chem.Methane(), "sto-3g")
	ref := BuildSerial(bs, scr, d)
	ns := int64(bs.NumShells())
	for name, inj := range map[string]*fault.Injector{
		"zero-rate injector": fault.New(fault.Config{Seed: 9}),
		"plain":              nil,
	} {
		reg := metrics.NewRegistry(4)
		res := Build(bs, scr, d, Options{Prow: 2, Pcol: 2, Fault: inj, Metrics: reg})
		if err := linalg.MaxAbsDiff(ref, res.G); err > 1e-9 {
			t.Fatalf("%s: |G - serial| = %g", name, err)
		}
		if res.Stats.Recovery.Any() {
			t.Fatalf("%s: fault-free run recorded recovery events: %+v", name, res.Stats.Recovery)
		}
		snap := reg.Snapshot()
		if snap.TasksTotal != ns*ns {
			t.Fatalf("%s: committed TasksTotal = %d, want %d", name, snap.TasksTotal, ns*ns)
		}
		for _, w := range snap.Workers {
			if w.LeaseRenewals == 0 {
				t.Fatalf("%s: rank %d never renewed a lease; the build did not run leased", name, w.Rank)
			}
		}
	}
}

// Certain-death configuration: every worker crashes before its flush
// while armed. The disarm valve (eight rounds) must still complete the
// build correctly.
func TestChaosCertainCrashStillCompletes(t *testing.T) {
	bs, scr, d := buildSetup(t, chem.Methane(), "sto-3g")
	ref := BuildSerial(bs, scr, d)
	res := buildDeadline(t, 60*time.Second, func() Result {
		return Build(bs, scr, d, Options{
			Prow: 2, Pcol: 2,
			Fault:    fault.New(fault.Config{Seed: 3, CrashBeforeFlush: 1}),
			LeaseTTL: 10 * time.Millisecond,
		})
	})
	if err := linalg.MaxAbsDiff(ref, res.G); err > 1e-9 {
		t.Fatalf("|G - serial| = %g", err)
	}
	if res.Stats.Recovery.Rounds == 0 {
		t.Fatal("certain-crash build claims it needed no recovery rounds")
	}
}

// transfer is transferLocked under l.mu, the way ledger.steal reaches it.
func transfer(l *ledger, victim, thief int, b TaskBlock) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.transferLocked(victim, thief, b)
}

// The guillotine split conserves any rectangle inside a claim, not only
// the row bands Queue.Steal takes: a column band leaves the victim the
// left remnant, and an interior rectangle leaves all four.
func TestLedgerTransferColumnBand(t *testing.T) {
	l := newLedger(2, time.Hour, dist.NewRunStats(2))
	e0 := l.register(0)
	l.register(1)
	if !l.claim(0, e0, TaskBlock{R0: 2, R1: 3, C0: 0, C1: 8}) {
		t.Fatal("claim failed")
	}
	if !transfer(l, 0, 1, TaskBlock{R0: 2, R1: 3, C0: 5, C1: 8}) {
		t.Fatal("column-band transfer failed")
	}
	if n := len(l.claimed[0]); n != 1 || l.claimed[0][0] != (TaskBlock{R0: 2, R1: 3, C0: 0, C1: 5}) {
		t.Fatalf("victim claims after column transfer: %v", l.claimed[0])
	}
	// An interior rectangle: 4 remnants ring the transferred block.
	if !l.claim(0, e0, TaskBlock{R0: 10, R1: 20, C0: 10, C1: 20}) {
		t.Fatal("claim failed")
	}
	if !transfer(l, 0, 1, TaskBlock{R0: 13, R1: 16, C0: 14, C1: 17}) {
		t.Fatal("interior transfer failed")
	}
	area := 0
	for _, b := range l.claimed[0] {
		area += b.Count()
	}
	if area != 5+100-9 {
		t.Fatalf("victim area after splits = %d, want %d", area, 5+100-9)
	}
	for i, a := range l.claimed[0] {
		for j, b := range l.claimed[0] {
			if i != j && a.R0 < b.R1 && b.R0 < a.R1 && a.C0 < b.C1 && b.C0 < a.C1 {
				t.Fatalf("claims overlap: %v and %v", a, b)
			}
		}
	}
}

func TestQueueRemainingExcludesConsumedFrontRow(t *testing.T) {
	q := NewQueue(TaskBlock{R0: 0, R1: 2, C0: 0, C1: 3})
	want := []int{6, 5, 4, 3, 2, 1, 0}
	if got := q.Remaining(); got != want[0] {
		t.Fatalf("fresh queue Remaining = %d, want %d", got, want[0])
	}
	for i := 1; i < len(want); i++ {
		if _, ok := q.Pop(); !ok {
			t.Fatalf("pop %d failed", i)
		}
		if got := q.Remaining(); got != want[i] {
			t.Fatalf("after %d pops Remaining = %d, want %d", i, got, want[i])
		}
	}
}

func TestQueueCloseConfiscates(t *testing.T) {
	q := NewQueue(TaskBlock{R0: 0, R1: 4, C0: 0, C1: 4})
	q.Pop()
	q.Close()
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop succeeded on a closed queue")
	}
	if _, ok := q.Steal(); ok {
		t.Fatal("Steal succeeded on a closed queue")
	}
	q.AddBlock(TaskBlock{R0: 0, R1: 2, C0: 0, C1: 2})
	if q.Remaining() != 0 {
		t.Fatal("AddBlock landed on a closed queue")
	}
}

// Ledger unit tests: steal transfers split the victim's claim exactly,
// fencing orphans what remains, and a fenced incarnation can neither
// commit nor adopt.
func TestLedgerTransferAndFence(t *testing.T) {
	l := newLedger(2, time.Hour, dist.NewRunStats(2))
	e0 := l.register(0)
	e1 := l.register(1)

	whole := TaskBlock{R0: 0, R1: 8, C0: 0, C1: 4}
	if !l.claim(0, e0, whole) {
		t.Fatal("claim failed")
	}
	stolen := TaskBlock{R0: 6, R1: 8, C0: 0, C1: 4}
	if !transfer(l, 0, 1, stolen) {
		t.Fatal("transfer failed")
	}
	// Victim keeps [0,6), thief owns [6,8).
	if n := len(l.claimed[0]); n != 1 || l.claimed[0][0].R1 != 6 {
		t.Fatalf("victim claims after transfer: %v", l.claimed[0])
	}
	// A transfer of a block nobody claims must fail.
	if transfer(l, 0, 1, TaskBlock{R0: 6, R1: 8, C0: 0, C1: 4}) {
		t.Fatal("double transfer of the same block succeeded")
	}

	// Fence rank 0: its remaining claim is orphaned, its commit refused.
	l.mu.Lock()
	l.fenceLocked(0)
	l.mu.Unlock()
	if l.beginCommit(0, e0) {
		t.Fatal("fenced incarnation allowed to commit")
	}
	if !l.ValidEpoch(1, e1) || l.ValidEpoch(0, e0) {
		t.Fatal("epoch validity wrong after fence")
	}
	blk, ok := l.adopt(1, e1)
	if !ok || blk != (TaskBlock{R0: 0, R1: 6, C0: 0, C1: 4}) {
		t.Fatalf("adopt got %v, %v", blk, ok)
	}
	if _, ok := l.adopt(1, e1); ok {
		t.Fatal("orphan pool should be empty")
	}
	// Thief commits: everything it claims is done.
	if !l.beginCommit(1, e1) {
		t.Fatal("live incarnation refused commit")
	}
	l.endCommit(1)
	if len(l.claimed[1]) != 0 {
		t.Fatal("endCommit left claims behind")
	}
}
