package netga_test

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/core"
	"gtfock/internal/dist"
	"gtfock/internal/fault"
	"gtfock/internal/linalg"
	"gtfock/internal/metrics"
	netga "gtfock/internal/net"
	"gtfock/internal/screen"
)

// netSetup mirrors the core test harness: a small alkane, screening, and
// a symmetric pseudo-density.
func netSetup(t *testing.T) (*basis.Set, *screen.Screening, *linalg.Matrix) {
	t.Helper()
	bs, err := basis.Build(chem.Alkane(2), "sto-3g")
	if err != nil {
		t.Fatal(err)
	}
	scr := screen.Compute(bs, 1e-11)
	d := linalg.NewMatrix(bs.NumFuncs, bs.NumFuncs)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < d.Rows; i++ {
		for j := 0; j <= i; j++ {
			v := rng.NormFloat64() * math.Exp(-0.1*float64(i-j))
			d.Set(i, j, v)
			d.Set(j, i, v)
		}
	}
	return bs, scr, d
}

// lazySession is the one D/F pair factory of the e2e tests. Loopback
// shards need the build's grid, so they come up inside the first Backend
// call: up starts them and returns the netga.Session over them, every
// call is then the session's own, and dialed (when non-nil) runs once the
// pair exists — chaos schedules start there, never mid-dial. The session
// is closed with the test, before the servers up registered for cleanup.
// A non-nil pace holds every one-sided op of the pair while a chaos event
// is due (see pacer).
type lazySession struct {
	t      *testing.T
	up     func(grid *dist.Grid2D) (*netga.Session, error)
	dialed func()
	pace   *pacer
	sess   *netga.Session
}

func (l *lazySession) Backend(grid *dist.Grid2D, stats *dist.RunStats) (dist.Backend, dist.Backend, func(), error) {
	first := l.sess == nil
	if first {
		sess, err := l.up(grid)
		if err != nil {
			return nil, nil, nil, err
		}
		l.sess = sess
		l.t.Cleanup(func() { sess.Close(false) })
	}
	gaD, gaF, cleanup, err := l.sess.Backend(grid, stats)
	if first && err == nil && l.dialed != nil {
		l.dialed()
	}
	if err == nil && l.pace != nil {
		gaD, gaF = pacedBackend{gaD, l.pace}, pacedBackend{gaF, l.pace}
	}
	return gaD, gaF, cleanup, err
}

// pacer pins a chaos schedule to its op counts. The fault runners poll
// their op counter on a 2ms timer, and a build of a few dozen one-sided
// calls, CPU-bound between them, can end before the runner's goroutine is
// scheduled again. While event i of n is due (due(i) reports its trigger
// reached) but has not fired, every op of the build waits, so the event
// lands at its count however the runner is scheduled. Wrap each event
// callback with fire.
type pacer struct {
	n     int
	due   func(i int) bool
	fired atomic.Int64
}

func (p *pacer) hold() {
	for i := int(p.fired.Load()); i < p.n && p.due(i); i = int(p.fired.Load()) {
		time.Sleep(100 * time.Microsecond)
	}
}

// fire returns f counted as the schedule's next fired event.
func (p *pacer) fire(f func(int)) func(int) {
	return func(k int) {
		f(k)
		p.fired.Add(1)
	}
}

// pacedBackend holds each one-sided op of a build at its pacer.
type pacedBackend struct {
	dist.Backend
	p *pacer
}

func (b pacedBackend) TryGet(proc, r0, r1, c0, c1 int, dst []float64, ld int) error {
	b.p.hold()
	return b.Backend.TryGet(proc, r0, r1, c0, c1, dst, ld)
}

func (b pacedBackend) TryAcc(proc int, token uint64, r0, r1, c0, c1 int, src []float64, ld int, alpha float64) (uint64, bool, error) {
	b.p.hold()
	return b.Backend.TryAcc(proc, token, r0, r1, c0, c1, src, ld, alpha)
}

// netBackend returns a core.Options.Backend factory that brings up
// nservers loopback shard servers for the build's grid and opens a
// session on them, plus an escape hatch to read the server stats after
// the build.
func netBackend(t *testing.T, nservers int, session uint64, inj *fault.Injector, rpc *metrics.RPC) (
	factory func(grid *dist.Grid2D, stats *dist.RunStats) (dist.Backend, dist.Backend, func(), error),
	serverStats func() netga.ServerStats,
) {
	t.Helper()
	var servers []*netga.Server
	ls := &lazySession{t: t, up: func(grid *dist.Grid2D) (*netga.Session, error) {
		addrs, err := startShards(t, grid, nservers, &servers)
		return netga.NewSession(netga.Config{Session: session, RPC: rpc, Fault: inj}, nil, "", addrs, nil), err
	}}
	serverStats = func() (sum netga.ServerStats) {
		for _, s := range servers {
			st := s.Stats()
			sum.Requests += st.Requests
			sum.AccApplied += st.AccApplied
			sum.AccDups += st.AccDups
			sum.Sessions += st.Sessions
			sum.Rejects += st.Rejects
		}
		return sum
	}
	return ls.Backend, serverStats
}

// startShards starts nservers plain pinned shard servers over grid, closed
// with the test, appending them to *servers and returning their addresses.
func startShards(t *testing.T, grid *dist.Grid2D, nservers int, servers *[]*netga.Server) ([]string, error) {
	_, hosted := netga.SplitProcs(grid.NumProcs(), nservers)
	addrs := make([]string, nservers)
	for k := range addrs {
		srv := netga.NewServer(grid, hosted[k])
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		t.Cleanup(srv.Close)
		*servers = append(*servers, srv)
		addrs[k] = addr
	}
	return addrs, nil
}

func buildDeadline(t *testing.T, timeout time.Duration, f func() core.Result) core.Result {
	t.Helper()
	ch := make(chan core.Result, 1)
	go func() { ch <- f() }()
	select {
	case r := <-ch:
		return r
	case <-time.After(timeout):
		t.Fatalf("build did not complete within %v", timeout)
		panic("unreachable")
	}
}

// TestLoopbackBuildMatchesSerial is the fault-free baseline: a 2x2 build
// whose D and F arrays live in two loopback shard-server processes must
// match the serial oracle exactly as the in-process build does.
func TestLoopbackBuildMatchesSerial(t *testing.T) {
	bs, scr, d := netSetup(t)
	ref := core.BuildSerial(bs, scr, d)
	rpc := &metrics.RPC{}
	reg := metrics.NewRegistry(4)
	factory, _ := netBackend(t, 2, 1, nil, rpc)
	res := buildDeadline(t, 2*time.Minute, func() core.Result {
		return core.Build(bs, scr, d, core.Options{
			Prow: 2, Pcol: 2,
			Backend:  factory,
			LeaseTTL: 500 * time.Millisecond,
			Metrics:  reg,
		})
	})
	if res.Err != nil {
		t.Fatalf("build error: %v", res.Err)
	}
	if diff := linalg.MaxAbsDiff(ref, res.G); diff > 1e-9 {
		t.Fatalf("|G - serial| = %g over TCP backend", diff)
	}
	ns := int64(bs.NumShells())
	if got := reg.Snapshot().TasksTotal; got != ns*ns {
		t.Fatalf("tasks_total = %d, want ns^2 = %d", got, ns*ns)
	}
	if rpc.Snapshot().Calls == 0 {
		t.Fatal("no RPCs recorded: build did not go over the wire")
	}
}

// TestLoopbackChaosBuildMatchesSerial is the headline proof of the
// network transport: a multi-server loopback build under injected
// connection resets, duplicated deliveries, slow links and partition
// windows — plus worker crashes riding on top — must complete, match
// BuildSerial to 1e-9, and count every task exactly once (tasks_total ==
// ns^2 means zero double-applied accumulates).
func TestLoopbackChaosBuildMatchesSerial(t *testing.T) {
	bs, scr, d := netSetup(t)
	ref := core.BuildSerial(bs, scr, d)
	ns := int64(bs.NumShells())

	mixes := []struct {
		name string
		cfg  fault.Config
	}{
		{"reset-dup-slowlink", fault.Config{
			Seed:         77,
			NetResetProb: 0.15,
			NetDupProb:   0.2,
			NetDelayProb: 0.1,
			NetDelayFor:  500 * time.Microsecond,
		}},
		{"partition-degradation", fault.Config{
			Seed:                    78,
			NetResetProb:            0.05,
			NetPartitionProb:        0.08,
			NetPartitionFor:         120 * time.Millisecond,
			MaxConsecutiveNetFaults: 2,
			CrashBeforeFlush:        0.15,
		}},
	}
	for i, mix := range mixes {
		mix := mix
		session := uint64(100 + i)
		t.Run(mix.name, func(t *testing.T) {
			inj := fault.New(mix.cfg)
			rpc := &metrics.RPC{}
			reg := metrics.NewRegistry(4)
			factory, serverStats := netBackend(t, 2, session, inj, rpc)
			res := buildDeadline(t, 3*time.Minute, func() core.Result {
				return core.Build(bs, scr, d, core.Options{
					Prow: 2, Pcol: 2,
					Backend:  factory,
					Fault:    inj,
					LeaseTTL: 150 * time.Millisecond,
					Retry:    dist.Retry{Attempts: 6, Backoff: time.Millisecond, WallCap: 300 * time.Millisecond},
					Metrics:  reg,
				})
			})
			if res.Err != nil {
				t.Fatalf("build error: %v", res.Err)
			}
			if diff := linalg.MaxAbsDiff(ref, res.G); diff > 1e-9 {
				t.Fatalf("|G - serial| = %g under %s", diff, mix.name)
			}
			if got := reg.Snapshot().TasksTotal; got != ns*ns {
				t.Fatalf("tasks_total = %d, want ns^2 = %d (lost or double-counted tasks)", got, ns*ns)
			}
			snap := rpc.Snapshot()
			sst := serverStats()
			if snap.Retries == 0 {
				t.Fatalf("chaos mix %s injected no retries: %+v", mix.name, snap)
			}
			t.Logf("%s: rpc=%+v recovery=%+v server={applied:%d dups:%d}",
				mix.name, snap, res.Stats.Recovery, sst.AccApplied, sst.AccDups)
		})
	}
}

// TestLiveSessionAccountsEveryBuild is the regression test for the
// live-session accounting bug: one netga.Session serves three
// consecutive builds (as serve.FleetRunner and fockbuild's cached builds
// do), and every build must report the Tables VI/VII figures of its own
// traffic — the same as the build over the in-process array — and its own
// retries. The client used to charge the RunStats it was dialed with, so
// every build after the first reported zero. One worker keeps the op
// sequence (no steals) and with it the call counts exact.
func TestLiveSessionAccountsEveryBuild(t *testing.T) {
	bs, scr, d := netSetup(t)
	opt := core.Options{Prow: 1, Pcol: 1, LeaseTTL: 2 * time.Second}
	ref := core.Build(bs, scr, d, opt)
	wantCalls, wantMB := ref.Stats.CallsAvg(), ref.Stats.VolumeAvgMB()
	if wantCalls == 0 || wantMB == 0 {
		t.Fatalf("in-process build reported no traffic: %v calls, %v MB", wantCalls, wantMB)
	}
	grid := core.Grid(bs, 1, 1)

	for _, faulty := range []bool{false, true} {
		srv := netga.NewServer(grid, []int{0})
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		var inj *fault.Injector
		if faulty {
			// About four resets per build whatever its call count (the
			// in-process build of the same shape is the dry run), so every
			// build sees some. They never run past the Get attempts budget,
			// so no op is abandoned and every failed attempt is a counted
			// retry.
			inj = fault.New(fault.Config{Seed: 5, NetResetProb: min(1, 4/wantCalls), MaxConsecutiveNetFaults: 2})
		}
		rpc := &metrics.RPC{}
		sess := netga.NewSession(netga.Config{Session: 9, RPC: rpc, Fault: inj}, nil, "", []string{addr}, nil)
		t.Cleanup(func() { sess.Close(false) })
		opt.Backend = sess.Backend
		for b := 1; b <= 3; b++ {
			before := rpc.Snapshot().Retries
			res := buildDeadline(t, time.Minute, func() core.Result { return core.Build(bs, scr, d, opt) })
			if res.Err != nil {
				t.Fatalf("faulty=%v build %d: %v", faulty, b, res.Err)
			}
			if diff := linalg.MaxAbsDiff(ref.G, res.G); diff > 1e-9 {
				t.Fatalf("faulty=%v build %d: |G - in-process| = %g", faulty, b, diff)
			}
			if calls, mb := res.Stats.CallsAvg(), res.Stats.VolumeAvgMB(); calls != wantCalls || mb != wantMB {
				t.Fatalf("faulty=%v build %d reports %v calls / %v MB, want the in-process build's %v / %v",
					faulty, b, calls, mb, wantCalls, wantMB)
			}
			retries := rpc.Snapshot().Retries - before
			if got := res.Stats.Recovery.OpRetries; got != retries || (retries > 0) != faulty {
				t.Fatalf("faulty=%v build %d reports %d op retries, the wire saw %d in it", faulty, b, got, retries)
			}
		}
	}
}
