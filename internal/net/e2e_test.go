package netga_test

import (
	"math"
	"math/rand"
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
// call: up starts them and returns the netga.Session over them, and every
// call is then the session's own. The session is closed with the test,
// before the servers up registered for cleanup. A non-nil sched is ticked
// by every one-sided op attempt of the pair (see tickedBackend).
type lazySession struct {
	t     *testing.T
	up    func(grid *dist.Grid2D) (*netga.Session, error)
	sched *fault.Schedule
	sess  *netga.Session
}

func (l *lazySession) Backend(grid *dist.Grid2D, stats *dist.RunStats) (dist.Backend, dist.Backend, func(), error) {
	if l.sess == nil {
		sess, err := l.up(grid)
		if err != nil {
			return nil, nil, nil, err
		}
		l.sess = sess
		l.t.Cleanup(func() { sess.Close(false) })
	}
	gaD, gaF, cleanup, err := l.sess.Backend(grid, stats)
	if err == nil && l.sched != nil {
		gaD, gaF = tickedBackend{gaD, l.sched}, tickedBackend{gaF, l.sched}
	}
	return gaD, gaF, cleanup, err
}

// netBackend returns a core.Options.Backend factory that brings up
// nservers loopback shard servers for the build's grid and opens a
// session on them.
func netBackend(t *testing.T, nservers int, session uint64, rpc *metrics.RPC) func(grid *dist.Grid2D, stats *dist.RunStats) (dist.Backend, dist.Backend, func(), error) {
	t.Helper()
	var servers []*netga.Server
	ls := &lazySession{t: t, up: func(grid *dist.Grid2D) (*netga.Session, error) {
		addrs, err := startShards(t, grid, nservers, &servers)
		return netga.NewSession(netga.Config{Session: session, RPC: rpc}, nil, "", addrs), err
	}}
	return ls.Backend
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
	factory := netBackend(t, 2, 1, rpc)
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
		sess := netga.NewSession(netga.Config{Session: 9, RPC: rpc, Fault: inj}, nil, "", []string{addr})
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
