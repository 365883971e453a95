package netga_test

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gtfock/internal/basis"
	"gtfock/internal/core"
	"gtfock/internal/dist"
	"gtfock/internal/fault"
	"gtfock/internal/linalg"
	"gtfock/internal/metrics"
	netga "gtfock/internal/net"
	"gtfock/internal/screen"
)

// chaosCluster is the loopback harness for process-kill chaos: durable
// shard servers whose slots can be SIGKILLed (abrupt Close) and restarted
// on the same address and journal directory mid-build, plus optional hot
// standbys for the promotion path.
type chaosCluster struct {
	t       *testing.T
	grid    *dist.Grid2D
	dir     string
	session uint64

	mu       sync.Mutex
	hosted   [][]int
	addrs    []string
	servers  []*netga.Server // current incarnation per slot
	retired  []*netga.Server // killed incarnations (stats, cleanup)
	standbys []*netga.Server
}

func (cc *chaosCluster) slotDir(k int) string {
	return filepath.Join(cc.dir, fmt.Sprintf("s%d", k))
}

func (cc *chaosCluster) start(grid *dist.Grid2D, nservers int, withStandbys bool) (addrs, standbys []string) {
	cc.grid = grid
	_, hosted := netga.SplitProcs(grid.NumProcs(), nservers)
	cc.hosted = hosted
	cc.addrs = make([]string, nservers)
	cc.servers = make([]*netga.Server, nservers)
	var stdbyAddrs []string
	for k := 0; k < nservers; k++ {
		srv := netga.NewServer(grid, hosted[k],
			netga.WithDurability(cc.slotDir(k), 64), netga.WithNoSync())
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			cc.t.Fatalf("start server %d: %v", k, err)
		}
		cc.addrs[k] = addr
		cc.servers[k] = srv
	}
	if withStandbys {
		stdbyAddrs = make([]string, nservers)
		cc.standbys = make([]*netga.Server, nservers)
		for k := 0; k < nservers; k++ {
			sb := netga.NewServer(grid, hosted[k], netga.WithStandby(cc.addrs[k]))
			addr, err := sb.Start("127.0.0.1:0")
			if err != nil {
				cc.t.Fatalf("start standby %d: %v", k, err)
			}
			stdbyAddrs[k] = addr
			cc.standbys[k] = sb
		}
	}
	cc.t.Cleanup(cc.closeAll)
	return cc.addrs, stdbyAddrs
}

func (cc *chaosCluster) closeAll() {
	cc.mu.Lock()
	all := append([]*netga.Server{}, cc.servers...)
	all = append(all, cc.retired...)
	all = append(all, cc.standbys...)
	cc.mu.Unlock()
	for _, s := range all {
		if s != nil {
			s.Close()
		}
	}
}

// ops reports the cumulative request count of slot k across incarnations
// (the kill trigger must keep advancing after a restart).
func (cc *chaosCluster) ops(k int) int64 {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	n := cc.servers[k].Stats().Requests
	for _, s := range cc.retired {
		if s != nil {
			n += s.Stats().Requests
		}
	}
	return n
}

func (cc *chaosCluster) kill(k int) {
	cc.mu.Lock()
	srv := cc.servers[k]
	cc.retired = append(cc.retired, srv)
	cc.mu.Unlock()
	srv.Kill()
}

func (cc *chaosCluster) restart(k int) {
	srv := netga.NewServer(cc.grid, cc.hosted[k],
		netga.WithDurability(cc.slotDir(k), 64), netga.WithNoSync())
	var err error
	for i := 0; i < 400; i++ {
		if _, err = srv.Start(cc.addrs[k]); err == nil {
			cc.mu.Lock()
			cc.servers[k] = srv
			cc.mu.Unlock()
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	cc.t.Errorf("restart slot %d on %s: %v", k, cc.addrs[k], err)
}

// chaosOptions is the build every process-kill chaos test runs: 2x2 with
// leases and retry budgets short enough to ride out a 30ms restart.
func chaosOptions(backend func(*dist.Grid2D, *dist.RunStats) (dist.Backend, dist.Backend, func(), error), reg *metrics.Registry) core.Options {
	return core.Options{
		Prow: 2, Pcol: 2,
		Backend:  backend,
		LeaseTTL: 300 * time.Millisecond,
		Retry:    dist.Retry{Attempts: 10, Backoff: 2 * time.Millisecond, WallCap: 500 * time.Millisecond},
		Metrics:  reg,
	}
}

// dryShardOps is the per-shard op count of one fault-free chaos build over
// two durable shards — the fewest requests either shard serves. Kill
// windows are drawn as fractions of it, so a schedule lands mid-build
// however many one-sided calls the build issues.
func dryShardOps(t *testing.T, bs *basis.Set, scr *screen.Screening, d *linalg.Matrix) int64 {
	t.Helper()
	cc := &chaosCluster{t: t, dir: t.TempDir(), session: 299}
	ls := &lazySession{t: t, up: func(grid *dist.Grid2D) (*netga.Session, error) {
		addrs, _ := cc.start(grid, 2, false)
		return netga.NewSession(netga.Config{Session: cc.session}, nil, "", addrs, nil), nil
	}}
	res := buildDeadline(t, time.Minute, func() core.Result {
		return core.Build(bs, scr, d, chaosOptions(ls.Backend, nil))
	})
	if res.Err != nil {
		t.Fatalf("dry build: %v", res.Err)
	}
	return min(cc.ops(0), cc.ops(1))
}

// TestLoopbackKillRestartBuildMatchesSerial is the tentpole chaos proof
// without standbys: durable shard servers are SIGKILLed mid-build and
// restarted from snapshot + journal on the same address. The build must
// complete, match the serial oracle to 1e-9, and count every task exactly
// once — acknowledged accumulates survived the crash, retried ones
// deduplicated against the recovered token table.
func TestLoopbackKillRestartBuildMatchesSerial(t *testing.T) {
	bs, scr, d := netSetup(t)
	ref := core.BuildSerial(bs, scr, d)
	ns := int64(bs.NumShells())
	// Two kills per slot, triggered by served-op counts in the first half
	// of a dry build's per-shard traffic, past the driver's loads, so they
	// land mid-build deterministically per seed; restarted after 30ms.
	dry := dryShardOps(t, bs, scr, d)
	plan := fault.ServerKillPlan(42, 2, 4, dry/4, dry/2, 30*time.Millisecond)

	cc := &chaosCluster{t: t, dir: t.TempDir(), session: 300}
	rpc := &metrics.RPC{}
	reg := metrics.NewRegistry(4)
	stop := make(chan struct{})
	var chaos sync.WaitGroup
	pace := &pacer{n: len(plan), due: func(i int) bool { return cc.ops(plan[i].Server) >= plan[i].AfterOps }}
	ls := &lazySession{t: t, pace: pace,
		up: func(grid *dist.Grid2D) (*netga.Session, error) {
			addrs, _ := cc.start(grid, 2, false)
			return netga.NewSession(netga.Config{Session: cc.session, RPC: rpc}, nil, "", addrs, nil), nil
		},
		dialed: func() {
			chaos.Add(1)
			go func() {
				defer chaos.Done()
				fault.RunServerKills(plan, cc.ops, pace.fire(cc.kill), cc.restart, stop)
			}()
		},
	}

	res := buildDeadline(t, 4*time.Minute, func() core.Result {
		return core.Build(bs, scr, d, chaosOptions(ls.Backend, reg))
	})
	close(stop)
	chaos.Wait()
	if res.Err != nil {
		t.Fatalf("build error: %v", res.Err)
	}
	if diff := linalg.MaxAbsDiff(ref, res.G); diff > 1e-9 {
		t.Fatalf("|G - serial| = %g after kill/restart chaos", diff)
	}
	if got := reg.Snapshot().TasksTotal; got != ns*ns {
		t.Fatalf("tasks_total = %d, want ns^2 = %d (lost or double-counted tasks)", got, ns*ns)
	}
	var replayed, dups int64
	kills := 0
	cc.mu.Lock()
	for _, s := range cc.servers {
		st := s.Stats()
		replayed += st.Replayed
		dups += st.AccDups
	}
	kills = len(cc.retired)
	cc.mu.Unlock()
	if kills == 0 {
		t.Fatal("chaos plan killed no servers: the test proved nothing")
	}
	if replayed == 0 {
		t.Fatal("restarted servers replayed no journal records")
	}
	t.Logf("kill-restart: %d kills, %d records replayed, %d dup accs absorbed, recovery=%+v",
		kills, replayed, dups, res.Stats.Recovery)
}

// TestLoopbackStandbyPromotionBuildMatchesSerial kills a primary shard
// mid-build with no restart: the only way the build can complete — which
// it must, matching serial with exactly-once accounting — is the client
// promoting the hot standby behind the epoch fence. The kill lands in the
// second of three builds on one session, and the promotion must be
// charged to that build's Recovery.Failovers, not to the stats the pair
// was dialed with: 0, >= 1, 0.
func TestLoopbackStandbyPromotionBuildMatchesSerial(t *testing.T) {
	bs, scr, d := netSetup(t)
	ref := core.BuildSerial(bs, scr, d)
	ns := int64(bs.NumShells())

	cc := &chaosCluster{t: t, dir: t.TempDir(), session: 301}
	rpc := &metrics.RPC{}
	stop := make(chan struct{})
	var chaos sync.WaitGroup
	ls := &lazySession{t: t, up: func(grid *dist.Grid2D) (*netga.Session, error) {
		addrs, stdbyAddrs := cc.start(grid, 2, true)
		return netga.NewSession(netga.Config{Session: cc.session, RPC: rpc}, nil, "", addrs, stdbyAddrs), nil
	}}

	for build := 1; build <= 3; build++ {
		if build == 2 {
			// Kill primary 0 a third of the way into THIS build, measured in
			// the ops it served in build 1 — the fault-free dry build of the
			// same shape. Restart < 0: the slot never comes back; the standby
			// must.
			base := cc.ops(0)
			ops := func(k int) int64 { return cc.ops(k) - base }
			plan := fault.ServerKillPlan(43, 1, 1, base/3, base/3+1, -1)
			pace := &pacer{n: 1, due: func(int) bool { return ops(0) >= plan[0].AfterOps }}
			ls.pace = pace
			chaos.Add(1)
			go func() {
				defer chaos.Done()
				fault.RunServerKills(plan, ops, pace.fire(cc.kill), nil, stop)
			}()
		}
		reg := metrics.NewRegistry(4)
		res := buildDeadline(t, 4*time.Minute, func() core.Result {
			return core.Build(bs, scr, d, chaosOptions(ls.Backend, reg))
		})
		if build == 2 {
			close(stop)
			chaos.Wait()
		}
		if res.Err != nil {
			t.Fatalf("build %d error: %v", build, res.Err)
		}
		if diff := linalg.MaxAbsDiff(ref, res.G); diff > 1e-9 {
			t.Fatalf("build %d: |G - serial| = %g around the standby promotion", build, diff)
		}
		if got := reg.Snapshot().TasksTotal; got != ns*ns {
			t.Fatalf("build %d: tasks_total = %d, want ns^2 = %d (lost or double-counted tasks)", build, got, ns*ns)
		}
		if got := res.Stats.Recovery.Failovers; (got > 0) != (build == 2) {
			t.Fatalf("build %d reports %d failovers; the promotion happened in build 2", build, got)
		}
		t.Logf("build %d: recovery=%+v", build, res.Stats.Recovery)
	}
	st := cc.standbys[0].Stats()
	if st.Standby || st.Promotions != 1 || st.Epoch < 2 {
		t.Fatalf("standby 0 was not promoted: %+v", st)
	}
	if snap := rpc.Snapshot(); snap.Failovers == 0 {
		t.Fatalf("no failover recorded in RPC stats: %+v", snap)
	}
	t.Logf("promotion: standby={epoch:%d repl_applied:%d} rpc=%+v",
		st.Epoch, st.ReplApplied, rpc.Snapshot())
}
