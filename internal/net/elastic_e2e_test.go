package netga_test

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gtfock/internal/core"
	"gtfock/internal/dist"
	"gtfock/internal/fault"
	"gtfock/internal/linalg"
	"gtfock/internal/metrics"
	netga "gtfock/internal/net"
)

// fleetCluster is the loopback harness for membership-churn chaos: an
// elastic fleet coordinator, durable shard members with hot standbys, and
// prepared spares that can join mid-build. Members carry no static
// hosting — every block they serve arrived by fleet migration.
type fleetCluster struct {
	t    *testing.T
	grid *dist.Grid2D
	dir  string
	ttl  time.Duration

	fleet *netga.Fleet

	mu      sync.Mutex
	servers []*netga.Server      // member index -> current serving incarnation
	stdbys  []*netga.Server      // member index -> hot standby (nil once consumed)
	fms     []*netga.FleetMember // member index -> membership handle
	spares  []*netga.Server      // prepared join targets
	extra   []*netga.Server      // everything else to close (killed primaries, joined spares)

	rejoins sync.WaitGroup // kill's rejoin goroutines; closeAll waits for them
}

func (fc *fleetCluster) slotDir(name string) string {
	return filepath.Join(fc.dir, name)
}

// start brings up the coordinator, nmembers durable members (each with a
// hot standby) and nspares idle spare servers, then waits for the
// bootstrap migration to place every block.
func (fc *fleetCluster) start(grid *dist.Grid2D, nmembers, nspares int) {
	fc.grid = grid
	f := netga.NewFleet(grid, netga.FleetConfig{LeaseTTL: fc.ttl})
	if _, err := f.Start("127.0.0.1:0"); err != nil {
		fc.t.Fatalf("start fleet: %v", err)
	}
	fc.fleet = f
	for k := 0; k < nmembers; k++ {
		srv := netga.NewServer(grid, nil,
			netga.WithDurability(fc.slotDir(fmt.Sprintf("m%d", k)), 64), netga.WithNoSync())
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			fc.t.Fatalf("start member %d: %v", k, err)
		}
		sb := netga.NewServer(grid, nil, netga.WithStandby(addr))
		sbaddr, err := sb.Start("127.0.0.1:0")
		if err != nil {
			fc.t.Fatalf("start standby %d: %v", k, err)
		}
		fm, err := netga.JoinFleet(f.Addr(),
			netga.Member{ID: uint64(k + 1), Addr: addr, Standby: sbaddr, Epoch: 1}, fc.ttl, 0)
		if err != nil {
			fc.t.Fatalf("join member %d: %v", k, err)
		}
		fc.servers = append(fc.servers, srv)
		fc.stdbys = append(fc.stdbys, sb)
		fc.fms = append(fc.fms, fm)
	}
	for k := 0; k < nspares; k++ {
		srv := netga.NewServer(grid, nil,
			netga.WithDurability(fc.slotDir(fmt.Sprintf("sp%d", k)), 64), netga.WithNoSync())
		if _, err := srv.Start("127.0.0.1:0"); err != nil {
			fc.t.Fatalf("start spare %d: %v", k, err)
		}
		fc.spares = append(fc.spares, srv)
	}
	if err := f.WaitConverged(15 * time.Second); err != nil {
		fc.t.Fatalf("bootstrap placement: %v", err)
	}
	fc.t.Cleanup(fc.closeAll)
}

func (fc *fleetCluster) closeAll() {
	// A promoted standby rejoins while the fleet is still up: a build that
	// ends before the rejoin must not turn it into "connection refused"
	// reported after the test has completed.
	fc.rejoins.Wait()
	fc.mu.Lock()
	var all []*netga.Server
	all = append(all, fc.servers...)
	all = append(all, fc.stdbys...)
	all = append(all, fc.spares...)
	all = append(all, fc.extra...)
	fms := append([]*netga.FleetMember{}, fc.fms...)
	fc.mu.Unlock()
	for _, fm := range fms {
		if fm != nil {
			fm.Stop()
		}
	}
	for _, s := range all {
		if s != nil {
			s.Close()
		}
	}
	fc.fleet.Close()
}

// join brings spare i into the fleet as a new member; the fleet migrates
// a share of the blocks onto it.
func (fc *fleetCluster) join(i int) {
	fc.mu.Lock()
	srv := fc.spares[i]
	id := uint64(100 + i)
	fc.mu.Unlock()
	fm, err := netga.JoinFleet(fc.fleet.Addr(),
		netga.Member{ID: id, Addr: srv.Addr(), Epoch: 1}, fc.ttl, 0)
	if err != nil {
		fc.t.Errorf("spare %d join: %v", i, err)
		return
	}
	fc.mu.Lock()
	fc.fms = append(fc.fms, fm)
	fc.mu.Unlock()
}

// leave starts member i's graceful exit; its server keeps serving until
// the fleet has drained its blocks to the survivors.
func (fc *fleetCluster) leave(i int) {
	fc.mu.Lock()
	fm := fc.fms[i]
	fc.mu.Unlock()
	if err := fm.Leave(); err != nil {
		fc.t.Errorf("member %d leave: %v", i, err)
	}
}

// kill SIGKILLs member i's primary and stops its heartbeat: the fleet's
// lease detector (or the client's failover path, whichever notices first)
// promotes the hot standby. Once promoted, the standby rejoins the fleet
// as the member's next incarnation so later placement legs address it.
// Rejoining BEFORE the promotion would be a deadlock: the fleet would
// adopt the standby address as primary with no standby left to promote.
func (fc *fleetCluster) kill(i int) {
	fc.mu.Lock()
	srv := fc.servers[i]
	sb := fc.stdbys[i]
	fm := fc.fms[i]
	fc.extra = append(fc.extra, srv)
	fc.fms[i] = nil
	fc.mu.Unlock()
	fm.Stop()
	srv.Kill()
	fc.rejoins.Add(1)
	go func() {
		defer fc.rejoins.Done()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			st := sb.Stats()
			if !st.Standby && st.Epoch >= 2 {
				fm, err := netga.JoinFleet(fc.fleet.Addr(),
					netga.Member{ID: uint64(i + 1), Addr: sb.Addr(), Epoch: st.Epoch, Incarnation: 1},
					fc.ttl, 0)
				if err != nil {
					fc.t.Errorf("rejoin promoted standby %d: %v", i, err)
					return
				}
				fc.mu.Lock()
				fc.fms[i] = fm
				fc.mu.Unlock()
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		fc.t.Errorf("standby %d was never promoted", i)
	}()
}

// TestElasticChurnBuildMatchesSerial is the elastic-fleet tentpole proof:
// a Fock build over a fleet whose membership changes underneath it — a
// new shard joins, a shard leaves gracefully, and a primary is killed
// outright — all mid-build on a deterministic churn schedule. The build
// must complete, match the serial oracle to 1e-9, and count every task
// exactly once: blocks migrated between shards carry their accumulated
// state and dedup tokens across every fenced cutover.
func TestElasticChurnBuildMatchesSerial(t *testing.T) {
	bs, scr, d := netSetup(t)
	ref := core.BuildSerial(bs, scr, d)
	ns := int64(bs.NumShells())

	// The churn window is drawn on a fault-free dry build over a fleet of
	// the same shape: its client RPC count is the build's traffic.
	dryFleet := &fleetCluster{t: t, dir: t.TempDir(), ttl: 400 * time.Millisecond}
	dryRPC := &metrics.RPC{}
	dryLS := &lazySession{t: t, up: func(grid *dist.Grid2D) (*netga.Session, error) {
		dryFleet.start(grid, 3, 1)
		return netga.NewSession(netga.Config{Session: 399, RPC: dryRPC}, nil, dryFleet.fleet.Addr(), nil, nil), nil
	}}
	if res := buildDeadline(t, time.Minute, func() core.Result {
		return core.Build(bs, scr, d, chaosOptions(dryLS.Backend, nil))
	}); res.Err != nil {
		t.Fatalf("dry build: %v", res.Err)
	}
	dry := dryRPC.Snapshot().Calls

	// One join, one leave, one kill, triggered by client RPC counts in the
	// first half of the dry build's traffic so each lands mid-build
	// deterministically per seed. Restart < 0: the killed primary never
	// returns; its standby must take over.
	plan := fault.MembershipChurnPlan(44, 3, 3, dry/4, dry/2, -1)

	fc := &fleetCluster{t: t, dir: t.TempDir(), ttl: 400 * time.Millisecond}
	rpc := &metrics.RPC{}
	reg := metrics.NewRegistry(4)
	stop := make(chan struct{})
	var chaos sync.WaitGroup
	ops := func() int64 { return rpc.Snapshot().Calls }
	pace := &pacer{n: len(plan), due: func(i int) bool { return ops() >= plan[i].AfterOps }}
	ls := &lazySession{t: t, pace: pace,
		up: func(grid *dist.Grid2D) (*netga.Session, error) {
			fc.start(grid, 3, 1)
			return netga.NewSession(netga.Config{Session: 400, RPC: rpc}, nil, fc.fleet.Addr(), nil, nil), nil
		},
		dialed: func() {
			chaos.Add(1)
			go func() {
				defer chaos.Done()
				fault.RunMembershipChurn(plan, ops, pace.fire(fc.join), pace.fire(fc.leave), pace.fire(fc.kill), nil, stop)
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
		t.Fatalf("|G - serial| = %g after membership churn", diff)
	}
	if got := reg.Snapshot().TasksTotal; got != ns*ns {
		t.Fatalf("tasks_total = %d, want ns^2 = %d (lost or double-counted tasks)", got, ns*ns)
	}

	// The churn plan for seed 44 joins spare 0, drains member 0, and kills
	// member 1; each mechanism must have left its fingerprint.
	st := fc.fleet.Stats()
	if st.Joins < 4 {
		t.Fatalf("fleet joins = %d, want >= 4 (3 initial + 1 spare)", st.Joins)
	}
	if st.Leaves != 1 {
		t.Fatalf("fleet leaves = %d, want 1", st.Leaves)
	}
	if st.BlocksMoved <= int64(fc.grid.NumProcs()) {
		t.Fatalf("blocks moved = %d, want > %d (churn must move beyond bootstrap)",
			st.BlocksMoved, fc.grid.NumProcs())
	}
	sb := fc.stdbys[1] // churn kill target for this seed
	sbst := sb.Stats()
	if sbst.Standby || sbst.Promotions < 1 || sbst.Epoch < 2 {
		t.Fatalf("killed member's standby was not promoted: %+v", sbst)
	}
	// The session charges the maps published under it — one generation per
	// migrated block — to the RPC counters, once, when it closes.
	if got := rpc.Snapshot().BlocksMigrated; got != 0 {
		t.Fatalf("%d blocks charged as migrated before the session closed", got)
	}
	ls.sess.Close(true)
	migrated := rpc.Snapshot().BlocksMigrated
	if migrated == 0 {
		t.Fatal("session saw no placement generation pass: churn published no new map")
	}
	ls.sess.Close(true)
	if got := rpc.Snapshot().BlocksMigrated; got != migrated {
		t.Fatalf("blocks migrated charged twice: %d then %d", migrated, got)
	}
	t.Logf("churn: fleet=%+v rpc=%+v standby={epoch:%d repl_applied:%d}",
		st, rpc.Snapshot(), sbst.Epoch, sbst.ReplApplied)
}
