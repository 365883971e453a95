package netga_test

import (
	"fmt"
	"math/rand"
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

// Fault kinds of the sweep's plans (fault.Event.Kind).
const (
	evKill    = iota // SIGKILL a shard primary or fleet member: no drain
	evRestart        // bring a killed static shard back on its address and journal
	evJoin           // bring a spare into the fleet
	evLeave          // start a fleet member's graceful exit
)

// Cluster shapes of the sweep (seed%3).
const (
	topoRestart = iota // two durable shards, each killed and restarted in place
	topoStandby        // a two-member fleet with hot standbys, one primary killed for good
	topoFleet          // a three-member elastic fleet with a spare: join, leave, kill
)

// chaosMixes are the sweep's network mixes (seed/3%2): lossy links, and
// partition windows with worker crashes before the flush.
var chaosMixes = []fault.Config{
	{NetResetProb: 0.15, NetDupProb: 0.2, NetDelayProb: 0.1, NetDelayFor: 500 * time.Microsecond},
	{NetResetProb: 0.05, NetPartitionProb: 0.08, NetPartitionFor: 120 * time.Millisecond,
		MaxConsecutiveNetFaults: 2, CrashBeforeFlush: 0.15},
}

// chaosSeeds is the sweep's seed list. Seeds 0-5 cover every topology x
// mix pair; a failing seed replays alone with -run 'TestChaosSweep/seed=N'.
var chaosSeeds = []int64{0, 1, 2, 3, 4, 5}

// tickedBackend ticks the chaos schedule once per one-sided op attempt, so
// an event fires inside the op that reaches its count.
type tickedBackend struct {
	dist.Backend
	s *fault.Schedule
}

func (b tickedBackend) TryGet(proc, r0, r1, c0, c1 int, dst []float64, ld int) error {
	b.s.Tick()
	return b.Backend.TryGet(proc, r0, r1, c0, c1, dst, ld)
}

func (b tickedBackend) TryAcc(proc int, token uint64, r0, r1, c0, c1 int, src []float64, ld int, alpha float64) (uint64, bool, error) {
	b.s.Tick()
	return b.Backend.TryAcc(proc, token, r0, r1, c0, c1, src, ld, alpha)
}

// TestChaosSweepBuildMatchesSerial is the chaos proof of the network
// transport: runSweepSeed for every seed of chaosSeeds. Static shards
// killed and restarted, a primary killed for its standby, and an elastic
// fleet's joins, leaves and kills, each under a network mix, must match
// the serial oracle with every task counted once, and only the killed
// member's standby is promoted. It runs under -race in `make race` (`go
// test -race ./internal/net/` alone, ≈ 21 s on a 2-CPU box), and 20
// times over in `make e2e-flake`.
func TestChaosSweepBuildMatchesSerial(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runSweepSeed(t, seed) })
	}
}

// The scenario tests pin one seed each beyond chaosSeeds, keeping the
// names under which these scenarios have always been reported.

// TestLoopbackChaosBuildMatchesSerial runs each network mix over the
// restart topology.
func TestLoopbackChaosBuildMatchesSerial(t *testing.T) {
	t.Run("reset-dup-slowlink", func(t *testing.T) { runSweepSeed(t, 6) })
	t.Run("partition-degradation", func(t *testing.T) { runSweepSeed(t, 9) })
}

// TestLoopbackKillRestartBuildMatchesSerial kills both static shards and
// restarts them on their address and journal.
func TestLoopbackKillRestartBuildMatchesSerial(t *testing.T) { runSweepSeed(t, 12) }

// TestLoopbackStandbyPromotionBuildMatchesSerial kills a shard primary for
// good, so its hot standby takes over.
func TestLoopbackStandbyPromotionBuildMatchesSerial(t *testing.T) { runSweepSeed(t, 7) }

// TestElasticChurnBuildMatchesSerial takes a fleet through a join, a
// leave and a kill.
func TestElasticChurnBuildMatchesSerial(t *testing.T) { runSweepSeed(t, 8) }

// runSweepSeed runs one seed of the chaos sweep: a topology (seed%3) under
// a network mix (seed/3%2) runs three builds on one session. Build 1
// measures the op count. Build 2 carries a plan of kills, restarts, joins
// and leaves drawn over that count and fired in the ops that reach them,
// with the mix's worker crashes on top. Both run under a budget that
// rides out a kill. Build 3 shows the session healthy under the tight
// budget of a build without kills: under the mix on the restart topology,
// fault-free on the others. Every build must match BuildSerial to 1e-9,
// count every task exactly once (tasks_total == ns^2). On the fleet
// topologies no standby is promoted by the end of build 1, and by the end
// of build 3 the killed member's standby was promoted exactly once, to
// epoch 2, and no other: the fleet's lease detector is the one promoter,
// and the mixes' resets and partitions never move it.
func runSweepSeed(t *testing.T, seed int64) {
	bs, scr, d := netSetup(t)
	ref := core.BuildSerial(bs, scr, d)
	ns := int64(bs.NumShells())
	topo, mix := seed%3, chaosMixes[seed/3%2]
	mix.Seed = seed
	inj := fault.New(mix)
	rpc := &metrics.RPC{}
	cfg := netga.Config{Session: 1, RPC: rpc, Fault: inj}
	targets := rand.New(rand.NewSource(seed)).Perm(3)

	var (
		ls     = &lazySession{t: t}
		events []fault.Event
		fire   func(fault.Event)
		check  func()
		stdbys []*netga.Server // the fleet topologies' hot standbys
	)
	switch topo {
	case topoRestart:
		cc := &chaosCluster{t: t, dir: t.TempDir()}
		ls.up = func(grid *dist.Grid2D) (*netga.Session, error) {
			return netga.NewSession(cfg, nil, "", cc.start(grid, 2)), nil
		}
		a, b := targets[0]%2, 1-targets[0]%2
		events = []fault.Event{{Kind: evKill, Target: a}, {Kind: evRestart, Target: a},
			{Kind: evKill, Target: b}, {Kind: evRestart, Target: b}}
		fire = func(e fault.Event) {
			if e.Kind == evKill {
				cc.kill(e.Target)
			} else {
				cc.restart(e.Target)
			}
		}
		check = func() { cc.checkReplayed(t) }
	case topoStandby, topoFleet:
		fc := &fleetCluster{t: t, dir: t.TempDir(), ttl: 400 * time.Millisecond}
		members, spares, killed := 2, 0, targets[0]%2
		events = []fault.Event{{Kind: evKill, Target: killed}}
		if topo == topoFleet {
			leaver := targets[0]
			members, spares, killed = 3, 1, targets[1]
			events = []fault.Event{{Kind: evJoin, Target: 0}, {Kind: evLeave, Target: leaver},
				{Kind: evKill, Target: killed}}
		}
		ls.up = func(grid *dist.Grid2D) (*netga.Session, error) {
			fc.start(grid, members, spares)
			stdbys = fc.stdbys
			return netga.NewSession(cfg, nil, fc.fleet.Addr(), nil), nil
		}
		fire = func(e fault.Event) {
			switch e.Kind {
			case evJoin:
				fc.join(e.Target)
			case evLeave:
				fc.leave(e.Target)
			case evKill:
				fc.kill(e.Target)
			}
		}
		check = func() {
			checkPromoted(t, stdbys, killed)
			if topo == topoFleet {
				fc.checkChurn(t, ls.sess, rpc)
			}
		}
	}

	fired, n := 0, int64(0) // events fired; build 1's op count
	for build := 1; build <= 3; build++ {
		switch build {
		case 2:
			plan := fault.Plan(seed, events, n/4, n/2)
			t.Logf("plan over %d ops: %+v", n, plan)
			ls.sched = fault.NewSchedule(plan, func(e fault.Event) { fire(e); fired++ })
		case 3:
			ls.sched = nil
			if topo != topoRestart {
				inj.Disarm()
			}
		}
		// Leases and retry budgets long enough to ride out a kill.
		reg := metrics.NewRegistry(4)
		opt := core.Options{
			Prow: 2, Pcol: 2,
			Backend:  ls.Backend,
			LeaseTTL: 300 * time.Millisecond,
			Retry:    dist.Retry{Attempts: 10, Backoff: 2 * time.Millisecond, WallCap: 500 * time.Millisecond},
			Metrics:  reg,
		}
		if build == 3 {
			// The tight budget of a build with no kills. Under partitions
			// it often spends the recovery rounds that disarm the mix, so
			// it runs after the build that needs the mix armed, and it
			// runs the mix only on the restart topology, as the loopback
			// chaos test always has.
			opt.LeaseTTL = 150 * time.Millisecond
			opt.Retry = dist.Retry{Attempts: 6, Backoff: time.Millisecond, WallCap: 300 * time.Millisecond}
		}
		if build > 1 {
			opt.Fault = inj // the mix's worker crashes
		}
		res := buildDeadline(t, 4*time.Minute, func() core.Result { return core.Build(bs, scr, d, opt) })
		if res.Err != nil {
			t.Fatalf("build %d: %v", build, res.Err)
		}
		if diff := linalg.MaxAbsDiff(ref, res.G); diff > 1e-9 {
			t.Fatalf("build %d: |G - serial| = %g", build, diff)
		}
		if got := reg.Snapshot().TasksTotal; got != ns*ns {
			t.Fatalf("build %d: tasks_total = %d, want ns^2 = %d (lost or double-counted tasks)", build, got, ns*ns)
		}
		switch build {
		case 1:
			checkPromoted(t, stdbys, -1)
			// n is the build's calls for one run of every task, at most:
			// a partition can abandon a worker, and the tasks re-run
			// after it charge their calls again. The abandoned worker's
			// own calls count too, so the reassigned tasks join the
			// divisor and n stays below what build 2 issues.
			var calls, tasks int64
			for _, p := range res.Stats.Per {
				calls, tasks = calls+p.Calls, tasks+p.TasksRun
			}
			n = calls * ns * ns / (tasks + res.Stats.Recovery.TasksReassigned)
			if snap := rpc.Snapshot(); topo == topoRestart && snap.Retries == 0 {
				t.Fatalf("build 1: the network mix caused no retries: %+v", snap)
			}
		case 2:
			if fired != len(events) {
				t.Fatalf("build 2 fired %d of %d events", fired, len(events))
			}
		}
		if build < 3 && !inj.Armed() {
			t.Fatalf("build %d ran %d recovery rounds and disarmed the network mix", build, res.Stats.Recovery.Rounds)
		}
		t.Logf("build %d: recovery=%+v", build, res.Stats.Recovery)
	}
	check()
}

// chaosCluster is the static-shard harness: durable shard servers whose
// slots can be SIGKILLed (abrupt Close) and restarted on the same address
// and journal directory mid-build. Its events
// run one at a time under the schedule's lock, and the checks after the
// builds have returned.
type chaosCluster struct {
	t    *testing.T
	grid *dist.Grid2D
	dir  string

	hosted  [][]int
	addrs   []string
	servers []*netga.Server // current incarnation per slot
	retired []*netga.Server // killed incarnations
}

func (cc *chaosCluster) slotDir(k int) string {
	return filepath.Join(cc.dir, fmt.Sprintf("s%d", k))
}

func (cc *chaosCluster) start(grid *dist.Grid2D, nservers int) []string {
	cc.grid = grid
	_, cc.hosted = netga.SplitProcs(grid.NumProcs(), nservers)
	cc.addrs = make([]string, nservers)
	cc.servers = make([]*netga.Server, nservers)
	for k := range cc.servers {
		srv := netga.NewServer(grid, cc.hosted[k], netga.WithDurability(cc.slotDir(k), 64), netga.WithNoSync())
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			cc.t.Fatalf("start server %d: %v", k, err)
		}
		cc.addrs[k], cc.servers[k] = addr, srv
	}
	cc.t.Cleanup(cc.closeAll)
	return cc.addrs
}

func (cc *chaosCluster) closeAll() {
	for _, s := range append(append([]*netga.Server{}, cc.servers...), cc.retired...) {
		s.Close()
	}
}

func (cc *chaosCluster) kill(k int) {
	cc.retired = append(cc.retired, cc.servers[k])
	cc.servers[k].Kill()
}

func (cc *chaosCluster) restart(k int) {
	srv := netga.NewServer(cc.grid, cc.hosted[k], netga.WithDurability(cc.slotDir(k), 64), netga.WithNoSync())
	var err error
	for i := 0; i < 400; i++ {
		if _, err = srv.Start(cc.addrs[k]); err == nil {
			cc.servers[k] = srv
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	cc.t.Errorf("restart slot %d on %s: %v", k, cc.addrs[k], err)
}

// checkReplayed asserts that servers were killed and that the restarted
// incarnations rebuilt their state from the journal.
func (cc *chaosCluster) checkReplayed(t *testing.T) {
	var replayed int64
	for _, s := range cc.servers {
		replayed += s.Stats().Replayed
	}
	if len(cc.retired) == 0 || replayed == 0 {
		t.Fatalf("%d kills, %d journal records replayed: the restarts recovered nothing", len(cc.retired), replayed)
	}
}

// fleetCluster is the elastic-fleet harness: a fleet coordinator, durable
// members with hot standbys, and prepared spares that can join mid-build.
// Members carry no static hosting — every block they serve arrived by
// fleet migration.
type fleetCluster struct {
	t    *testing.T
	grid *dist.Grid2D
	dir  string
	ttl  time.Duration

	fleet   *netga.Fleet
	servers []*netga.Server // member index -> its first primary
	stdbys  []*netga.Server // member index -> hot standby
	spares  []*netga.Server // prepared join targets

	mu  sync.Mutex           // guards fms: the rejoin replaces the killed member's entry
	fms []*netga.FleetMember // member index -> membership handle, then joined spares

	stop   chan struct{}  // closed by closeAll: the rejoin gives up
	rejoin sync.WaitGroup // the killed member's rejoin; closeAll waits for it
}

// start brings up the coordinator, nmembers durable members (each with a
// hot standby) and nspares idle spare servers, then waits for the
// bootstrap migration to place every block.
func (fc *fleetCluster) start(grid *dist.Grid2D, nmembers, nspares int) {
	fc.grid, fc.stop = grid, make(chan struct{})
	f := netga.NewFleet(grid, netga.FleetConfig{LeaseTTL: fc.ttl})
	if _, err := f.Start("127.0.0.1:0"); err != nil {
		fc.t.Fatalf("start fleet: %v", err)
	}
	fc.fleet = f
	durable := func(name string) *netga.Server {
		return netga.NewServer(grid, nil, netga.WithDurability(filepath.Join(fc.dir, name), 64), netga.WithNoSync())
	}
	for k := 0; k < nmembers; k++ {
		srv := durable(fmt.Sprintf("m%d", k))
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
		srv := durable(fmt.Sprintf("sp%d", k))
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
	// The rejoin stops while the fleet is still up: a rejoin under way
	// must not turn into "connection refused" reported after the test has
	// completed.
	close(fc.stop)
	fc.rejoin.Wait()
	fc.mu.Lock()
	all := append(append(append([]*netga.Server{}, fc.servers...), fc.stdbys...), fc.spares...)
	fms := append([]*netga.FleetMember{}, fc.fms...)
	fc.mu.Unlock()
	for _, fm := range fms {
		fm.Stop()
	}
	for _, s := range all {
		s.Close()
	}
	fc.fleet.Close()
}

// join brings spare i into the fleet as a new member; the fleet migrates
// a share of the blocks onto it.
func (fc *fleetCluster) join(i int) {
	fm, err := netga.JoinFleet(fc.fleet.Addr(),
		netga.Member{ID: uint64(100 + i), Addr: fc.spares[i].Addr(), Epoch: 1}, fc.ttl, 0)
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

// kill SIGKILLs member i's primary and stops its heartbeat: once the lease
// expires, the fleet's detector promotes the hot standby (clients only
// retry, and learn the new address from the view). Once promoted, the
// standby rejoins the fleet
// as the member's next incarnation, so later placement legs address it.
// Rejoining BEFORE the promotion would be a deadlock: the fleet would
// adopt the standby address as primary with no standby left to promote.
func (fc *fleetCluster) kill(i int) {
	fc.mu.Lock()
	fm := fc.fms[i]
	fc.mu.Unlock()
	fm.Stop()
	fc.servers[i].Kill()
	killedAt := time.Now()
	fc.rejoin.Add(1)
	go func() {
		defer fc.rejoin.Done()
		sb := fc.stdbys[i]
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for st := sb.Stats(); st.Standby || st.Epoch < 2; st = sb.Stats() {
			select {
			case <-fc.stop:
				return
			case <-tick.C:
			}
		}
		fc.t.Logf("member %d's standby promoted %v after the kill", i, time.Since(killedAt).Round(time.Millisecond))
		fm, err := netga.JoinFleet(fc.fleet.Addr(), netga.Member{ID: uint64(i + 1), Addr: sb.Addr(),
			Epoch: sb.Stats().Epoch, Incarnation: 1}, fc.ttl, 0)
		if err != nil {
			fc.t.Errorf("rejoin promoted standby %d: %v", i, err)
			return
		}
		fc.mu.Lock()
		fc.fms[i] = fm
		fc.mu.Unlock()
	}()
}

// checkChurn asserts that each churn mechanism left its fingerprint — the
// spare joined, one member drained, blocks moved beyond the bootstrap
// placement — and that sess charges the maps published under it, one
// generation per migrated block, to the RPC counters once, when it closes.
func (fc *fleetCluster) checkChurn(t *testing.T, sess *netga.Session, rpc *metrics.RPC) {
	st := fc.fleet.Stats()
	if st.Joins < 4 || st.Leaves != 1 || st.BlocksMoved <= int64(fc.grid.NumProcs()) {
		t.Fatalf("fleet %+v: want >= 4 joins (3 initial + 1 spare), 1 leave, > %d blocks moved",
			st, fc.grid.NumProcs())
	}
	if got := rpc.Snapshot().BlocksMigrated; got != 0 {
		t.Fatalf("%d blocks charged as migrated before the session closed", got)
	}
	sess.Close(true)
	migrated := rpc.Snapshot().BlocksMigrated
	if migrated == 0 {
		t.Fatal("session saw no placement generation pass: churn published no new map")
	}
	sess.Close(true)
	if got := rpc.Snapshot().BlocksMigrated; got != migrated {
		t.Fatalf("blocks migrated charged twice: %d then %d", migrated, got)
	}
}

// checkPromoted asserts that the standby of the member killed for good
// took over behind the epoch fence exactly once, to epoch 2, and that no
// other standby was promoted (killed -1: none was).
func checkPromoted(t *testing.T, standbys []*netga.Server, killed int) {
	for k, sb := range standbys {
		st := sb.Stats()
		if k == killed && (st.Standby || st.Epoch != 2 || st.Promotions != 1) {
			t.Fatalf("standby %d of the killed primary was not promoted once to epoch 2: %+v", k, st)
		}
		if k != killed && (!st.Standby || st.Promotions != 0) {
			t.Fatalf("standby %d of a live primary was promoted: %+v", k, st)
		}
	}
}
