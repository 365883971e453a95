package netga

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"gtfock/internal/dist"
	"gtfock/internal/linalg"
)

// fakeClock is an injectable time source so lease-expiry tests are
// deterministic: leases only expire when the test advances the clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// startFleet brings up a coordinator on loopback.
func startFleet(t *testing.T, grid *dist.Grid2D, cfg FleetConfig) *Fleet {
	t.Helper()
	f := NewFleet(grid, cfg)
	if _, err := f.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("start fleet: %v", err)
	}
	t.Cleanup(f.Close)
	return f
}

// startElastic brings up one shard server in elastic mode (no static
// hosting; blocks arrive by migration).
func startElastic(t *testing.T, grid *dist.Grid2D, opts ...ServerOption) *Server {
	t.Helper()
	s := NewServer(grid, nil, opts...)
	if _, err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("start server: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

// fleetCall runs one membership op directly (no heartbeat loop), so tests
// control exactly when each member's lease is renewed.
func fleetCall(t *testing.T, fleetAddr string, op uint8, m Member) *response {
	t.Helper()
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := oneShotRPC(fleetAddr, &request{Op: op, Msg: string(blob)}, 2*time.Second)
	if err != nil {
		t.Fatalf("fleet op %d: %v", op, err)
	}
	return resp
}

func mustOK(t *testing.T, resp *response, what string) {
	t.Helper()
	if resp.Status != statusOK {
		t.Fatalf("%s: status %d (%s)", what, resp.Status, resp.Msg)
	}
}

// Bootstrap + join: the first member gets every block as a pure install
// (no fence legs — nothing to fence — so the generation stays at 1); a
// second member joining then moves exactly the minimal set through the
// full freeze/install/fence/publish cutover, bumping the generation once
// per moved block.
func TestFleetBootstrapInstallsAllBlocks(t *testing.T) {
	grid := dist.UniformGrid2D(2, 2, 8, 8)
	fc := newFakeClock()
	f := startFleet(t, grid, FleetConfig{LeaseTTL: time.Second, SweepEvery: time.Hour, Clock: fc.Now})
	s1 := startElastic(t, grid)
	s2 := startElastic(t, grid)

	mustOK(t, fleetCall(t, f.Addr(), opJoin, Member{ID: 1, Addr: s1.Addr(), Epoch: 1}), "join 1")
	if err := f.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	v := f.View()
	if h := len(v.Placement.HostedBy(1)); h != 4 {
		t.Fatalf("solo member hosts %d blocks, want 4", h)
	}
	st := f.Stats()
	if st.BlocksMoved != 4 || st.PlacementGen != 1 {
		t.Fatalf("after bootstrap: moved=%d gen=%d, want 4 installs at gen 1", st.BlocksMoved, st.PlacementGen)
	}

	mustOK(t, fleetCall(t, f.Addr(), opJoin, Member{ID: 2, Addr: s2.Addr(), Epoch: 1}), "join 2")
	if err := f.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	v = f.View()
	if err := v.Placement.Validate(grid.NumProcs()); err != nil {
		t.Fatal(err)
	}
	if h1, h2 := len(v.Placement.HostedBy(1)), len(v.Placement.HostedBy(2)); h1 != 2 || h2 != 2 {
		t.Fatalf("post-join split %d/%d, want 2/2", h1, h2)
	}
	st = f.Stats()
	if st.Joins != 2 || st.BlocksMoved != 6 || st.PlacementGen != 3 {
		t.Fatalf("fleet stats after join rebalance: %+v", st)
	}
	ss1, ss2 := s1.Stats(), s2.Stats()
	if ss1.HostedProcs != 2 || ss1.BlocksIn != 4 || ss1.BlocksOut != 2 || ss1.Freezes != 2 {
		t.Fatalf("server 1: %+v", ss1)
	}
	if ss2.HostedProcs != 2 || ss2.BlocksIn != 2 {
		t.Fatalf("server 2: %+v", ss2)
	}
}

// Lease expiry with no standby marks the member dead and pins its blocks:
// the placement keeps routing to it (refusing to fabricate the state
// elsewhere) until the member rejoins at a higher incarnation.
func TestFleetExpiryPinsBlocksUntilRejoin(t *testing.T) {
	grid := dist.UniformGrid2D(2, 2, 8, 8)
	fc := newFakeClock()
	ttl := time.Second
	f := startFleet(t, grid, FleetConfig{LeaseTTL: ttl, SweepEvery: time.Hour, Clock: fc.Now})
	s1 := startElastic(t, grid)
	s2 := startElastic(t, grid)
	mustOK(t, fleetCall(t, f.Addr(), opJoin, Member{ID: 1, Addr: s1.Addr(), Epoch: 1}), "join 1")
	mustOK(t, fleetCall(t, f.Addr(), opJoin, Member{ID: 2, Addr: s2.Addr(), Epoch: 1}), "join 2")
	if err := f.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Member 1 heartbeats once mid-lease; member 2 never does. Advancing
	// past member 2's expiry (but not member 1's renewed one) and kicking
	// the engine makes the sweep deterministic: exactly one expiry.
	fc.Advance(600 * time.Millisecond)
	mustOK(t, fleetCall(t, f.Addr(), opLease, Member{ID: 1}), "lease 1")
	fc.Advance(500 * time.Millisecond)
	f.kickEngine()
	waitFor(t, 5*time.Second, func() bool { return f.Stats().Dead == 1 }, "member 2 declared dead")
	if st := f.Stats(); st.Expiries != 1 {
		t.Fatalf("expiries = %d, want 1", st.Expiries)
	}

	// Pinned: the dead member still owns its blocks in the published map.
	v := f.View()
	if err := v.Placement.Validate(grid.NumProcs()); err != nil {
		t.Fatal(err)
	}
	if h := len(v.Placement.HostedBy(2)); h != 2 {
		t.Fatalf("dead member hosts %d blocks in the view, want 2 (pinned)", h)
	}

	// A stale-incarnation heartbeat must not resurrect the lease.
	if resp := fleetCall(t, f.Addr(), opLease, Member{ID: 2}); resp.Status != statusOK {
		// Incarnation 0 equals the registered one, so this renewal is
		// legitimate and revives the member.
		t.Fatalf("same-incarnation lease renewal refused: %d (%s)", resp.Status, resp.Msg)
	}
	waitFor(t, 5*time.Second, func() bool { return f.Stats().Dead == 0 }, "member 2 revived")

	// And a rejoin at a higher incarnation (journal restart) also works.
	mustOK(t, fleetCall(t, f.Addr(), opJoin, Member{ID: 2, Addr: s2.Addr(), Epoch: 1, Incarnation: 1}), "rejoin 2")
	if st := f.Stats(); st.Rejoins < 1 {
		t.Fatalf("rejoins = %d, want >= 1", st.Rejoins)
	}
}

// Lease expiry of a member WITH a hot standby promotes the standby with
// an epoch-fenced opPromote, the fleet's alone: the view flips
// the member's address (same ID, bumped incarnation), the placement does
// not move a single block.
func TestFleetExpiryPromotesStandby(t *testing.T) {
	grid := dist.UniformGrid2D(2, 2, 8, 8)
	fc := newFakeClock()
	f := startFleet(t, grid, FleetConfig{LeaseTTL: time.Second, SweepEvery: time.Hour, Clock: fc.Now})
	s1 := startElastic(t, grid)
	p2 := startElastic(t, grid)
	sb2 := startElastic(t, grid, WithStandby(p2.Addr()))
	waitFor(t, 5*time.Second, func() bool {
		p2.mu.Lock()
		defer p2.mu.Unlock()
		return p2.sub != nil
	}, "standby subscription")

	mustOK(t, fleetCall(t, f.Addr(), opJoin, Member{ID: 1, Addr: s1.Addr(), Epoch: 1}), "join 1")
	mustOK(t, fleetCall(t, f.Addr(), opJoin,
		Member{ID: 2, Addr: p2.Addr(), Standby: sb2.Addr(), Epoch: 1}), "join 2")
	if err := f.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	before := f.View()

	p2.Kill()
	fc.Advance(600 * time.Millisecond)
	mustOK(t, fleetCall(t, f.Addr(), opLease, Member{ID: 1}), "lease 1")
	fc.Advance(500 * time.Millisecond)
	f.kickEngine()
	waitFor(t, 5*time.Second, func() bool { return f.Stats().Promotions == 1 }, "standby promotion")

	v := f.View()
	var m2 *Member
	for i := range v.Placement.Members {
		if v.Placement.Members[i].ID == 2 {
			m2 = &v.Placement.Members[i]
		}
	}
	if m2 == nil {
		t.Fatal("member 2 left the view")
	}
	if m2.Addr != sb2.Addr() || m2.Standby != "" || m2.Incarnation != 1 || m2.Epoch < 2 {
		t.Fatalf("member 2 after promotion: %+v", *m2)
	}
	ss := sb2.Stats()
	if ss.Standby || ss.Epoch < 2 || ss.Promotions != 1 {
		t.Fatalf("standby after promotion: %+v", ss)
	}
	// Same ID, new address: not a move.
	if mv := Moves(&before.Placement, &v.Placement); len(mv) != 0 {
		t.Fatalf("promotion moved blocks %v", mv)
	}
}

// Graceful leave drains every block off the leaver — with its D data
// intact on the survivor — and then removes it from the view.
func TestFleetGracefulLeaveDrains(t *testing.T) {
	grid := dist.UniformGrid2D(2, 2, 8, 8)
	f := startFleet(t, grid, FleetConfig{LeaseTTL: time.Second})
	s1 := startElastic(t, grid)
	s2 := startElastic(t, grid)
	fm1, err := JoinFleet(f.Addr(), Member{ID: 1, Addr: s1.Addr(), Epoch: 1}, time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fm1.Stop)
	fm2, err := JoinFleet(f.Addr(), Member{ID: 2, Addr: s2.Addr(), Epoch: 1}, time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fm2.Stop)
	if err := f.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	c, err := DialFleet(grid, dist.NewRunStats(grid.NumProcs()), f.Addr(), Config{Array: 0, Session: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := linalg.NewMatrix(8, 8)
	for i := range m.Data {
		m.Data[i] = float64(i) * 0.25
	}
	mustLoad(t, c, m)

	if err := fm2.Leave(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool {
		st := f.Stats()
		return st.Leaves == 1 && st.Members == 1
	}, "leaver drained and removed")
	if err := f.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	v := f.View()
	if h := len(v.Placement.HostedBy(1)); h != grid.NumProcs() {
		t.Fatalf("survivor hosts %d blocks, want %d", h, grid.NumProcs())
	}
	if v.Placement.Gen <= 1 {
		t.Fatalf("placement gen %d after a drain, want > 1 (fenced cutovers)", v.Placement.Gen)
	}
	// The drained blocks carried their data: reading back through the new
	// placement returns exactly what was loaded before the leave.
	back := mustMatrix(t, c)
	if d := linalg.MaxAbsDiff(m, back); d != 0 {
		t.Fatalf("matrix differs by %g after drain", d)
	}
	// BlocksIn on the survivor depends on how the two joins interleaved
	// with the engine (a solo bootstrap may have installed all four there
	// first), so only its lower bound is deterministic.
	ss := s1.Stats()
	if ss.HostedProcs != grid.NumProcs() || ss.BlocksIn < 4 {
		t.Fatalf("survivor stats: hosted=%d in=%d, want hosted=4 in>=4", ss.HostedProcs, ss.BlocksIn)
	}
	if out := s2.Stats().BlocksOut; out != 2 {
		t.Fatalf("leaver dropped %d blocks, want 2", out)
	}
}
