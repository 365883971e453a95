package netga

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"gtfock/internal/dist"
	"gtfock/internal/linalg"
)

func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// restartServer brings a killed slot back on its previous address (the OS
// may briefly hold the port after an abrupt close).
func restartServer(t *testing.T, addr string, mk func() *Server) *Server {
	t.Helper()
	var lastErr error
	for i := 0; i < 200; i++ {
		s := mk()
		if _, err := s.Start(addr); err == nil {
			t.Cleanup(s.Close)
			return s
		} else {
			lastErr = err
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("restart on %s: %v", addr, lastErr)
	return nil
}

// rawAcc sends one Acc with an explicit idempotency token, retrying
// transport errors (a restarted server leaves dead idle conns behind).
func rawAcc(t *testing.T, c *Client, token uint64, val float64) *response {
	t.Helper()
	req := request{
		Op: opAcc, Array: c.cfg.Array, Session: c.cfg.Session, Token: token,
		Alpha: 1, R0: 0, R1: 1, C0: 0, C1: 1, Data: []float64{val},
	}
	var lastErr error
	for i := 0; i < 20; i++ {
		req.ReqID = c.reqID.Add(1)
		resp, _, err := c.doRPC(-1, firstPool(c), &req)
		if err == nil {
			if resp.Status != statusOK {
				t.Fatalf("raw acc rejected: %s", resp.Msg)
			}
			return resp
		}
		lastErr = err
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("raw acc: %v", lastErr)
	return nil
}

func fill(rows, cols int, f func(r, c int) float64) *linalg.Matrix {
	m := linalg.NewMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.Set(r, c, f(r, c))
		}
	}
	return m
}

// TestKillRestartRecoversState is the tentpole durability proof: a durable
// shard server is SIGKILLed (abrupt Close, no snapshot) and restarted on
// the same address; it must replay to its exact pre-crash state — arrays,
// session, and dedup table — and resume the session instead of resetting.
func TestKillRestartRecoversState(t *testing.T) {
	grid := dist.UniformGrid2D(1, 1, 6, 6)
	dir := t.TempDir()
	mk := func() *Server {
		return NewServer(grid, []int{0}, WithDurability(dir, 4), WithNoSync())
	}
	srv := mk()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(grid, nil, []string{addr}, []int{0}, Config{Array: 0, Session: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	mustLoad(t, c, fill(6, 6, func(r, cc int) float64 { return float64(r*6 + cc) }))
	src := fill(6, 6, func(r, cc int) float64 { return float64(r - cc) })
	for i := 0; i < 3; i++ {
		c.Acc(0, 0, 6, 0, 6, src.Data, 6, 0.5)
	}
	if resp := rawAcc(t, c, 777, 10); resp.Dup != 0 {
		t.Fatal("first delivery of token 777 deduplicated")
	}
	want := mustMatrix(t, c)

	srv.Kill()
	srv2 := restartServer(t, addr, mk)

	st := srv2.Stats()
	if st.Replayed == 0 {
		t.Fatalf("restart replayed no journal records: %+v", st)
	}
	if got := mustMatrix(t, c); !reflect.DeepEqual(got.Data, want.Data) {
		t.Fatalf("restarted server state differs from pre-crash state (max diff %g)",
			linalg.MaxAbsDiff(want, got))
	}
	// The retry of an Acc acknowledged before the crash must dedup: the
	// token survived the restart.
	if resp := rawAcc(t, c, 777, 10); resp.Dup != 1 {
		t.Fatal("token 777 lost across restart: duplicate Acc would have landed")
	}

	// Rejoin handshake: a client re-Helloing the recovered session resumes
	// it — no reset, state intact. A different session still resets.
	c2, err := Dial(grid, nil, []string{addr}, []int{0}, Config{Array: 0, Session: 7})
	if err != nil {
		t.Fatalf("rejoin dial: %v", err)
	}
	defer c2.Close()
	if st := srv2.Stats(); st.Sessions != 0 {
		t.Fatalf("rejoin with the recovered session reset it (%d resets)", st.Sessions)
	}
	if got := mustMatrix(t, c2); !reflect.DeepEqual(got.Data, want.Data) {
		t.Fatal("state lost on session rejoin")
	}
	c3, err := Dial(grid, nil, []string{addr}, []int{0}, Config{Array: 0, Session: 8})
	if err != nil {
		t.Fatalf("new-session dial: %v", err)
	}
	defer c3.Close()
	if st := srv2.Stats(); st.Sessions != 1 {
		t.Fatalf("new session did not reset: %+v", st)
	}
	if got := mustMatrix(t, c3); linalg.MaxAbsDiff(got, linalg.NewMatrix(6, 6)) != 0 {
		t.Fatal("new session did not zero the arrays")
	}
}

// TestDedupEvictionAtCheckpointOnly is the bounded-dedup-table proof:
// tokens are never evicted mid-epoch, survive one full checkpoint
// generation (so any retry of an op that completed before the checkpoint
// still dedups — no duplicate Acc can land), and are dropped after two.
func TestDedupEvictionAtCheckpointOnly(t *testing.T) {
	forEachTable(t, testDedupEvictionAtCheckpointOnly)
}

func testDedupEvictionAtCheckpointOnly(t *testing.T, table tableKind) {
	grid := dist.UniformGrid2D(1, 1, 4, 4)
	addrs, assign, servers := table.start(t, grid, 1)
	srv := servers[0]
	c, err := Dial(grid, nil, addrs, assign, Config{Array: 1, Session: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if resp := rawAcc(t, c, 555, 3); resp.Dup != 0 {
		t.Fatal("first delivery deduplicated")
	}
	if resp := rawAcc(t, c, 555, 3); resp.Dup != 1 {
		t.Fatal("immediate retry not deduplicated")
	}
	for i := uint64(0); i < 50; i++ {
		rawAcc(t, c, 1000+i, 1)
	}
	if st := srv.Stats(); st.TokensEvicted != 0 {
		t.Fatalf("%d tokens evicted mid-epoch (must only happen at a checkpoint)", st.TokensEvicted)
	}

	// One checkpoint: 555 moves to the previous generation but is still
	// held — the legal worst-case retry window for an op that completed
	// just before the checkpoint.
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if resp := rawAcc(t, c, 555, 3); resp.Dup != 1 {
		t.Fatal("duplicate Acc landed one generation after completion")
	}
	// The post-checkpoint retry re-marked 555 into the current generation;
	// it takes two more rotations to age it out entirely.
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.TokensEvicted == 0 {
		t.Fatalf("no tokens evicted after three checkpoints: %+v", st)
	}
	if st.Checkpoints != 3 {
		t.Fatalf("checkpoints = %d, want 3", st.Checkpoints)
	}
	if st.AccApplied != 1+50 || st.AccDups != 2 {
		t.Fatalf("applied %d accs and absorbed %d repeats, want 51 and 2", st.AccApplied, st.AccDups)
	}
	// Exactly-once held throughout: the cell accumulated 3 exactly once.
	if got := mustMatrix(t, c).At(0, 0); got != 3+50 {
		t.Fatalf("cell (0,0) = %g, want %g", got, 3.0+50)
	}
}

// TestGracefulShutdownFlushesSnapshot: Shutdown drains, takes a final
// snapshot and truncates the journal, so the next start replays nothing.
func TestGracefulShutdownFlushesSnapshot(t *testing.T) {
	grid := dist.UniformGrid2D(1, 1, 4, 4)
	dir := t.TempDir()
	mk := func() *Server {
		return NewServer(grid, []int{0}, WithDurability(dir, -1), WithNoSync())
	}
	srv := mk()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(grid, nil, []string{addr}, []int{0}, Config{Array: 0, Session: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustLoad(t, c, fill(4, 4, func(r, cc int) float64 { return float64(r*4+cc) + 0.5 }))
	want := mustMatrix(t, c)

	srv.Shutdown(2 * time.Second)
	if fi, err := os.Stat(filepath.Join(dir, snapshotFile)); err != nil || fi.Size() == 0 {
		t.Fatalf("shutdown left no snapshot: %v", err)
	}
	if fi, err := os.Stat(filepath.Join(dir, journalFile)); err != nil || fi.Size() != 0 {
		t.Fatalf("shutdown did not truncate the journal (size %d, err %v)", fi.Size(), err)
	}

	srv2 := restartServer(t, addr, mk)
	if st := srv2.Stats(); st.Replayed != 0 {
		t.Fatalf("clean restart replayed %d records, want 0 (snapshot covers all)", st.Replayed)
	}
	if got := mustMatrix(t, c); !reflect.DeepEqual(got.Data, want.Data) {
		t.Fatal("state differs after graceful restart")
	}
}

// TestStandbyPromotionPreservesState: a hot standby mirrors the primary
// (semi-sync); the primary dies and the fleet's lease detector, the one
// promoter, promotes the standby behind the epoch fence; the client only
// learns the new address from the view, and every acknowledged op —
// before and after the promotion — lands exactly once.
func TestStandbyPromotionPreservesState(t *testing.T) {
	grid := dist.UniformGrid2D(1, 1, 6, 6)
	clock := newFakeClock()
	f := startFleet(t, grid, FleetConfig{LeaseTTL: time.Second, SweepEvery: time.Hour, Clock: clock.Now})
	prim := startElastic(t, grid)
	stdby := startElastic(t, grid, WithStandby(prim.Addr()))
	paddr, saddr := prim.Addr(), stdby.Addr()
	waitFor(t, 5*time.Second, func() bool {
		prim.mu.Lock()
		defer prim.mu.Unlock()
		return prim.sub != nil
	}, "standby subscription")
	mustOK(t, fleetCall(t, f.Addr(), opJoin, Member{ID: 1, Addr: paddr, Standby: saddr, Epoch: 1}), "join")
	if err := f.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	c, err := DialFleet(grid, nil, f.Addr(), Config{Array: 0, Session: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	base := fill(6, 6, func(r, cc int) float64 { return float64(r + cc) })
	mustLoad(t, c, base)
	waitFor(t, 5*time.Second, func() bool {
		stdby.mu.Lock()
		defer stdby.mu.Unlock()
		return stdby.pin.id == 5
	}, "standby state sync")

	src := fill(6, 6, func(r, cc int) float64 { return float64(r*6+cc) / 3 })
	c.Acc(0, 0, 6, 0, 6, src.Data, 6, 2) // replicated semi-sync before the ack returns

	prim.Kill()
	clock.Advance(1100 * time.Millisecond) // the member's lease expires
	f.kickEngine()
	waitFor(t, 5*time.Second, func() bool { return f.Stats().Promotions == 1 }, "fleet promotion")
	if rt := c.router; rt.addr(0) != paddr {
		t.Fatalf("router moved slot 0 to %s before any op failed", rt.addr(0))
	}
	// The Acc fails on the dead primary, refreshes the view and lands on
	// the standby. An ambiguous Acc retries to resolution, so a client
	// that never learned the new address would retry forever.
	landed := make(chan struct{})
	go func() {
		c.Acc(0, 0, 6, 0, 6, src.Data, 6, 3)
		close(landed)
	}()
	select {
	case <-landed:
	case <-time.After(10 * time.Second):
		t.Fatal("Acc after the promotion never landed: the client did not follow the view to the standby")
	}

	want := fill(6, 6, func(r, cc int) float64 {
		return base.At(r, cc) + 5*src.At(r, cc)
	})
	if got := mustMatrix(t, c); !reflect.DeepEqual(got.Data, want.Data) {
		t.Fatalf("post-promotion state wrong (max diff %g)", linalg.MaxAbsDiff(want, got))
	}
	if c.router.addr(0) != saddr {
		t.Fatalf("router still routes slot 0 to %s, want standby %s", c.router.addr(0), saddr)
	}
	st := stdby.Stats()
	if st.Standby || st.Epoch != 2 || st.Promotions != 1 {
		t.Fatalf("standby not promoted once at epoch 2: %+v", st)
	}

	// Split-brain fence: a request stamped with the superseded epoch is
	// rejected without being applied, and re-promoting at a stale fence
	// fails outright.
	fenced := stdby.handle(&request{
		Op: opGet, Array: 0, Session: 5, SEpoch: 1, R0: 0, R1: 1, C0: 0, C1: 1,
	})
	if fenced.Status != statusRetry {
		t.Fatalf("stale-epoch op got status %d, want fenced retry", fenced.Status)
	}
	if stale := stdby.handle(&request{Op: opPromote, SEpoch: 1}); stale.Status != statusErr {
		t.Fatalf("stale promotion got status %d, want reject", stale.Status)
	}
	if stdby.Stats().FencedOps == 0 {
		t.Fatal("epoch fence never fired")
	}
}

// TestConcurrentPromoteOnceAtAnEpoch: opPromote is idempotent at an
// epoch. Racing promotions of one standby to epoch 2 all succeed, the
// standby is promoted once, and a retry after the fact is acknowledged
// without a second promotion; the fleet's retried promotion whose ack was
// lost relies on this.
func TestConcurrentPromoteOnceAtAnEpoch(t *testing.T) {
	grid := dist.UniformGrid2D(1, 1, 4, 4)
	prim := NewServer(grid, []int{0})
	paddr, err := prim.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(prim.Close)
	sb := NewServer(grid, []int{0}, WithStandby(paddr))
	sbaddr, err := sb.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sb.Close)
	waitFor(t, 5*time.Second, func() bool {
		prim.mu.Lock()
		defer prim.mu.Unlock()
		return prim.sub != nil
	}, "standby subscription")
	prim.Kill()

	const racers = 8
	errs := make(chan error, racers)
	for i := 0; i < racers; i++ {
		go func() {
			resp, err := oneShotRPC(sbaddr, &request{Op: opPromote, SEpoch: 2}, time.Second)
			if err == nil && resp.Status != statusOK {
				err = fmt.Errorf("status %d: %s", resp.Status, resp.Msg)
			}
			errs <- err
		}()
	}
	for i := 0; i < racers; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("promotion at epoch 2 refused: %v", err)
		}
	}
	if resp := sb.handle(&request{Op: opPromote, SEpoch: 2}); resp.Status != statusOK {
		t.Fatalf("retried promotion at the done epoch got status %d (%s)", resp.Status, resp.Msg)
	}
	if st := sb.Stats(); st.Standby || st.Epoch != 2 || st.Promotions != 1 {
		t.Fatalf("after %d racing promotions and a retry: %+v, want one promotion to epoch 2", racers, st)
	}
}
