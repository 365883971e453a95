package netga

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gtfock/internal/dist"
	"gtfock/internal/fault"
	"gtfock/internal/linalg"
	"gtfock/internal/metrics"
)

func TestProtoRoundTrip(t *testing.T) {
	req := request{
		Op: opAcc, Array: 1, Session: 7, ReqID: 42, Token: 99, SEpoch: 6, PGen: 12,
		Proc: 2, R0: 1, R1: 4, C0: 0, C1: 2, Alpha: -0.5,
		Msg:    "migrate session 7",
		Tokens: []uint64{1, 1 << 56, 0xfeedface},
		Data:   []float64{1.5, -2, 3.25, 0, 5, math.Pi},
	}
	var back request
	if err := decodeRequest(encodeRequest(nil, &req), &back); err != nil {
		t.Fatalf("decode request: %v", err)
	}
	if !reflect.DeepEqual(req, back) {
		t.Fatalf("request round trip: got %+v, want %+v", back, req)
	}
	// Bytes 26..34 are reserved (old clients put the worker epoch there):
	// whatever they hold is ignored.
	old := encodeRequest(nil, &req)
	old[26] = 3
	if err := decodeRequest(old, &back); err != nil || !reflect.DeepEqual(req, back) {
		t.Fatalf("reserved slot not ignored: %+v, %v", back, err)
	}
	resp := response{Status: statusErr, Dup: 1, ReqID: 42, SEpoch: 6, PGen: 12, Msg: "boom",
		Tokens: []uint64{3, 9}, Data: []float64{7, 8}}
	var rback response
	if err := decodeResponse(encodeResponse(nil, &resp), &rback); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if !reflect.DeepEqual(resp, rback) {
		t.Fatalf("response round trip: got %+v, want %+v", rback, resp)
	}
	if err := decodeRequest([]byte{1, 2, 3}, &back); err == nil {
		t.Fatal("short request frame must not decode")
	}
	var rreq request
	seq, err := decodeRecord(encodeRecord(nil, 17, &req), &rreq)
	if err != nil || seq != 17 {
		t.Fatalf("record round trip: seq=%d err=%v", seq, err)
	}
	if !reflect.DeepEqual(req, rreq) {
		t.Fatalf("record round trip: got %+v, want %+v", rreq, req)
	}
}

// Journaled records and peers carry op numbers, so an opcode keeps its
// value for good: 7 was the static membership-map query, is reserved, and
// is answered like any other op the server does not know.
func TestOpcodeValuesStable(t *testing.T) {
	got := []uint8{opHello, opGet, opPut, opAcc, opPing, opCheckpoint, opPromote, opSubscribe, opJoin, opLeave,
		opLease, opView, opFreeze, opMigrate, opSetGen, opPutBlob, opGetBlob, opBye}
	want := []uint8{1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("opcode values %v, want %v", got, want)
	}
	grid := dist.UniformGrid2D(1, 1, 2, 2)
	srv := NewServer(grid, []int{0})
	srv.handle(&request{Op: opHello, Session: 1, R0: 2, C0: 2, Msg: layoutMsg(grid)})
	for _, op := range []uint8{7, 200} {
		resp := srv.handle(&request{Op: op, Session: 1, R1: 1, C1: 1})
		if resp.Status != statusErr || !strings.Contains(resp.Msg, "unknown op") {
			t.Fatalf("op %d answered %d %q, want an unknown-op rejection", op, resp.Status, resp.Msg)
		}
	}
}

// startCluster brings up nservers loopback shard servers over grid and
// returns their addresses, the proc assignment, and a cleanup.
func startCluster(t *testing.T, grid *dist.Grid2D, nservers int) ([]string, []int, []*Server) {
	t.Helper()
	assign, hosted := SplitProcs(grid.NumProcs(), nservers)
	addrs := make([]string, nservers)
	servers := make([]*Server, nservers)
	for k := 0; k < nservers; k++ {
		servers[k] = NewServer(grid, hosted[k])
		addr, err := servers[k].Start("127.0.0.1:0")
		if err != nil {
			t.Fatalf("start server %d: %v", k, err)
		}
		addrs[k] = addr
		t.Cleanup(servers[k].Close)
	}
	return addrs, assign, servers
}

// tableKind brings up nservers loopback shards of one session-table
// policy, ready for a Dial over grid with the returned assignment. The
// behaviours both policies promise are asserted by one test body ranging
// over tables.
type tableKind struct {
	name  string
	start func(t *testing.T, grid *dist.Grid2D, nservers int) ([]string, []int, []*Server)
}

var (
	pinnedTable    = tableKind{"pinned", startCluster}
	admittingTable = tableKind{"admitting", func(t *testing.T, grid *dist.Grid2D, nservers int) ([]string, []int, []*Server) {
		addrs, servers := startMultiFleet(t, nservers, 0, 0)
		assign, _ := SplitProcs(grid.NumProcs(), nservers)
		return addrs, assign, servers
	}}
	tables = []tableKind{pinnedTable, admittingTable}
)

// forEachTable runs body as a subtest per session-table policy.
func forEachTable(t *testing.T, body func(t *testing.T, table tableKind)) {
	for _, table := range tables {
		t.Run(table.name, func(t *testing.T) { body(t, table) })
	}
}

func TestClientServerRoundTrip(t *testing.T) {
	grid := dist.UniformGrid2D(2, 2, 8, 8)
	addrs, assign, _ := startCluster(t, grid, 2)
	stats := dist.NewRunStats(4)
	c, err := Dial(grid, stats, addrs, assign, Config{Array: 0, Session: 1})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	m := linalg.NewMatrix(8, 8)
	for i := range m.Data {
		m.Data[i] = float64(i)
	}
	mustLoad(t, c, m)
	back := mustMatrix(t, c)
	if d := linalg.MaxAbsDiff(m, back); d != 0 {
		t.Fatalf("LoadMatrix/ToMatrix round trip differs by %g", d)
	}

	// No build issues a multi-owner op (core decomposes with grid.Patches
	// first), but the Get/Acc conveniences still do: a cross-owner Get must
	// reassemble patches from both servers.
	dst := make([]float64, 6*8)
	c.Get(0, 1, 7, 1, 7, dst, 8)
	for r := 1; r < 7; r++ {
		for cc := 1; cc < 7; cc++ {
			if got, want := dst[(r-1)*8+(cc-1)], m.At(r, cc); got != want {
				t.Fatalf("Get (%d,%d) = %g, want %g", r, cc, got, want)
			}
		}
	}
	if stats.Per[0].Calls != 4 || stats.Per[0].Bytes != 8*36 {
		t.Fatalf("Get charged rank 0 %d calls / %d bytes, want one call per owner patch", stats.Per[0].Calls, stats.Per[0].Bytes)
	}

	// A cross-owner Acc must land on both servers exactly once.
	src := make([]float64, 6*8)
	for i := range src {
		src[i] = 2
	}
	c.Acc(1, 1, 7, 1, 7, src, 8, 0.5)
	back = mustMatrix(t, c)
	for r := 0; r < 8; r++ {
		for cc := 0; cc < 8; cc++ {
			want := m.At(r, cc)
			if r >= 1 && r < 7 && cc >= 1 && cc < 7 {
				want++
			}
			if got := back.At(r, cc); got != want {
				t.Fatalf("after Acc (%d,%d) = %g, want %g", r, cc, got, want)
			}
		}
	}
}

// A retried Acc with the same idempotency token must be applied exactly
// once: the second delivery is acknowledged as a dup, not re-applied.
func TestAccTokenDedup(t *testing.T) { forEachTable(t, testAccTokenDedup) }

func testAccTokenDedup(t *testing.T, table tableKind) {
	grid := dist.UniformGrid2D(1, 1, 4, 4)
	addrs, assign, servers := table.start(t, grid, 1)
	c, err := Dial(grid, nil, addrs, assign, Config{Array: 1, Session: 5})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	req := request{
		Op: opAcc, Array: 1, Session: 5, Token: 1234, Proc: 0, Alpha: 1,
		R0: 0, R1: 4, C0: 0, C1: 4, Data: make([]float64, 16),
	}
	for i := range req.Data {
		req.Data[i] = 3
	}
	for i := 0; i < 3; i++ { // initial delivery + two "retries"
		req.ReqID = c.reqID.Add(1)
		resp, _, err := c.doRPC(0, firstPool(c), &req)
		if err != nil || resp.Status != statusOK {
			t.Fatalf("acc delivery %d: %v / %+v", i, err, resp)
		}
		if (i > 0) != (resp.Dup == 1) {
			t.Fatalf("delivery %d: dup=%d", i, resp.Dup)
		}
	}
	if st := servers[0].Stats(); st.AccApplied != 1 || st.AccDups != 2 {
		t.Fatalf("server stats: %+v, want 1 applied / 2 dups", st)
	}
	back := mustMatrix(t, c)
	for i, v := range back.Data {
		if v != 3 {
			t.Fatalf("element %d = %g, want 3 (exactly-once)", i, v)
		}
	}
}

// Concurrent ranks accumulating through injected resets, duplicated
// deliveries and slow links must still sum exactly once per Acc.
func TestChaosAccExactlyOnce(t *testing.T) {
	grid := dist.UniformGrid2D(2, 2, 12, 12)
	addrs, assign, servers := startCluster(t, grid, 2)
	inj := fault.New(fault.Config{
		Seed:         21,
		NetResetProb: 0.25,
		NetDupProb:   0.25,
		NetDelayProb: 0.1,
		NetDelayFor:  200 * time.Microsecond,
	})
	rpc := &metrics.RPC{}
	stats := dist.NewRunStats(4)
	c, err := Dial(grid, stats, addrs, assign, Config{Array: 1, Session: 2, RPC: rpc, Fault: inj})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	const perRank = 30
	var wg sync.WaitGroup
	for rank := 0; rank < 4; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			i, j := grid.Coords(rank)
			r0, r1 := grid.RowCuts[i], grid.RowCuts[i+1]
			c0, c1 := grid.ColCuts[j], grid.ColCuts[j+1]
			src := make([]float64, (r1-r0)*(c1-c0))
			for k := range src {
				src[k] = 1
			}
			for n := 0; n < perRank; n++ {
				if _, err := (dist.Retry{Backoff: time.Millisecond}).Acc(context.Background(), c, stats, nil, false,
					rank, 1, r0, r1, c0, c1, src, c1-c0, 1); err != nil {
					t.Errorf("rank %d acc %d: %v", rank, n, err)
					return
				}
			}
		}(rank)
	}
	wg.Wait()

	back := mustMatrix(t, c)
	for i, v := range back.Data {
		if v != perRank {
			t.Fatalf("element %d = %g, want %d: Acc lost or double-applied", i, v, perRank)
		}
	}
	snap := rpc.Snapshot()
	if snap.Resets == 0 || snap.DupSends == 0 || snap.Retries == 0 || snap.Reconnects == 0 {
		t.Fatalf("chaos did not exercise the fault paths: %+v", snap)
	}
	dups := servers[0].Stats().AccDups + servers[1].Stats().AccDups
	if dups == 0 {
		t.Fatal("no server-side dedup hits despite injected dups/resets")
	}
	if snap.LatencyNS.Count == 0 {
		t.Fatal("no RPC latency observations recorded")
	}
}

// Inside a partition window RPCs fail fast without touching the wire;
// once the window closes (and the consecutive cap stops new windows) the
// op completes. (What the retry loop does with a partitioned transport —
// budget, clean abandonment on a deadline — is the conformance table's.)
func TestPartitionWindowFailsFastThenHeals(t *testing.T) {
	grid := dist.UniformGrid2D(1, 1, 4, 4)
	addrs, assign, servers := startCluster(t, grid, 1)
	inj := fault.New(fault.Config{
		Seed:                    4,
		NetPartitionProb:        1,
		NetPartitionFor:         30 * time.Millisecond,
		MaxConsecutiveNetFaults: 2,
	})
	rpc := &metrics.RPC{}
	c, err := Dial(grid, nil, addrs, assign, Config{Array: 0, Session: 3, RPC: rpc, Fault: inj})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	// One attempt inside the window: failed fast, provably unsent.
	src := []float64{1, 1, 1, 1}
	if _, sent, err := c.TryAcc(0, 0, 0, 1, 0, 4, src, 4, 1); !errors.Is(err, ErrPartitioned) || sent {
		t.Fatalf("partitioned TryAcc: sent=%v err=%v, want unsent ErrPartitioned", sent, err)
	}
	if n := servers[0].Stats().Requests; n != 1 { // the hello
		t.Fatalf("a partitioned attempt reached the server (%d requests)", n)
	}

	// Generous retry budget: windows expire, the consecutive cap kicks
	// in, and the op heals.
	dst := make([]float64, 16)
	retries, err := dist.Retry{Attempts: 30, Backoff: 5 * time.Millisecond}.Get(context.Background(), c, nil, 0, 0, 4, 0, 4, dst, 4)
	if err != nil {
		t.Fatalf("Get after heal: %v", err)
	}
	if retries == 0 {
		t.Fatal("healed Get should have recorded retries")
	}
	if snap := rpc.Snapshot(); snap.Partitioned == 0 || snap.Retries == 0 {
		t.Fatalf("partitioned RPCs not counted: %+v", snap)
	}
}

// A new session id resets server arrays and dedup state; a geometry
// mismatch is rejected at Hello.
func TestSessionResetAndGeometryCheck(t *testing.T) {
	grid := dist.NewGrid2D(1, 2, []int{0, 4}, []int{0, 1, 4})
	addrs, assign, servers := startCluster(t, grid, 1)
	c1, err := Dial(grid, nil, addrs, assign, Config{Array: 0, Session: 10})
	if err != nil {
		t.Fatalf("dial 1: %v", err)
	}
	m := linalg.NewMatrix(4, 4)
	for i := range m.Data {
		m.Data[i] = 9
	}
	mustLoad(t, c1, m)
	c1.Close()

	// New session: state reset to zero.
	c2, err := Dial(grid, nil, addrs, assign, Config{Array: 0, Session: 11})
	if err != nil {
		t.Fatalf("dial 2: %v", err)
	}
	defer c2.Close()
	back := mustMatrix(t, c2)
	for i, v := range back.Data {
		if v != 0 {
			t.Fatalf("element %d = %g after session reset, want 0", i, v)
		}
	}
	if servers[0].Stats().Sessions != 2 {
		t.Fatalf("sessions = %d, want 2", servers[0].Stats().Sessions)
	}

	// A stale-session client is rejected per-request (c1's session died).
	req := request{Op: opGet, Session: 10, Proc: -1, R0: 0, R1: 1, C0: 0, C1: 1}
	req.ReqID = c2.reqID.Add(1)
	resp, _, err := c2.doRPC(-1, firstPool(c2), &req)
	if err != nil || resp.Status != statusErr {
		t.Fatalf("stale session request: err=%v resp=%+v, want statusErr", err, resp)
	}

	// Geometry mismatch is rejected at Dial time.
	wrong := dist.UniformGrid2D(1, 1, 5, 5)
	if _, err := Dial(wrong, nil, addrs, []int{0}, Config{Array: 0, Session: 12}); err == nil {
		t.Fatal("geometry mismatch must fail Dial")
	}

	// So is a grid with the server's dimensions but other cuts (a driver
	// started with a different -reorder or -grid): refused at Hello with
	// both layouts named, not mid-build on a patch that spans two owners,
	// and the session it would have replaced is untouched.
	for _, other := range []*dist.Grid2D{
		dist.NewGrid2D(1, 2, []int{0, 4}, []int{0, 2, 4}), // same shape, other column cut
		dist.NewGrid2D(2, 1, []int{0, 1, 4}, []int{0, 4}), // same size, other shape
	} {
		_, err := Dial(other, nil, addrs, assign, Config{Array: 0, Session: 12})
		if err == nil {
			t.Fatalf("hello with layout %s accepted by a server over %s", layoutMsg(other), layoutMsg(grid))
		}
		for _, want := range []string{"geometry mismatch", layoutMsg(other), layoutMsg(grid)} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("refusal %q does not name %q", err, want)
			}
		}
	}
	if n := servers[0].Stats().Sessions; n != 2 {
		t.Fatalf("refused hellos installed sessions: %d installs, want 2", n)
	}
}

// A pinned table acknowledges a Bye and releases nothing: its session
// lives until the next Hello replaces it, so Client.Bye is safe to call
// against either policy.
func TestByeToPinnedSessionIsAckedAndIgnored(t *testing.T) {
	grid := dist.UniformGrid2D(1, 1, 2, 2)
	addrs, assign, servers := startCluster(t, grid, 1)
	c, err := Dial(grid, nil, addrs, assign, Config{Array: 0, Session: 4})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	m := fill(2, 2, func(r, cc int) float64 { return float64(1 + r + cc) })
	mustLoad(t, c, m)
	if err := c.Bye(); err != nil {
		t.Fatalf("bye: %v", err)
	}
	if d := linalg.MaxAbsDiff(mustMatrix(t, c), m); d != 0 {
		t.Fatalf("session state off by %g after a Bye", d)
	}
	if st := servers[0].Stats(); st.SessionsClosed != 0 || st.SessionsOpen != 1 || st.Rejects != 0 {
		t.Fatalf("bye changed the pinned table: %+v", st)
	}
}

// Requests for blocks a server does not host, and patches that span two
// blocks, are rejected, catching routing bugs instead of silently serving
// zeros.
func TestUnhostedProcRejected(t *testing.T) { forEachTable(t, testUnhostedProcRejected) }

func testUnhostedProcRejected(t *testing.T, table tableKind) {
	grid := dist.UniformGrid2D(2, 1, 4, 4)
	// Shard 0 of 2 hosts proc 0 only; misroute proc 1's block to it.
	addrs, _, _ := table.start(t, grid, 2)
	c, err := Dial(grid, nil, addrs[:1], []int{0, 0}, Config{Array: 0, Session: 6})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	dst := make([]float64, 16)
	retries, err := getPatch(c, 0, 2, 4, 0, 4, dst, 4)
	if !errors.Is(err, dist.ErrRejected) || retries != 0 || !strings.Contains(err.Error(), "not hosted") {
		t.Fatalf("Get of an unhosted block: retries=%d err=%v, want an immediate rejection", retries, err)
	}
	if _, err := accPatch(c, 0, 2, 4, 0, 4, dst, 4, 1); !errors.Is(err, dist.ErrRejected) || !strings.Contains(err.Error(), "not hosted") {
		t.Fatalf("Acc into an unhosted block: %v, want an immediate rejection", err)
	}
	// TryGet addresses whatever patch it is given to the owner of its first
	// element: rows 1..3 cross the block boundary at row 2.
	if err := c.TryGet(0, 1, 3, 0, 4, dst, 4); !errors.Is(err, dist.ErrRejected) || !strings.Contains(err.Error(), "spans 2 owners") {
		t.Fatalf("Get of a patch spanning two blocks: %v, want a rejection", err)
	}
}
