package netga

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gtfock/internal/dist"
	"gtfock/internal/fault"
	"gtfock/internal/linalg"
	"gtfock/internal/metrics"
)

// ErrPartitioned reports an RPC failed fast inside an injected partition
// window: nothing was sent, so the failure is provably clean.
var ErrPartitioned = errors.New("netga: partitioned from peer")

// errInjectedReset marks the ambiguous injected-reset outcome: the frame
// was sent and the conn torn down before the response. It classifies as a
// peer reset in the failure-cause counters, like the real thing.
var errInjectedReset = errors.New("netga: connection reset mid-RPC (injected)")

// classifyFailure splits a transport failure by cause so overload
// (expired deadlines) is distinguishable from faults (peer-torn conns) in
// reports. Socket deadline expiries surface as net.Error timeouts;
// peer-side kills surface as ECONNRESET/EPIPE on write or (unexpected)
// EOF on the response read.
func classifyFailure(rpc *metrics.RPC, err error) {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		atomic.AddInt64(&rpc.DeadlineExceeded, 1)
		return
	}
	if errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, errInjectedReset) {
		atomic.AddInt64(&rpc.PeerResets, 1)
	}
}

// Config tunes a Client.
type Config struct {
	// Array selects which server-side array this client addresses
	// (0 = D, 1 = F).
	Array uint8
	// Session identifies one build. A session id the servers have not
	// seen resets their arrays and dedup state; reusing it across
	// reconnects resumes without a reset. Must be nonzero.
	Session uint64
	// OpTimeout is the socket deadline of one RPC attempt (default 2s).
	OpTimeout time.Duration
	// RPC collects transport counters (latency, retries, reconnects,
	// injected faults); nil gets a private set. May be shared across
	// clients.
	RPC *metrics.RPC
	// Fault, when non-nil, injects network faults (reset, duplicate
	// delivery, slow link, partition windows) at this conn layer, keyed
	// by the issuing rank. Driver-side ops (proc -1) are never faulted.
	Fault *fault.Injector
	// Router, when non-nil, is the shared routing state (a Session's D
	// and F clients share one conn pool, hello set and view). Nil builds
	// a private one.
	Router *Router
}

// Client is the TCP implementation of dist.Backend: every attempt at a
// one-sided op is one framed RPC to the shard server hosting the patch's
// block, under a per-op socket deadline, with an idempotency token on
// accumulates and automatic reconnection. It never retries a data op —
// dist.Retry.Get/Acc do, and they also hold the epoch fence and the
// accounting — and it routes every attempt through the router's view: a
// live fleet view (DialFleet) or the fixed one of a static Dial.
type Client struct {
	grid *dist.Grid2D
	// stats (may be nil) takes the Get/Acc conveniences' accounting.
	stats  *dist.RunStats
	cfg    Config
	router *Router
	reqID  atomic.Uint64
	token  atomic.Uint64 // Acc idempotency tokens; lives as long as the session's client
}

var _ dist.Backend = (*Client)(nil)

func newClient(grid *dist.Grid2D, stats *dist.RunStats, cfg Config, rt *Router) *Client {
	return &Client{grid: grid, stats: stats, cfg: cfg, router: rt}
}

// normalize validates and defaults the fields every dial needs.
func (cfg *Config) normalize() error {
	if cfg.Session == 0 {
		return errors.New("netga: session id must be nonzero")
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 2 * time.Second
	}
	if cfg.RPC == nil {
		cfg.RPC = &metrics.RPC{}
	}
	return nil
}

// Dial connects to a fixed set of shard servers and validates session +
// geometry with a Hello on each, failing fast with the server's own words
// when one refuses. assign[p] is the index in addrs of the server hosting
// proc p (see SplitProcs); the router keeps it as a view that is never
// refreshed. stats may be nil for a driver-only client.
func Dial(grid *dist.Grid2D, stats *dist.RunStats, addrs []string, assign []int, cfg Config) (*Client, error) {
	if len(assign) != grid.NumProcs() {
		return nil, fmt.Errorf("netga: assignment covers %d procs, grid has %d", len(assign), grid.NumProcs())
	}
	for p, k := range assign {
		if k < 0 || k >= len(addrs) {
			return nil, fmt.Errorf("netga: proc %d assigned to server %d of %d", p, k, len(addrs))
		}
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	rt := cfg.Router
	if rt == nil {
		rt = NewRouter(addrs, cfg.OpTimeout, cfg.RPC)
	}
	if rt.elastic() || rt.Slots() != len(addrs) {
		return nil, fmt.Errorf("netga: router routes %d slots, %d servers given", rt.Slots(), len(addrs))
	}
	rt.pin(assign)
	c := newClient(grid, stats, cfg, rt)
	for slot := range addrs {
		if _, err := c.helloSlot(slot); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// fleetDialWait bounds how long DialFleet waits for the fleet view to
// cover every block (bootstrap migration may still be in flight).
const fleetDialWait = 30 * time.Second

// DialFleet connects to an elastic fleet: routing state comes from the
// fleet coordinator at fleetAddr (via cfg.Router, which must be a fleet
// router when provided) instead of a static address list. DialFleet
// blocks until the published view assigns every block, then validates
// session + geometry against every member; members that join later are
// helloed lazily on first route.
func DialFleet(grid *dist.Grid2D, stats *dist.RunStats, fleetAddr string, cfg Config) (*Client, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	rt := cfg.Router
	if rt == nil {
		rt = NewFleetRouter(fleetAddr, cfg.OpTimeout, cfg.RPC)
	}
	if !rt.elastic() {
		return nil, errors.New("netga: DialFleet requires a fleet router")
	}
	c := newClient(grid, stats, cfg, rt)
	deadline := time.Now().Add(fleetDialWait)
	var lastErr error
	for {
		rt.refreshView(true)
		lastErr = nil
		for p := 0; p < grid.NumProcs(); p++ {
			if _, err := c.routeFor(p); err != nil {
				lastErr = err
				break
			}
		}
		if lastErr == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			c.Close()
			return nil, fmt.Errorf("netga: fleet at %s not routable: %w", fleetAddr, lastErr)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// errNoRoute marks a transiently unroutable block: the view does not
// assign it yet (bootstrap or a pinned dead member), or its owner has not
// answered a hello. Retryable; never evidence a specific server is dead.
var errNoRoute = errors.New("netga: block not routable yet")

// routeFor resolves the pool serving proc's block through the router's
// view — re-fetched (throttled) when the block is unassigned, which a
// static dial's fixed view never is — and hellos the member on first
// contact.
func (c *Client) routeFor(proc int) (*connPool, error) {
	slot := c.router.slotFor(proc)
	if slot < 0 {
		c.router.RefreshView()
		if slot = c.router.slotFor(proc); slot < 0 {
			return nil, fmt.Errorf("%w: proc %d unassigned in current view", errNoRoute, proc)
		}
	}
	pool, err := c.helloSlot(slot)
	if err != nil {
		return nil, fmt.Errorf("%w: hello slot %d: %v", errNoRoute, slot, err)
	}
	return pool, nil
}

// helloSlot returns the conn pool of a router slot after validating
// session + geometry against the slot's server once per session: the
// router keeps the hello state, so a session's D and F clients, which
// share it, say hello once per shard between them. Hello is idempotent
// under one session, so two goroutines racing here are harmless; a
// member that joined mid-build adopts the session either from migrated
// block state or from this hello, whichever lands first. A hello that
// fails after its frame went out may have met a conn left idle across a
// restart of the shard, as may that address's other idle conns: they are
// dropped and the hello, being idempotent, is redialed once. On a route
// the failure is transient (errNoRoute): a dead unhelloed member is the
// fleet detector's to fail over, not this client's.
func (c *Client) helloSlot(slot int) (*connPool, error) {
	pool, done := c.router.pool(slot, c.cfg.Session)
	if done {
		return pool, nil
	}
	hello := request{
		Op: opHello, Session: c.cfg.Session, ReqID: c.reqID.Add(1),
		R0: int32(c.grid.Rows), C0: int32(c.grid.Cols),
		Msg: layoutMsg(c.grid),
	}
	resp, sent, err := c.doRPC(-1, pool, &hello)
	if err != nil && sent && !errors.Is(err, errShardRetry) {
		c.router.conns.drop(c.router.addr(slot))
		hello.ReqID = c.reqID.Add(1)
		resp, _, err = c.doRPC(-1, pool, &hello)
	}
	if err != nil {
		return nil, err
	}
	if resp.Status != statusOK {
		return nil, fmt.Errorf("netga: hello rejected by %s: %s", c.router.addr(slot), resp.Msg)
	}
	c.router.helloDone(slot, c.cfg.Session)
	return pool, nil
}

// Close releases the client's connections: the router's own idle conns
// are closed; a Conns shared across sessions keeps them for the next.
func (c *Client) Close() { c.router.closeConns() }

// Layout returns the grid the shard servers are laid out over.
func (c *Client) Layout() *dist.Grid2D { return c.grid }

// Conns keeps idle connections to shard servers by address. Every request
// frame names its session, so a conn belongs to no session, and one Conns
// can serve every session of a process: the HF service's runner holds
// one for its life (NewSession), so a job attempt opens on pooled conns
// instead of fresh TCP dials. A conn that sees an error is closed, never
// returned, so an idle conn has no residue of a previous RPC.
type Conns struct {
	mu     sync.Mutex
	idle   map[string][]*pooledConn
	closed bool
}

// NewConns returns an empty connection pool.
func NewConns() *Conns { return &Conns{idle: map[string][]*pooledConn{}} }

// take checks out the most recently returned idle conn to addr, if any.
func (cs *Conns) take(addr string) *pooledConn {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	idle := cs.idle[addr]
	if len(idle) == 0 {
		return nil
	}
	c := idle[len(idle)-1]
	cs.idle[addr] = idle[:len(idle)-1]
	return c
}

// give returns a healthy conn for reuse, closing it instead when the pool
// is closed. It needs no cap: a conn is dialed only when no idle one to
// its address is left, so the idle conns to an address never outnumber
// the peak of RPCs in flight to it.
func (cs *Conns) give(c *pooledConn) {
	cs.mu.Lock()
	if cs.closed {
		cs.mu.Unlock()
		c.Close()
		return
	}
	cs.idle[c.addr] = append(cs.idle[c.addr], c)
	cs.mu.Unlock()
}

// drop closes every idle conn to addr.
func (cs *Conns) drop(addr string) {
	cs.mu.Lock()
	idle := cs.idle[addr]
	delete(cs.idle, addr)
	cs.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}

// Close closes every idle conn; conns returned afterwards are closed too.
func (cs *Conns) Close() {
	cs.mu.Lock()
	cs.closed = true
	idle := cs.idle
	cs.idle = map[string][]*pooledConn{}
	cs.mu.Unlock()
	for _, conns := range idle {
		for _, c := range conns {
			c.Close()
		}
	}
}

// connPool is one router slot's view of its router's Conns. The slot's
// address is re-resolved through the router on every checkout AND
// checkin, and every conn remembers the address it was dialed to, so a
// conn to a superseded primary checked out across a promotion is closed
// on return instead of re-entering the pool and being handed out against
// the wrong server.
type connPool struct {
	router    *Router
	slot      int
	timeout   time.Duration
	rpc       *metrics.RPC
	discarded atomic.Int64
}

// pooledConn ties a conn to the address it was dialed to, and owns the
// buffered writer and reader every RPC on it uses. They live and die with
// the conn: an RPC that fails discards (closes) it, so no buffered byte
// of one exchange reaches the next.
type pooledConn struct {
	net.Conn
	addr string
	bw   *bufio.Writer
	br   *bufio.Reader
}

func (p *connPool) get() (*pooledConn, error) {
	addr := p.router.addr(p.slot)
	if conn := p.router.conns.take(addr); conn != nil {
		return conn, nil
	}
	conn, err := net.DialTimeout("tcp", addr, p.timeout)
	if err != nil {
		return nil, err
	}
	if p.discarded.Load() > 0 {
		atomic.AddInt64(&p.rpc.Reconnects, 1)
	} else {
		atomic.AddInt64(&p.rpc.Dials, 1)
	}
	return &pooledConn{Conn: conn, addr: addr, bw: bufio.NewWriter(conn), br: bufio.NewReader(conn)}, nil
}

func (p *connPool) put(conn *pooledConn) {
	if conn.addr != p.router.addr(p.slot) {
		conn.Close()
		return
	}
	p.router.conns.give(conn)
}

func (p *connPool) discard(conn *pooledConn) {
	conn.Close()
	p.discarded.Add(1)
}

// doRPC performs one request/response exchange on a pooled conn, with
// the per-op socket deadline and (for worker ranks) the injected network
// fault verdict. sent reports whether any bytes of the request may have
// reached the wire: a failure with sent=false is provably clean (the
// server cannot have applied anything), while sent=true is ambiguous and
// the caller must retry the same idempotency token to resolution.
func (c *Client) doRPC(rank int, pool *connPool, req *request) (resp *response, sent bool, err error) {
	// Stamp the shard fence epoch this client believes the slot is at; a
	// server at a different epoch answers statusRetry instead of applying.
	// Requests also carry the placement generation routed under, so a
	// server holding a newer map bounces them instead of serving a block
	// that moved away (a static dial's fixed view is generation 0, which
	// servers read as "no placement fence").
	req.SEpoch = c.router.epoch(pool.slot)
	req.PGen = c.router.pgen()
	sendTwice := false
	if c.cfg.Fault != nil && rank >= 0 {
		delay, outcome := c.cfg.Fault.NetFault(rank)
		if outcome == fault.NetPartitioned {
			atomic.AddInt64(&c.cfg.RPC.Partitioned, 1)
			return nil, false, ErrPartitioned
		}
		if delay > 0 {
			time.Sleep(delay) // slow link
		}
		switch outcome {
		case fault.NetDup:
			sendTwice = true
			atomic.AddInt64(&c.cfg.RPC.DupSends, 1)
		case fault.NetReset:
			defer atomic.AddInt64(&c.cfg.RPC.Resets, 1)
			// Send the frame, then tear the conn down before reading the
			// response: the client cannot know whether the server applied
			// the request — the ambiguity idempotency tokens exist for.
			conn, derr := pool.get()
			if derr != nil {
				return nil, false, derr
			}
			conn.SetDeadline(time.Now().Add(c.cfg.OpTimeout))
			body := encodeRequest(nil, req)
			werr := writeFrame(conn, body)
			pool.discard(conn)
			if werr != nil {
				return nil, false, werr
			}
			return nil, true, errInjectedReset
		}
	}
	conn, derr := pool.get()
	if derr != nil {
		return nil, false, derr
	}
	conn.SetDeadline(time.Now().Add(c.cfg.OpTimeout))
	body := encodeRequest(nil, req)
	sent = true
	if err := writeFrame(conn.bw, body); err != nil {
		pool.discard(conn)
		return nil, true, err
	}
	if sendTwice {
		if err := writeFrame(conn.bw, body); err != nil {
			pool.discard(conn)
			return nil, true, err
		}
	}
	if err := conn.bw.Flush(); err != nil {
		pool.discard(conn)
		return nil, true, err
	}
	reads := 1
	if sendTwice {
		reads = 2 // second response (the dedup ack) is read and dropped
	}
	var out response
	for i := 0; i < reads; i++ {
		frame, rerr := readFrame(conn.br)
		if rerr != nil {
			pool.discard(conn)
			return nil, true, rerr
		}
		var r response
		if derr := decodeResponse(frame, &r); derr != nil {
			pool.discard(conn)
			return nil, true, derr
		}
		if r.ReqID != req.ReqID {
			pool.discard(conn)
			return nil, true, fmt.Errorf("netga: response for req %d, want %d", r.ReqID, req.ReqID)
		}
		if i == 0 {
			out = r
		}
	}
	conn.SetDeadline(time.Time{})
	pool.put(conn)
	c.router.observe(pool.slot, out.SEpoch)
	if out.Status == statusRetry {
		// Transient shard rejection (standby not promoted, or our epoch is
		// stale — the observe above already resynced it): retryable, and
		// provably not applied. A server answering from a newer placement
		// generation means our route is superseded — refresh the view
		// (throttled: a whole retry storm collapses to one fetch) so the
		// retry resolves against the new map (a fixed view has none to
		// fetch and stays as it is).
		atomic.AddInt64(&c.cfg.RPC.StaleRetries, 1)
		if req.PGen != 0 && out.PGen > req.PGen {
			atomic.AddInt64(&c.cfg.RPC.PlacementRetries, 1)
		}
		c.router.RefreshView()
		return nil, true, fmt.Errorf("%w: %s", errShardRetry, out.Msg)
	}
	return &out, true, nil
}

// errShardRetry marks a statusRetry answer: the server is alive but not
// serving this request right now. Retry; doRPC has resynced already.
var errShardRetry = errors.New("netga: transient shard rejection")

// noteFailure classifies a transport failure and refreshes the view
// (throttled; a fixed view has none to fetch), so the retry routes to
// whatever address the fleet now names for the member: a standby its
// lease detector promoted, or a durable restart elsewhere. The client
// never promotes. A failed RPC cannot tell a dead primary from a live one
// it cannot reach, and the fleet acts only on an expired lease. Injected
// partition fail-fasts and statusRetry resyncs are not transport
// failures.
func (c *Client) noteFailure(err error) {
	if err == nil || errors.Is(err, ErrPartitioned) || errors.Is(err, errShardRetry) {
		return
	}
	classifyFailure(c.cfg.RPC, err)
	c.router.RefreshView()
}

// attempt runs one data RPC for rank against the current owner of block
// owner — resolved per attempt, because under elastic placement the owner
// can change between retries (that is the point of the retry). A failure
// the retry loop may repeat counts as a retry in the transport counters;
// a deterministic server rejection wraps dist.ErrRejected and counts as a
// failure. sent is doRPC's: whether the request may have reached the wire.
func (c *Client) attempt(rank, owner int, what string, req *request) (resp *response, sent bool, err error) {
	pool, err := c.routeFor(owner)
	if err != nil {
		// Transiently unroutable (block mid-migration, view catching up):
		// no frame went out, so the failure is provably clean.
		atomic.AddInt64(&c.cfg.RPC.Retries, 1)
		return nil, false, err
	}
	req.ReqID = c.reqID.Add(1)
	start := time.Now()
	resp, sent, err = c.doRPC(rank, pool, req)
	if err != nil {
		c.noteFailure(err)
		atomic.AddInt64(&c.cfg.RPC.Retries, 1)
		return nil, sent, err
	}
	c.cfg.RPC.LatencyNS.Observe(time.Since(start).Nanoseconds())
	atomic.AddInt64(&c.cfg.RPC.Calls, 1)
	if resp.Status != statusOK {
		atomic.AddInt64(&c.cfg.RPC.Failures, 1)
		return nil, sent, fmt.Errorf("netga: %s %w: %s", what, dist.ErrRejected, resp.Msg)
	}
	return resp, sent, nil
}

// TryGet implements dist.Backend: one RPC to the patch's owner. Gets
// never mutate server state, so every failure is clean.
func (c *Client) TryGet(proc, r0, r1, c0, c1 int, dst []float64, ld int) error {
	req := request{
		Op: opGet, Array: c.cfg.Array, Session: c.cfg.Session,
		Proc: int32(proc), R0: int32(r0), R1: int32(r1), C0: int32(c0), C1: int32(c1),
	}
	resp, _, err := c.attempt(proc, c.grid.Owner(r0, c0), "get", &req)
	if err != nil {
		return err
	}
	w := c1 - c0
	if len(resp.Data) != (r1-r0)*w {
		atomic.AddInt64(&c.cfg.RPC.Failures, 1)
		return fmt.Errorf("netga: get %w: returned %d values, want %d", dist.ErrRejected, len(resp.Data), (r1-r0)*w)
	}
	for r := r0; r < r1; r++ {
		copy(dst[(r-r0)*ld:(r-r0)*ld+w], resp.Data[(r-r0)*w:(r-r0)*w+w])
	}
	return nil
}

// TryAcc implements dist.Backend: one RPC carrying the op's idempotency
// token, minted here on the first attempt (token 0) and handed back so
// every retry reuses it — the server applies the patch once no matter how
// delivery fails or duplicates. The counter lives in the client, so the
// client must outlive every build of its session (see Session).
func (c *Client) TryAcc(proc int, token uint64, r0, r1, c0, c1 int, src []float64, ld int, alpha float64) (uint64, bool, error) {
	if token == 0 {
		token = uint64(c.cfg.Array+1)<<56 | c.token.Add(1)
	}
	w := c1 - c0
	data := make([]float64, (r1-r0)*w)
	for r := r0; r < r1; r++ {
		copy(data[(r-r0)*w:(r-r0)*w+w], src[(r-r0)*ld:(r-r0)*ld+w])
	}
	req := request{
		Op: opAcc, Array: c.cfg.Array, Session: c.cfg.Session, Token: token,
		Proc: int32(proc), Alpha: alpha,
		R0: int32(r0), R1: int32(r1), C0: int32(c0), C1: int32(c1),
		Data: data,
	}
	_, sent, err := c.attempt(proc, c.grid.Owner(r0, c0), "acc", &req)
	return token, sent, err
}

// probeRetry is the budget of the Get and Acc conveniences below.
var probeRetry = dist.Retry{Attempts: 8, Backoff: 5 * time.Millisecond}

// Get fetches an arbitrary region, decomposed per owner, through the one
// retry loop, charging the stats the client was dialed with. core never
// calls it (a build issues single-owner patches against its own stats);
// it exists for tests and probes and panics if the transport cannot
// deliver.
func (c *Client) Get(proc, r0, r1, c0, c1 int, dst []float64, ld int) {
	for _, p := range c.grid.Patches(r0, r1, c0, c1) {
		if _, err := probeRetry.Get(context.Background(), c, c.stats, proc, p.R0, p.R1, p.C0, p.C1, dst[(p.R0-r0)*ld+(p.C0-c0):], ld); err != nil {
			panic(fmt.Sprintf("netga: infallible Get failed: %v", err))
		}
	}
}

// Acc accumulates into an arbitrary region, unfenced; see Get.
func (c *Client) Acc(proc, r0, r1, c0, c1 int, src []float64, ld int, alpha float64) {
	for _, p := range c.grid.Patches(r0, r1, c0, c1) {
		if _, err := probeRetry.Acc(context.Background(), c, c.stats, nil, false, proc, 0, p.R0, p.R1, p.C0, p.C1, src[(p.R0-r0)*ld+(p.C0-c0):], ld, alpha); err != nil {
			panic(fmt.Sprintf("netga: infallible Acc failed: %v", err))
		}
	}
}

// driverOp runs one un-faulted, un-accounted RPC for the driver-side
// ops (whole-matrix load and gather, checkpoint, bye, blobs), retrying
// transport errors a bounded number of times. route is resolved per
// attempt: the block-addressed ops pass blockRoute, because under elastic
// placement a block's owner can change (or be briefly frozen) between
// attempts.
func (c *Client) driverOp(route func() (*connPool, error), req *request) (*response, error) {
	var err error
	for a := 0; a < 14; a++ {
		if a > 0 {
			if cerr := dist.SleepBackoff(context.Background(), 5*time.Millisecond<<uint(a-1)); cerr != nil {
				return nil, cerr
			}
		}
		pool, rerr := route()
		if rerr != nil {
			err = rerr
			continue
		}
		req.ReqID = c.reqID.Add(1)
		var resp *response
		resp, _, err = c.doRPC(-1, pool, req)
		if err != nil {
			c.noteFailure(err)
			continue
		}
		if resp.Status != statusOK {
			return nil, fmt.Errorf("netga: %s", resp.Msg)
		}
		return resp, nil
	}
	return nil, err
}

// blockRoute addresses a driver op to whichever member hosts proc's block
// at the time of each attempt.
func (c *Client) blockRoute(proc int) func() (*connPool, error) {
	return func() (*connPool, error) { return c.routeFor(proc) }
}

// Checkpoint advances the dedup-eviction generation on every shard
// currently hosting a block: the driver calls it at a session checkpoint
// (an SCF iteration boundary), when no accumulate can still be retrying,
// so tokens are only ever evicted a full generation after their op
// completed. Migrated tokens travel with their blocks, so the hosting
// members hold all live tokens.
func (c *Client) Checkpoint() error {
	req := request{Op: opCheckpoint, Session: c.cfg.Session, Proc: -1}
	done := map[*connPool]bool{}
	for p := 0; p < c.grid.NumProcs(); p++ {
		pool, err := c.routeFor(p)
		if err == nil && done[pool] {
			continue
		}
		if _, err := c.driverOp(c.blockRoute(p), &req); err != nil {
			return fmt.Errorf("netga: checkpoint: %w", err)
		}
		if pool != nil {
			done[pool] = true
		}
	}
	return nil
}

// Bye releases this client's session on every shard it ever said hello
// to: an admitting table frees the session's arrays, dedup state and
// blobs; a pinned table acknowledges and keeps its session, which lives
// until the next Hello replaces it. Callers invoke it once per job, after
// the last build of the session, before Close.
func (c *Client) Bye() error {
	req := request{Op: opBye, Session: c.cfg.Session, Proc: -1}
	var firstErr error
	for _, pool := range c.router.helloedPools(c.cfg.Session) {
		fixed := func() (*connPool, error) { return pool, nil }
		if _, err := c.driverOp(fixed, &req); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// blobProc maps a stored-ERI spill key to the proc whose hosting shard
// stores the blob, spreading spill capacity across the fleet.
func (c *Client) blobProc(key uint64) int {
	return int(key % uint64(c.grid.NumProcs()))
}

// PutBlob implements the integrals.BlobStore spill surface over the
// shard fleet: the blob lands on the shard hosting proc key%nprocs, so
// stored-ERI spill capacity scales with members. Driver-path semantics
// (bounded retries, per-attempt routing, not fault-injected): blob ops
// are cache maintenance, not part of the exactly-once commit protocol —
// a final failure makes the store drop the entry and recompute.
func (c *Client) PutBlob(key uint64, vals []float64) error {
	req := request{Op: opPutBlob, Session: c.cfg.Session, Token: key, Proc: -1, Data: vals}
	_, err := c.driverOp(c.blockRoute(c.blobProc(key)), &req)
	return err
}

// GetBlob fetches a spill blob into dst. Every failure — a shard that
// restarted (blobs are volatile by design), a miss, a transport error —
// surfaces as an error the store maps to a recompute.
func (c *Client) GetBlob(key uint64, dst []float64) ([]float64, error) {
	req := request{Op: opGetBlob, Session: c.cfg.Session, Token: key, Proc: -1}
	resp, err := c.driverOp(c.blockRoute(c.blobProc(key)), &req)
	if err != nil {
		return nil, err
	}
	return append(dst[:0], resp.Data...), nil
}

// LoadMatrix distributes a dense matrix to the shard servers, one Put
// per grid block (driver-side: not accounted, not fault-injected). A
// fleet that cannot be reached is an error, not a panic: a multi-tenant
// daemon must not crash on one job's shard loss.
func (c *Client) LoadMatrix(m *linalg.Matrix) error {
	if m.Rows != c.grid.Rows || m.Cols != c.grid.Cols {
		return fmt.Errorf("netga: LoadMatrix shape %dx%d, grid %dx%d", m.Rows, m.Cols, c.grid.Rows, c.grid.Cols)
	}
	for _, p := range c.grid.Patches(0, c.grid.Rows, 0, c.grid.Cols) {
		w := p.C1 - p.C0
		data := make([]float64, (p.R1-p.R0)*w)
		for r := p.R0; r < p.R1; r++ {
			copy(data[(r-p.R0)*w:(r-p.R0)*w+w], m.Data[r*m.Cols+p.C0:r*m.Cols+p.C1])
		}
		req := request{
			Op: opPut, Array: c.cfg.Array, Session: c.cfg.Session, Proc: -1,
			R0: int32(p.R0), R1: int32(p.R1), C0: int32(p.C0), C1: int32(p.C1),
			Data: data,
		}
		if _, err := c.driverOp(c.blockRoute(p.Proc), &req); err != nil {
			return err
		}
	}
	return nil
}

// ToMatrix gathers the full array from the shard servers, one Get per
// grid block (driver-side; see LoadMatrix).
func (c *Client) ToMatrix() (*linalg.Matrix, error) {
	m := linalg.NewMatrix(c.grid.Rows, c.grid.Cols)
	for _, p := range c.grid.Patches(0, c.grid.Rows, 0, c.grid.Cols) {
		req := request{
			Op: opGet, Array: c.cfg.Array, Session: c.cfg.Session, Proc: -1,
			R0: int32(p.R0), R1: int32(p.R1), C0: int32(p.C0), C1: int32(p.C1),
		}
		resp, err := c.driverOp(c.blockRoute(p.Proc), &req)
		if err != nil {
			return nil, err
		}
		w := p.C1 - p.C0
		for r := p.R0; r < p.R1; r++ {
			copy(m.Data[r*m.Cols+p.C0:r*m.Cols+p.C1], resp.Data[(r-p.R0)*w:(r-p.R0)*w+w])
		}
	}
	return m, nil
}
