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
		rpc.AddDeadlineExceeded()
		return
	}
	if errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, errInjectedReset) {
		rpc.AddPeerReset()
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
	// RPC, when non-nil, collects transport counters (latency, retries,
	// reconnects, injected faults). May be shared across clients.
	RPC *metrics.RPC
	// Fault, when non-nil, injects network faults (reset, duplicate
	// delivery, slow link, partition windows) at this conn layer, keyed
	// by the issuing rank. Driver-side ops (proc -1) are never faulted.
	Fault *fault.Injector
	// Router, when non-nil, is the shared failover routing state (one per
	// driver process, shared by the D and F clients so a promotion reroutes
	// both). Nil builds a private router with no standbys: plain routing,
	// no failover.
	Router *Router
}

// Client is the TCP implementation of dist.Backend: every one-sided op
// becomes framed RPCs to the shard servers hosting the touched blocks,
// with per-op deadlines, capped jittered retry, idempotency tokens on
// accumulates, and automatic reconnection. Epoch fencing is enforced
// here, client-side, where the lease ledger lives.
type Client struct {
	grid   *dist.Grid2D
	stats  *dist.RunStats
	assign []int
	pools  []*connPool
	cfg    Config
	router *Router
	fence  dist.Fence
	reqID  atomic.Uint64
	token  atomic.Uint64

	// Elastic mode (DialFleet): routes resolve per attempt through the
	// fleet view instead of the fixed assignment, pools are allocated per
	// router slot as members appear, and every member is helloed once
	// (session + geometry validation) before its first data op.
	elastic bool
	poolsMu sync.Mutex
	helloed map[int]bool // slot -> hello done
}

var _ dist.Backend = (*Client)(nil)

// Dial connects to the shard servers and validates session + geometry
// with a Hello on each. assign[p] is the index in addrs of the server
// hosting proc p (see SplitProcs); stats may be nil for a driver-only
// client.
func Dial(grid *dist.Grid2D, stats *dist.RunStats, addrs []string, assign []int, cfg Config) (*Client, error) {
	if len(assign) != grid.NumProcs() {
		return nil, fmt.Errorf("netga: assignment covers %d procs, grid has %d", len(assign), grid.NumProcs())
	}
	for p, k := range assign {
		if k < 0 || k >= len(addrs) {
			return nil, fmt.Errorf("netga: proc %d assigned to server %d of %d", p, k, len(addrs))
		}
	}
	if cfg.Session == 0 {
		return nil, errors.New("netga: session id must be nonzero")
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 2 * time.Second
	}
	rt := cfg.Router
	if rt == nil {
		rt = NewRouter(addrs, nil, cfg.OpTimeout, cfg.RPC)
	}
	if rt.Slots() != len(addrs) {
		return nil, fmt.Errorf("netga: router routes %d slots, %d servers given", rt.Slots(), len(addrs))
	}
	c := &Client{
		grid:   grid,
		stats:  stats,
		assign: append([]int(nil), assign...),
		pools:  make([]*connPool, len(addrs)),
		cfg:    cfg,
		router: rt,
	}
	for i := range addrs {
		c.pools[i] = &connPool{router: rt, slot: i, timeout: cfg.OpTimeout, rpc: cfg.RPC}
	}
	for _, pool := range c.pools {
		hello := request{
			Op: opHello, Session: cfg.Session, ReqID: c.reqID.Add(1),
			R0: int32(grid.Rows), C0: int32(grid.Cols),
			Msg: layoutMsg(grid),
		}
		resp, _, err := c.doRPC(-1, pool, &hello)
		if err == nil && resp.Status != statusOK {
			err = fmt.Errorf("netga: hello rejected by %s: %s", rt.addr(pool.slot), resp.Msg)
		}
		if err != nil {
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
	if cfg.Session == 0 {
		return nil, errors.New("netga: session id must be nonzero")
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 2 * time.Second
	}
	rt := cfg.Router
	if rt == nil {
		rt = NewFleetRouter(fleetAddr, cfg.OpTimeout, cfg.RPC)
	}
	if !rt.elastic() {
		return nil, errors.New("netga: DialFleet requires a fleet router")
	}
	c := &Client{
		grid:    grid,
		stats:   stats,
		cfg:     cfg,
		router:  rt,
		elastic: true,
		helloed: map[int]bool{},
	}
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

// routeFor resolves the pool serving proc's block. Static mode is the
// fixed assignment; elastic mode resolves through the fleet view —
// re-fetched (throttled) when the block is unassigned — and hellos the
// member on first contact.
func (c *Client) routeFor(proc int) (*connPool, error) {
	if !c.elastic {
		return c.pools[c.assign[proc]], nil
	}
	slot := c.router.slotFor(proc)
	if slot < 0 {
		c.router.RefreshView()
		if slot = c.router.slotFor(proc); slot < 0 {
			return nil, fmt.Errorf("%w: proc %d unassigned in current view", errNoRoute, proc)
		}
	}
	pool := c.poolBySlot(slot)
	if err := c.helloSlot(slot, pool); err != nil {
		return nil, fmt.Errorf("%w: hello slot %d: %v", errNoRoute, slot, err)
	}
	return pool, nil
}

// poolBySlot returns (allocating if needed) the conn pool of a router
// slot. Slots are append-only, so pools stay valid across churn.
func (c *Client) poolBySlot(slot int) *connPool {
	c.poolsMu.Lock()
	defer c.poolsMu.Unlock()
	for slot >= len(c.pools) {
		c.pools = append(c.pools, &connPool{router: c.router, slot: len(c.pools), timeout: c.cfg.OpTimeout, rpc: c.cfg.RPC})
	}
	return c.pools[slot]
}

// helloSlot validates session + geometry against a member once. Hello is
// idempotent under one session, so two goroutines racing here are
// harmless; a member that joined mid-build adopts the session either
// from migrated block state or from this hello, whichever lands first.
// Failures are transient (errNoRoute): a dead unhelloed member is the
// fleet detector's to fail over, not this client's.
func (c *Client) helloSlot(slot int, pool *connPool) error {
	c.poolsMu.Lock()
	done := c.helloed[slot]
	c.poolsMu.Unlock()
	if done {
		return nil
	}
	hello := request{
		Op: opHello, Session: c.cfg.Session, ReqID: c.reqID.Add(1),
		R0: int32(c.grid.Rows), C0: int32(c.grid.Cols),
		Msg: layoutMsg(c.grid),
	}
	resp, _, err := c.doRPC(-1, pool, &hello)
	if err != nil {
		return err
	}
	if resp.Status != statusOK {
		return fmt.Errorf("netga: hello rejected by %s: %s", c.router.addr(slot), resp.Msg)
	}
	c.poolsMu.Lock()
	c.helloed[slot] = true
	c.poolsMu.Unlock()
	return nil
}

// PlacementGen returns the placement generation the client is routing
// with (0 in static mode). The delta across a build counts the blocks
// that migrated under it — each cutover bumps the generation once.
func (c *Client) PlacementGen() uint64 { return c.router.pgen() }

// Close tears down every pooled connection.
func (c *Client) Close() {
	c.poolsMu.Lock()
	pools := append([]*connPool(nil), c.pools...)
	c.poolsMu.Unlock()
	for _, p := range pools {
		p.closeAll()
	}
}

// Layout returns the grid the shard servers are laid out over.
func (c *Client) Layout() *dist.Grid2D { return c.grid }

// Fallible reports true: network transport can always fail, so builds
// over this backend must use the retrying wrappers.
func (c *Client) Fallible() bool { return true }

// SetFence installs the epoch authority consulted by AccFencedRetry.
// The check runs client-side: the ledger lives in this (driver) process,
// and the commit protocol in core guarantees a fence cannot interleave
// with an open commit, so servers stay fence-oblivious.
func (c *Client) SetFence(f dist.Fence) { c.fence = f }

// charge mirrors dist.GlobalArray's per-call accounting so net-backed
// runs report the paper's Tables VI/VII quantities identically.
func (c *Client) charge(proc, r0, r1, c0, c1 int) {
	if c.stats == nil || proc < 0 {
		return
	}
	st := &c.stats.Per[proc]
	st.Calls++
	elems := int64(r1-r0) * int64(c1-c0)
	st.Bytes += 8 * elems
	for _, p := range c.grid.Patches(r0, r1, c0, c1) {
		if p.Proc != proc {
			st.RemoteBytes += 8 * int64(p.Elems())
		}
	}
}

// connPool keeps idle conns to one shard slot. Any conn that sees an
// error is discarded, so an idle conn never has residue of a previous
// RPC. The slot's address is re-resolved through the router on every
// checkout AND checkin — under the pool lock, so two racing gets cannot
// regress curAddr — and every conn remembers the address it was dialed
// to, so a conn to a superseded primary checked out across a failover is
// closed on return instead of re-entering the pool and being handed out
// against the wrong server forever.
type connPool struct {
	router  *Router
	slot    int
	timeout time.Duration
	rpc     *metrics.RPC

	mu        sync.Mutex
	curAddr   string
	idle      []*pooledConn
	discarded int64
	closed    bool
}

// pooledConn ties a conn to the address it was dialed to.
type pooledConn struct {
	net.Conn
	addr string
}

// syncAddrLocked refreshes curAddr from the router, draining idle conns
// to a stale address. Caller holds p.mu.
func (p *connPool) syncAddrLocked() string {
	addr := p.router.addr(p.slot)
	if addr != p.curAddr {
		for _, c := range p.idle {
			c.Close()
		}
		p.idle = nil
		p.curAddr = addr
	}
	return addr
}

func (p *connPool) get() (*pooledConn, error) {
	p.mu.Lock()
	addr := p.syncAddrLocked()
	if n := len(p.idle); n > 0 {
		conn := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return conn, nil
	}
	redial := p.discarded > 0
	p.mu.Unlock()
	conn, err := net.DialTimeout("tcp", addr, p.timeout)
	if err != nil {
		return nil, err
	}
	if redial {
		p.rpc.AddReconnect()
	} else {
		p.rpc.AddDial()
	}
	return &pooledConn{Conn: conn, addr: addr}, nil
}

func (p *connPool) put(conn *pooledConn) {
	p.mu.Lock()
	addr := p.syncAddrLocked()
	if p.closed || conn.addr != addr {
		p.mu.Unlock()
		conn.Close()
		return
	}
	p.idle = append(p.idle, conn)
	p.mu.Unlock()
}

func (p *connPool) discard(conn *pooledConn) {
	conn.Close()
	p.mu.Lock()
	p.discarded++
	p.mu.Unlock()
}

func (p *connPool) closeAll() {
	p.mu.Lock()
	p.closed = true
	for _, c := range p.idle {
		c.Close()
	}
	p.idle = nil
	p.mu.Unlock()
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
	// Elastic requests also carry the placement generation routed under,
	// so a server holding a newer map bounces them instead of serving a
	// block that moved away.
	req.SEpoch = c.router.epoch(pool.slot)
	if c.elastic {
		req.PGen = c.router.pgen()
	}
	sendTwice := false
	if c.cfg.Fault != nil && rank >= 0 {
		delay, outcome := c.cfg.Fault.NetFault(rank)
		if outcome == fault.NetPartitioned {
			c.cfg.RPC.AddPartitioned()
			return nil, false, ErrPartitioned
		}
		if delay > 0 {
			time.Sleep(delay) // slow link
		}
		switch outcome {
		case fault.NetDup:
			sendTwice = true
			c.cfg.RPC.AddDupSend()
		case fault.NetReset:
			defer c.cfg.RPC.AddReset()
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
	bw := bufio.NewWriter(conn)
	body := encodeRequest(nil, req)
	sent = true
	if err := writeFrame(bw, body); err != nil {
		pool.discard(conn)
		return nil, true, err
	}
	if sendTwice {
		if err := writeFrame(bw, body); err != nil {
			pool.discard(conn)
			return nil, true, err
		}
	}
	if err := bw.Flush(); err != nil {
		pool.discard(conn)
		return nil, true, err
	}
	br := bufio.NewReader(conn)
	reads := 1
	if sendTwice {
		reads = 2 // second response (the dedup ack) is read and dropped
	}
	var out response
	for i := 0; i < reads; i++ {
		frame, rerr := readFrame(br)
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
		// retry resolves against the new map.
		c.cfg.RPC.AddStaleRetry()
		if c.elastic {
			if out.PGen > req.PGen {
				c.cfg.RPC.AddPlacementRetry()
			}
			c.router.RefreshView()
		}
		return nil, true, fmt.Errorf("%w: %s", errShardRetry, out.Msg)
	}
	c.router.success(pool.slot)
	return &out, true, nil
}

// errShardRetry marks a statusRetry answer: the server is alive but not
// serving this request right now. Retry, but never count it toward the
// failover threshold.
var errShardRetry = errors.New("netga: transient shard rejection")

// noteFailure counts a transport failure against the slot and, past the
// consecutive-failure threshold, attempts a standby promotion. Injected
// partition fail-fasts and statusRetry resyncs are not evidence of a dead
// server and never trigger failover.
func (c *Client) noteFailure(pool *connPool, err error) {
	if err == nil || errors.Is(err, ErrPartitioned) || errors.Is(err, errShardRetry) {
		return
	}
	classifyFailure(c.cfg.RPC, err)
	if !c.router.failure(pool.slot) {
		return
	}
	if ferr := c.router.Failover(pool.slot); ferr == nil {
		if c.stats != nil {
			atomic.AddInt64(&c.stats.Recovery.Failovers, 1)
		}
	}
}

// GetRetry implements dist.Backend: the region is decomposed into
// per-owner patches, each fetched as one RPC retried up to attempts
// times with capped jittered backoff, abandoned early when ctx expires.
// Gets never mutate server state, so abandonment is always clean.
func (c *Client) GetRetry(ctx context.Context, attempts int, backoff time.Duration, proc, r0, r1, c0, c1 int, dst []float64, ld int) (int, error) {
	c.charge(proc, r0, r1, c0, c1)
	if attempts <= 0 {
		attempts = 1
	}
	retries := 0
	for _, p := range c.grid.Patches(r0, r1, c0, c1) {
		req := request{
			Op: opGet, Array: c.cfg.Array, Session: c.cfg.Session,
			Proc: int32(proc), R0: int32(p.R0), R1: int32(p.R1), C0: int32(p.C0), C1: int32(p.C1),
		}
		start := time.Now()
		wait := backoff
		var err error
		for a := 0; a < attempts; a++ {
			if a > 0 {
				retries++
				c.countRetry()
				if cerr := dist.SleepBackoff(ctx, wait); cerr != nil {
					c.cfg.RPC.AddFailure()
					c.cfg.RPC.ObserveCall(time.Since(start).Nanoseconds())
					return retries, cerr
				}
				wait = dist.NextBackoff(wait)
			}
			// Route per attempt: under elastic placement the block's owner
			// can change between retries (that is the point of the retry).
			pool, rerr := c.routeFor(p.Proc)
			if rerr != nil {
				err = rerr
				continue
			}
			req.ReqID = c.reqID.Add(1)
			var resp *response
			resp, _, err = c.doRPC(proc, pool, &req)
			if err != nil {
				c.noteFailure(pool, err)
			}
			if err == nil && resp.Status != statusOK {
				// A server rejection is deterministic; retrying cannot help.
				c.cfg.RPC.AddFailure()
				c.cfg.RPC.ObserveCall(time.Since(start).Nanoseconds())
				return retries, fmt.Errorf("netga: get rejected: %s", resp.Msg)
			}
			if err == nil {
				w := p.C1 - p.C0
				if len(resp.Data) != (p.R1-p.R0)*w {
					c.cfg.RPC.AddFailure()
					return retries, fmt.Errorf("netga: get returned %d values, want %d", len(resp.Data), (p.R1-p.R0)*w)
				}
				for r := p.R0; r < p.R1; r++ {
					copy(dst[(r-r0)*ld+(p.C0-c0):(r-r0)*ld+(p.C1-c0)], resp.Data[(r-p.R0)*w:(r-p.R0)*w+w])
				}
				c.cfg.RPC.ObserveCall(time.Since(start).Nanoseconds())
				break
			}
		}
		if err != nil {
			c.cfg.RPC.AddFailure()
			c.cfg.RPC.ObserveCall(time.Since(start).Nanoseconds())
			return retries, err
		}
	}
	return retries, nil
}

// AccFencedRetry implements dist.Backend with exactly-once semantics
// over an at-least-once transport: each per-owner patch gets one
// idempotency token, reused across every retry, so the server applies it
// once no matter how delivery fails or duplicates.
//
// ctx and the fence are honored only while the call is provably clean —
// no frame of it has reached the wire. The first (possibly) sent frame
// is the point of no return: from there the only exits are landing every
// remaining patch (retrying on an unbounded context; the injector's
// consecutive-fault caps and partition windows bound this in practice)
// or a deterministic server rejection, so a ctx error reported to the
// caller always means "nothing applied" and core may abort cleanly.
func (c *Client) AccFencedRetry(ctx context.Context, backoff time.Duration, proc int, epoch int64, r0, r1, c0, c1 int, src []float64, ld int, alpha float64) (int, error) {
	c.charge(proc, r0, r1, c0, c1)
	retries := 0
	committed := false
	for _, p := range c.grid.Patches(r0, r1, c0, c1) {
		w := p.C1 - p.C0
		data := make([]float64, (p.R1-p.R0)*w)
		for r := p.R0; r < p.R1; r++ {
			copy(data[(r-p.R0)*w:(r-p.R0)*w+w], src[(r-r0)*ld+(p.C0-c0):(r-r0)*ld+(p.C1-c0)])
		}
		req := request{
			Op: opAcc, Array: c.cfg.Array, Session: c.cfg.Session,
			Token: uint64(c.cfg.Array+1)<<56 | c.token.Add(1),
			Epoch: epoch, Proc: int32(proc), Alpha: alpha,
			R0: int32(p.R0), R1: int32(p.R1), C0: int32(p.C0), C1: int32(p.C1),
			Data: data,
		}
		start := time.Now()
		wait := backoff
		for {
			if !committed && c.fence != nil && !c.fence.ValidEpoch(proc, epoch) {
				return retries, dist.ErrFenced
			}
			var resp *response
			var sent bool
			var err error
			if pool, rerr := c.routeFor(p.Proc); rerr != nil {
				// Transiently unroutable (block mid-migration, view catching
				// up): no frame went out, so this retry is provably clean.
				err = rerr
			} else {
				req.ReqID = c.reqID.Add(1)
				resp, sent, err = c.doRPC(proc, pool, &req)
				if sent {
					committed = true
				}
				if err != nil {
					c.noteFailure(pool, err)
				}
			}
			if err == nil && resp.Status != statusOK {
				c.cfg.RPC.AddFailure()
				c.cfg.RPC.ObserveCall(time.Since(start).Nanoseconds())
				return retries, fmt.Errorf("netga: acc rejected: %s", resp.Msg)
			}
			if err == nil {
				c.cfg.RPC.ObserveCall(time.Since(start).Nanoseconds())
				break
			}
			retries++
			c.countRetry()
			sctx := ctx
			if committed {
				sctx = nil // past the point of no return: retry unbounded
			}
			if cerr := dist.SleepBackoff(sctx, wait); cerr != nil {
				c.cfg.RPC.AddFailure()
				c.cfg.RPC.ObserveCall(time.Since(start).Nanoseconds())
				return retries, cerr
			}
			wait = dist.NextBackoff(wait)
		}
	}
	return retries, nil
}

func (c *Client) countRetry() {
	c.cfg.RPC.AddRetry()
	if c.stats != nil {
		atomic.AddInt64(&c.stats.Recovery.OpRetries, 1)
	}
}

// Get implements the infallible Backend read. The netga backend is
// always fallible, so core never calls this; it exists for tests and
// panics if the transport cannot deliver.
func (c *Client) Get(proc, r0, r1, c0, c1 int, dst []float64, ld int) {
	if _, err := c.GetRetry(context.Background(), 8, 5*time.Millisecond, proc, r0, r1, c0, c1, dst, ld); err != nil {
		panic(fmt.Sprintf("netga: infallible Get failed: %v", err))
	}
}

// Acc implements the infallible Backend accumulate; see Get.
func (c *Client) Acc(proc, r0, r1, c0, c1 int, src []float64, ld int, alpha float64) {
	fence := c.fence
	c.fence = nil
	defer func() { c.fence = fence }()
	if _, err := c.AccFencedRetry(context.Background(), 5*time.Millisecond, proc, 0, r0, r1, c0, c1, src, ld, alpha); err != nil {
		panic(fmt.Sprintf("netga: infallible Acc failed: %v", err))
	}
}

// driverOp runs one un-faulted, un-accounted RPC for the driver-side
// whole-matrix ops, retrying transport errors a few times.
func (c *Client) driverOp(pool *connPool, req *request) (*response, error) {
	var err error
	for a := 0; a < 10; a++ {
		if a > 0 {
			if cerr := dist.SleepBackoff(context.Background(), 5*time.Millisecond<<uint(a-1)); cerr != nil {
				return nil, cerr
			}
		}
		req.ReqID = c.reqID.Add(1)
		var resp *response
		resp, _, err = c.doRPC(-1, pool, req)
		if err != nil {
			c.noteFailure(pool, err)
		}
		if err == nil && resp.Status != statusOK {
			return nil, fmt.Errorf("netga: %s", resp.Msg)
		}
		if err == nil {
			return resp, nil
		}
	}
	return nil, err
}

// driverOpProc is driverOp with per-attempt route resolution: the
// driver-side whole-matrix ops address blocks, and under elastic
// placement a block's owner can change (or be briefly frozen) between
// attempts.
func (c *Client) driverOpProc(proc int, req *request) (*response, error) {
	var err error
	for a := 0; a < 14; a++ {
		if a > 0 {
			if cerr := dist.SleepBackoff(context.Background(), 5*time.Millisecond<<uint(a-1)); cerr != nil {
				return nil, cerr
			}
		}
		pool, rerr := c.routeFor(proc)
		if rerr != nil {
			err = rerr
			continue
		}
		req.ReqID = c.reqID.Add(1)
		var resp *response
		resp, _, err = c.doRPC(-1, pool, req)
		if err != nil {
			c.noteFailure(pool, err)
			continue
		}
		if resp.Status != statusOK {
			return nil, fmt.Errorf("netga: %s", resp.Msg)
		}
		return resp, nil
	}
	return nil, err
}

// Checkpoint advances the dedup-eviction generation on every shard: the
// driver calls it at a session checkpoint (an SCF iteration boundary),
// when no accumulate can still be retrying, so tokens are only ever
// evicted a full generation after their op completed. Elastic mode
// checkpoints every member currently hosting a block — migrated tokens
// travel with their blocks, so those members hold all live tokens.
func (c *Client) Checkpoint() error {
	req := request{Op: opCheckpoint, Session: c.cfg.Session, Proc: -1}
	if !c.elastic {
		for _, pool := range c.pools {
			if _, err := c.driverOp(pool, &req); err != nil {
				return fmt.Errorf("netga: checkpoint: %w", err)
			}
		}
		return nil
	}
	done := map[*connPool]bool{}
	for p := 0; p < c.grid.NumProcs(); p++ {
		pool, err := c.routeFor(p)
		if err == nil && done[pool] {
			continue
		}
		if _, err := c.driverOpProc(p, &req); err != nil {
			return fmt.Errorf("netga: checkpoint: %w", err)
		}
		if pool != nil {
			done[pool] = true
		}
	}
	return nil
}

// Bye releases this client's session on every shard (multi-session
// servers free the session's arrays and dedup state; single-session
// servers reject the op, which is harmless). Callers invoke it once per
// job, after the last build of the session, before Close.
func (c *Client) Bye() error {
	req := request{Op: opBye, Session: c.cfg.Session, Proc: -1}
	var firstErr error
	for _, pool := range c.pools {
		if _, err := c.driverOp(pool, &req); err != nil && firstErr == nil {
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
	_, err := c.driverOpProc(c.blobProc(key), &req)
	return err
}

// GetBlob fetches a spill blob into dst. Every failure — a shard that
// restarted (blobs are volatile by design), a miss, a transport error —
// surfaces as an error the store maps to a recompute.
func (c *Client) GetBlob(key uint64, dst []float64) ([]float64, error) {
	req := request{Op: opGetBlob, Session: c.cfg.Session, Token: key, Proc: -1}
	resp, err := c.driverOpProc(c.blobProc(key), &req)
	if err != nil {
		return nil, err
	}
	return append(dst[:0], resp.Data...), nil
}

// LoadMatrix distributes a dense matrix to the shard servers, one Put
// per grid block (driver-side: not accounted, not fault-injected).
// Callers that can recover from a dead fleet — a multi-tenant daemon
// that must not crash on one job's shard loss — use LoadMatrixErr.
func (c *Client) LoadMatrix(m *linalg.Matrix) {
	if err := c.LoadMatrixErr(m); err != nil {
		panic(fmt.Sprintf("netga: LoadMatrix: %v", err))
	}
}

// LoadMatrixErr is LoadMatrix with the transport failure surfaced as an
// error instead of a panic; core.Build prefers it when the backend
// provides it, turning a shard lost mid-build into a failed (retryable)
// build rather than a crashed process.
func (c *Client) LoadMatrixErr(m *linalg.Matrix) error {
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
		if _, err := c.driverOpProc(p.Proc, &req); err != nil {
			return err
		}
	}
	return nil
}

// ToMatrix gathers the full array from the shard servers, one Get per
// grid block (driver-side; see LoadMatrix and ToMatrixErr).
func (c *Client) ToMatrix() *linalg.Matrix {
	m, err := c.ToMatrixErr()
	if err != nil {
		panic(fmt.Sprintf("netga: ToMatrix: %v", err))
	}
	return m
}

// ToMatrixErr is ToMatrix with failures surfaced as errors (see
// LoadMatrixErr).
func (c *Client) ToMatrixErr() (*linalg.Matrix, error) {
	m := linalg.NewMatrix(c.grid.Rows, c.grid.Cols)
	for _, p := range c.grid.Patches(0, c.grid.Rows, 0, c.grid.Cols) {
		req := request{
			Op: opGet, Array: c.cfg.Array, Session: c.cfg.Session, Proc: -1,
			R0: int32(p.R0), R1: int32(p.R1), C0: int32(p.C0), C1: int32(p.C1),
		}
		resp, err := c.driverOpProc(p.Proc, &req)
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
