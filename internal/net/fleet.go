package netga

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gtfock/internal/dist"
	"gtfock/internal/metrics"
)

// Fleet is the lease-based membership and placement coordinator of an
// elastic shard fleet. Members join with an id and address, renew their
// lease by heartbeat, and leave gracefully; the fleet publishes a
// versioned FleetView (membership + block->member placement) that clients
// route by, and runs the block-migration engine that moves shard state
// when the membership changes.
//
// The failure detector is deterministic: a member is acted on only after
// its lease has expired by the fleet's clock — never on a missed packet
// or a slow RPC. An expired member with a hot standby is promoted by an
// epoch-fenced opPromote, and the fleet is the one promoter: no client
// sends it, because a client's failed RPC cannot tell a dead primary from
// a live one it cannot reach. An expired member without a standby keeps
// its blocks pinned until it rejoins from its journal, trading
// availability for never fabricating state.
//
// Split-brain safety does not rest on the detector being right: even if
// the fleet declares a live member dead, every cutover leg is fenced. The
// migration engine per moved block runs
//
//	freeze(src) -> install(dst) -> fence(src, gen+1, drop) ->
//	fence(dst, gen+1) -> publish(gen+1)
//
// in that order. The freeze is journaled and replicated at the source, so
// no crash or failover un-freezes a block mid-move; the source is fenced
// and drops the block BEFORE the new map is published, so by the time any
// client can route a write to the new owner, the old owner already
// refuses the block; and the frozen copy is immutable, so retrying any
// leg is idempotent. Dedup tokens travel with the block state, which is
// what keeps accumulate exactly-once across the cutover: an Acc acked by
// the source is a duplicate at the destination, and an Acc refused by the
// freeze was never applied anywhere.
//
// The fleet itself is a single coordinator process (its crash is outside
// this PR's fault model; members and clients keep serving on the last
// published view, and DESIGN.md §10 records the restart procedure).
type Fleet struct {
	connLoop // its mu is also the coordinator's state mutex

	grid *dist.Grid2D
	cfg  FleetConfig

	members map[uint64]*fleetMember
	view    FleetView
	moves   []*blockMove // pending cutovers toward the current target
	nextGen uint64       // placement generation allocator

	kick chan struct{}
	stop chan struct{}

	st FleetStats // counters, updated with atomics; Stats adds the gauges
}

// FleetConfig tunes a Fleet.
type FleetConfig struct {
	// LeaseTTL is how long a member stays live without a heartbeat
	// (default 1.5s). Members heartbeat at TTL/3.
	LeaseTTL time.Duration
	// SweepEvery is the failure-detector and migration-engine cadence
	// (default LeaseTTL/4).
	SweepEvery time.Duration
	// OpTimeout bounds one RPC to a shard server (default 2s).
	OpTimeout time.Duration
	// Clock is the failure detector's time source (default time.Now);
	// injectable so lease-expiry tests are deterministic.
	Clock func() time.Time
}

type fleetMember struct {
	Member
	leaving bool
	dead    bool // lease expired with no standby; blocks pinned until rejoin
}

// blockMove is one block's cutover, tracked as an explicit state machine
// so a failed leg resumes where it stopped instead of re-running earlier
// legs (re-freezing after publish could clobber post-cutover writes).
type blockMove struct {
	proc         int
	srcID, dstID uint64 // srcID 0: bootstrap install of an unassigned block
	stage        int
	gen          uint64 // generation this cutover publishes (allocated at first fence)
	session      uint64
	tokens       []uint64
	data         []float64
}

const (
	moveFreeze   = iota // freeze the block at the source, capture state + tokens
	moveInstall         // install state at the destination
	moveFenceSrc        // source adopts gen+1 and drops the block
	moveFenceDst        // destination adopts gen+1
	movePublish         // flip the published map
	moveDone
)

// NewFleet creates a coordinator for the given grid's blocks.
func NewFleet(grid *dist.Grid2D, cfg FleetConfig) *Fleet {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 1500 * time.Millisecond
	}
	if cfg.SweepEvery <= 0 {
		cfg.SweepEvery = cfg.LeaseTTL / 4
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 2 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	f := &Fleet{
		grid:    grid,
		cfg:     cfg,
		members: map[uint64]*fleetMember{},
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		nextGen: 1,
	}
	// Generation 1 from the start: elastic clients always route with a
	// nonzero PGen, so the placement fence is armed on the first request.
	f.view.Placement = Placement{Gen: 1, Assign: unassigned(grid.NumProcs())}
	return f
}

func unassigned(n int) []int {
	a := make([]int, n)
	for i := range a {
		a[i] = -1
	}
	return a
}

// Start listens on addr and runs the conn loop and the membership /
// migration engine until Close. Returns the bound address.
func (f *Fleet) Start(addr string) (string, error) {
	bound, err := f.listen(addr, func(_ *frameConn, req *request, bad error) (response, bool) {
		if bad != nil {
			return errResp(0, "%v", bad), false
		}
		return f.handle(req), false
	})
	if err != nil {
		return "", err
	}
	f.wg.Add(1)
	go f.engine()
	return bound, nil
}

// Close stops the coordinator. Members and clients keep operating on the
// last published view.
func (f *Fleet) Close() {
	f.mu.Lock()
	open := f.closeLocked()
	f.mu.Unlock()
	if open {
		close(f.stop)
		f.join()
	}
}

func (f *Fleet) handle(req *request) response {
	switch req.Op {
	case opPing:
		return response{ReqID: req.ReqID}
	case opJoin:
		return f.handleJoin(req)
	case opLease:
		return f.handleLease(req)
	case opLeave:
		return f.handleLeave(req)
	case opView:
		return f.handleView(req)
	}
	return errResp(req.ReqID, "netga: fleet does not serve op %d", req.Op)
}

// handleJoin registers a member (or re-registers a rejoining one — same
// id, equal-or-higher incarnation, possibly a new address after a durable
// restart). The response carries the current view.
func (f *Fleet) handleJoin(req *request) response {
	var m Member
	if err := json.Unmarshal([]byte(req.Msg), &m); err != nil {
		return errResp(req.ReqID, "netga: join: %v", err)
	}
	if m.ID == 0 || m.Addr == "" {
		return errResp(req.ReqID, "netga: join requires a nonzero id and an address")
	}
	if m.Epoch == 0 {
		m.Epoch = 1
	}
	f.mu.Lock()
	ex := f.members[m.ID]
	switch {
	case ex == nil:
		m.LeaseExpiry = f.cfg.Clock().Add(f.cfg.LeaseTTL).UnixNano()
		f.members[m.ID] = &fleetMember{Member: m}
		atomic.AddInt64(&f.st.Joins, 1)
		f.bumpViewLocked()
	case m.Incarnation >= ex.Incarnation:
		changed := ex.Addr != m.Addr || ex.Standby != m.Standby || ex.dead
		ex.Addr = m.Addr
		ex.Standby = m.Standby
		if m.Epoch > ex.Epoch {
			ex.Epoch = m.Epoch
		}
		ex.Incarnation = m.Incarnation
		ex.dead = false
		ex.LeaseExpiry = f.cfg.Clock().Add(f.cfg.LeaseTTL).UnixNano()
		atomic.AddInt64(&f.st.Rejoins, 1)
		if changed {
			f.bumpViewLocked()
		}
	default:
		f.mu.Unlock()
		return errResp(req.ReqID, "netga: join of %d at incarnation %d, fleet has %d", m.ID, m.Incarnation, ex.Incarnation)
	}
	view := encodeView(&f.view)
	f.mu.Unlock()
	f.kickEngine()
	return response{ReqID: req.ReqID, Msg: view}
}

// handleLease renews a member's lease. An unknown member (expired and
// garbage-collected, or a fleet restart) gets statusRetry so it rejoins.
func (f *Fleet) handleLease(req *request) response {
	var m Member
	if err := json.Unmarshal([]byte(req.Msg), &m); err != nil {
		return errResp(req.ReqID, "netga: lease: %v", err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ex := f.members[m.ID]
	if ex == nil {
		return retryResp(req.ReqID, "netga: unknown member %d: rejoin", m.ID)
	}
	if m.Incarnation < ex.Incarnation {
		// A superseded incarnation (the fleet promoted this member's standby
		// or accepted a newer restart) must not resurrect the old lease.
		return retryResp(req.ReqID, "netga: member %d incarnation %d superseded by %d: rejoin", m.ID, m.Incarnation, ex.Incarnation)
	}
	ex.LeaseExpiry = f.cfg.Clock().Add(f.cfg.LeaseTTL).UnixNano()
	if m.Epoch > ex.Epoch {
		ex.Epoch = m.Epoch
	}
	if m.Standby != ex.Standby {
		ex.Standby = m.Standby
		f.bumpViewLocked()
	}
	if ex.dead {
		ex.dead = false
		f.bumpViewLocked()
	}
	return response{ReqID: req.ReqID, PGen: f.view.Placement.Gen}
}

// handleLeave starts a graceful leave: the member is excluded from future
// placement targets and the engine drains its blocks; once it hosts
// nothing it is removed from the view. The member must keep serving until
// then (poll ViewHostedBy or the fleet view).
func (f *Fleet) handleLeave(req *request) response {
	var m Member
	if err := json.Unmarshal([]byte(req.Msg), &m); err != nil {
		return errResp(req.ReqID, "netga: leave: %v", err)
	}
	f.mu.Lock()
	if ex := f.members[m.ID]; ex != nil && !ex.leaving {
		ex.leaving = true
		// A leaver stops heartbeating; its lease must not expire it into
		// dead (which would pin the very blocks the drain must move).
		ex.LeaseExpiry = f.cfg.Clock().Add(24 * time.Hour).UnixNano()
	}
	f.mu.Unlock()
	f.kickEngine()
	return response{ReqID: req.ReqID}
}

func (f *Fleet) handleView(req *request) response {
	f.mu.Lock()
	view := encodeView(&f.view)
	f.mu.Unlock()
	atomic.AddInt64(&f.st.ViewsServed, 1)
	return response{ReqID: req.ReqID, Msg: view}
}

// View returns a deep copy of the published view.
func (f *Fleet) View() FleetView {
	f.mu.Lock()
	defer f.mu.Unlock()
	v := f.view
	v.Placement.Members = append([]Member(nil), f.view.Placement.Members...)
	v.Placement.Assign = append([]int(nil), f.view.Placement.Assign...)
	return v
}

func (f *Fleet) kickEngine() {
	select {
	case f.kick <- struct{}{}:
	default:
	}
}

// bumpViewLocked rebuilds the published membership (every non-left
// member, sorted by id) and remaps the block assignment onto it by
// member id. Placement.Gen is untouched — membership changes and map
// flips are versioned independently. Caller holds f.mu.
func (f *Fleet) bumpViewLocked() {
	old := f.view.Placement
	ms := make([]Member, 0, len(f.members))
	for _, m := range f.members {
		ms = append(ms, m.Member)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
	idx := make(map[uint64]int, len(ms))
	for k, m := range ms {
		idx[m.ID] = k
	}
	assign := make([]int, f.grid.NumProcs())
	for p := range assign {
		assign[p] = -1
		if om := old.MemberOf(p); om != nil {
			if k, ok := idx[om.ID]; ok {
				assign[p] = k
			}
		}
	}
	f.view.Placement = Placement{Gen: old.Gen, Members: ms, Assign: assign}
	f.view.ViewGen++
}

// engine is the coordinator loop: sweep the failure detector, then drive
// pending block moves toward the current placement target.
func (f *Fleet) engine() {
	defer f.wg.Done()
	for {
		select {
		case <-f.stop:
			return
		case <-f.kick:
		case <-time.After(f.cfg.SweepEvery):
		}
		f.sweep()
		f.reconcile()
	}
}

// sweep is the failure detector: members whose lease expired are promoted
// (standby available) or marked dead (blocks pinned until rejoin).
func (f *Fleet) sweep() {
	now := f.cfg.Clock().UnixNano()
	var promote []uint64
	f.mu.Lock()
	for _, m := range f.members {
		if m.dead || m.leaving || m.LeaseExpiry > now {
			continue
		}
		if m.Standby != "" {
			promote = append(promote, m.ID)
		} else {
			m.dead = true
			atomic.AddInt64(&f.st.Expiries, 1)
			f.bumpViewLocked()
		}
	}
	f.mu.Unlock()
	for _, id := range promote {
		f.promoteMember(id)
	}
}

// promoteMember fails an expired member over to its standby with an
// epoch-fenced opPromote, the only one sent. A retried promotion whose
// ack was lost is safe: the op is idempotent at a given epoch.
func (f *Fleet) promoteMember(id uint64) {
	f.mu.Lock()
	m := f.members[id]
	if m == nil || m.Standby == "" {
		f.mu.Unlock()
		return
	}
	target, epoch := m.Standby, m.Epoch
	f.mu.Unlock()
	req := request{Op: opPromote, SEpoch: epoch + 1}
	resp, err := oneShotRPC(target, &req, f.cfg.OpTimeout)
	if err != nil {
		return // next sweep retries
	}
	newEpoch := epoch + 1
	if resp.Status != statusOK {
		if resp.SEpoch <= epoch {
			return
		}
		newEpoch = resp.SEpoch // promotion already done at a higher fence
	}
	f.mu.Lock()
	if m := f.members[id]; m != nil && m.Standby == target {
		m.Addr = target
		m.Standby = ""
		if newEpoch > m.Epoch {
			m.Epoch = newEpoch
		}
		m.Incarnation++
		m.dead = false
		m.LeaseExpiry = f.cfg.Clock().Add(f.cfg.LeaseTTL).UnixNano()
		atomic.AddInt64(&f.st.Promotions, 1)
		atomic.AddInt64(&f.st.Expiries, 1)
		f.bumpViewLocked()
	}
	f.mu.Unlock()
}

// reconcile plans moves toward the rebalanced target (when none are
// pending) and advances every pending move as far as its legs succeed.
func (f *Fleet) reconcile() {
	f.mu.Lock()
	if len(f.moves) == 0 {
		f.planMovesLocked()
	}
	moves := f.moves
	f.mu.Unlock()
	progressed := false
	for _, mv := range moves {
		select {
		case <-f.stop:
			return
		default:
		}
		if f.stepMove(mv) {
			progressed = true
		}
	}
	f.mu.Lock()
	done := 0
	for _, mv := range f.moves {
		if mv.stage == moveDone {
			done++
		}
	}
	if done == len(f.moves) {
		f.moves = nil
		f.finishLeavesLocked()
	}
	f.mu.Unlock()
	if progressed {
		f.kickEngine() // keep converging without waiting out the sweep interval
	}
}

// planMovesLocked diffs the published placement against the rebalanced
// target over the current membership (leavers excluded; dead members kept
// so their pinned blocks are not reassigned into thin air) and queues one
// blockMove per difference. Caller holds f.mu.
func (f *Fleet) planMovesLocked() {
	var active []Member
	for _, m := range f.members {
		if !m.leaving {
			active = append(active, m.Member)
		}
	}
	if len(active) == 0 {
		return
	}
	cur := f.view.Placement
	target := Rebalance(&cur, f.grid.NumProcs(), active)
	for p, k := range target.Assign {
		if k < 0 {
			continue
		}
		dst := target.Members[k]
		curM := cur.MemberOf(p)
		if curM != nil && curM.ID == dst.ID {
			continue
		}
		mv := &blockMove{proc: p, dstID: dst.ID, stage: moveFreeze}
		if curM == nil {
			mv.stage = moveInstall // bootstrap: nothing to freeze or fence
		} else {
			mv.srcID = curM.ID
		}
		f.moves = append(f.moves, mv)
	}
}

// stepMove advances one move through its remaining legs until one fails
// (left pending for the next round) or it completes. Reports progress.
func (f *Fleet) stepMove(mv *blockMove) bool {
	progressed := false
	for mv.stage != moveDone {
		var err error
		switch mv.stage {
		case moveFreeze:
			err = f.doFreeze(mv)
		case moveInstall:
			err = f.doInstall(mv)
		case moveFenceSrc:
			if mv.gen == 0 {
				mv.gen = f.allocGen()
			}
			err = f.doSetGen(mv.srcID, mv.gen, mv.proc)
		case moveFenceDst:
			if mv.gen == 0 {
				mv.gen = f.allocGen()
			}
			err = f.doSetGen(mv.dstID, mv.gen, -1)
		case movePublish:
			err = f.publishMove(mv)
		}
		if err != nil {
			return progressed
		}
		if mv.stage == moveInstall {
			mv.data, mv.tokens = nil, nil // installed; free the copied state
		}
		mv.stage++
		if mv.stage == moveFenceSrc && mv.srcID == 0 {
			mv.stage = movePublish // bootstrap installs publish without fencing
		}
		progressed = true
	}
	return progressed
}

func (f *Fleet) allocGen() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.view.Placement.Gen >= f.nextGen {
		f.nextGen = f.view.Placement.Gen
	}
	f.nextGen++
	return f.nextGen
}

// memberAddr resolves a member's current serving address (it can change
// between legs when the fleet promotes the member's standby mid-move).
func (f *Fleet) memberAddr(id uint64) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.members[id]
	if m == nil {
		return "", fmt.Errorf("netga: member %d left the fleet", id)
	}
	if m.dead {
		return "", fmt.Errorf("netga: member %d expired with no standby", id)
	}
	return m.Addr, nil
}

func (f *Fleet) shardOp(id uint64, req *request) (*response, error) {
	addr, err := f.memberAddr(id)
	if err != nil {
		return nil, err
	}
	resp, err := oneShotRPC(addr, req, f.cfg.OpTimeout)
	if err != nil {
		return nil, err
	}
	if resp.Status != statusOK {
		return nil, fmt.Errorf("netga: %s: %s", addr, resp.Msg)
	}
	return resp, nil
}

func (f *Fleet) doFreeze(mv *blockMove) error {
	resp, err := f.shardOp(mv.srcID, &request{Op: opFreeze, Proc: int32(mv.proc)})
	if err != nil {
		return err
	}
	sess, err := strconv.ParseUint(resp.Msg, 10, 64)
	if err != nil {
		return fmt.Errorf("netga: freeze of proc %d returned session %q", mv.proc, resp.Msg)
	}
	mv.session = sess
	mv.tokens = resp.Tokens
	mv.data = resp.Data
	return nil
}

func (f *Fleet) doInstall(mv *blockMove) error {
	req := request{
		Op: opMigrate, Proc: int32(mv.proc),
		Session: mv.session, Tokens: mv.tokens, Data: mv.data,
	}
	_, err := f.shardOp(mv.dstID, &req)
	return err
}

func (f *Fleet) doSetGen(id uint64, gen uint64, dropProc int) error {
	_, err := f.shardOp(id, &request{Op: opSetGen, PGen: gen, Proc: int32(dropProc)})
	return err
}

// publishMove flips the published map: the moved block now routes to its
// destination at the move's generation. Publish is the LAST leg — both
// sides are fenced first, so no client can write through the old route
// once the new one is visible.
func (f *Fleet) publishMove(mv *blockMove) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := -1
	for i := range f.view.Placement.Members {
		if f.view.Placement.Members[i].ID == mv.dstID {
			k = i
			break
		}
	}
	if k < 0 {
		return fmt.Errorf("netga: move target %d not in the view", mv.dstID)
	}
	f.view.Placement.Assign[mv.proc] = k
	if mv.gen > f.view.Placement.Gen {
		f.view.Placement.Gen = mv.gen
	}
	f.view.ViewGen++
	atomic.AddInt64(&f.st.BlocksMoved, 1)
	return nil
}

// finishLeavesLocked removes drained leavers from the fleet. Caller
// holds f.mu.
func (f *Fleet) finishLeavesLocked() {
	for id, m := range f.members {
		if m.leaving && len(f.view.Placement.HostedBy(id)) == 0 {
			delete(f.members, id)
			atomic.AddInt64(&f.st.Leaves, 1)
			f.bumpViewLocked()
		}
	}
}

// FleetStats is the coordinator's counter set; Stats fills the gauges
// (members, dead, leaving, pending moves, generations) from its state.
type FleetStats struct {
	Members      int    `json:"net.fleet_members"`
	Dead         int    `json:"net.fleet_dead,omitempty"`
	Leaving      int    `json:"net.fleet_leaving,omitempty"`
	PendingMoves int    `json:"net.fleet_pending_moves,omitempty"`
	ViewGen      uint64 `json:"net.fleet_view_gen"`
	PlacementGen uint64 `json:"net.fleet_placement_gen"`
	Joins        int64  `json:"net.fleet_joins"`
	Rejoins      int64  `json:"net.fleet_rejoins,omitempty"`
	Leaves       int64  `json:"net.fleet_leaves,omitempty"`
	Expiries     int64  `json:"net.fleet_expiries,omitempty"`
	Promotions   int64  `json:"net.fleet_promotions,omitempty"`
	BlocksMoved  int64  `json:"net.fleet_blocks_moved,omitempty"`
	ViewsServed  int64  `json:"net.fleet_views_served,omitempty"`
}

// Stats snapshots the fleet counters and gauges.
func (f *Fleet) Stats() FleetStats {
	st := metrics.Load(&f.st)
	f.mu.Lock()
	defer f.mu.Unlock()
	st.Members, st.PendingMoves = len(f.members), len(f.moves)
	st.ViewGen, st.PlacementGen = f.view.ViewGen, f.view.Placement.Gen
	for _, m := range f.members {
		if m.dead {
			st.Dead++
		}
		if m.leaving {
			st.Leaving++
		}
	}
	return st
}

// WaitConverged blocks until every block is assigned and no moves are
// pending (bootstrap finished, churn drained), or the timeout passes.
func (f *Fleet) WaitConverged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		f.mu.Lock()
		// A pending target not yet planned also counts as unsettled: force
		// a plan pass so "converged" means "nothing left to do".
		if len(f.moves) == 0 {
			f.planMovesLocked()
		}
		settled := len(f.moves) == 0
		if settled {
			for _, k := range f.view.Placement.Assign {
				if k < 0 {
					settled = false
					break
				}
			}
		}
		f.mu.Unlock()
		if settled {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("netga: fleet not converged after %v", timeout)
		}
		f.kickEngine()
		time.Sleep(5 * time.Millisecond)
	}
}

// FleetMember manages one shard server's membership lifecycle: join the
// fleet, renew the lease by heartbeat, and leave gracefully (or Stop
// heartbeating so a kill is detected by lease expiry).
type FleetMember struct {
	fleetAddr string
	ttl       time.Duration
	opTimeout time.Duration

	mu   sync.Mutex
	self Member

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// JoinFleet registers self with the fleet coordinator and starts the
// heartbeat loop. ttl must match the fleet's LeaseTTL (heartbeats go out
// every ttl/3).
func JoinFleet(fleetAddr string, self Member, ttl, opTimeout time.Duration) (*FleetMember, error) {
	if ttl <= 0 {
		ttl = 1500 * time.Millisecond
	}
	if opTimeout <= 0 {
		opTimeout = 2 * time.Second
	}
	fm := &FleetMember{
		fleetAddr: fleetAddr,
		ttl:       ttl,
		opTimeout: opTimeout,
		self:      self,
		stop:      make(chan struct{}),
	}
	if err := fm.call(opJoin); err != nil {
		return nil, err
	}
	fm.wg.Add(1)
	go fm.heartbeat()
	return fm, nil
}

func (fm *FleetMember) heartbeat() {
	defer fm.wg.Done()
	t := time.NewTicker(fm.ttl / 3)
	defer t.Stop()
	for {
		select {
		case <-fm.stop:
			return
		case <-t.C:
		}
		if err := fm.call(opLease); err != nil {
			// Unknown member (fleet restart, or we were expired and our
			// incarnation superseded): a plain rejoin re-registers; a
			// superseded incarnation keeps failing, which is correct — the
			// old incarnation must not resurrect.
			fm.call(opJoin)
		}
	}
}

func (fm *FleetMember) call(op uint8) error {
	fm.mu.Lock()
	blob, err := json.Marshal(fm.self)
	fm.mu.Unlock()
	if err != nil {
		return err
	}
	resp, err := oneShotRPC(fm.fleetAddr, &request{Op: op, Msg: string(blob)}, fm.opTimeout)
	if err != nil {
		return err
	}
	if resp.Status != statusOK {
		return fmt.Errorf("netga: fleet op %d: %s", op, resp.Msg)
	}
	return nil
}

// Leave stops the heartbeat and asks the fleet for a graceful leave. The
// caller should keep its server running until the fleet view no longer
// assigns it any blocks.
func (fm *FleetMember) Leave() error {
	fm.Stop()
	return fm.call(opLeave)
}

// Stop halts the heartbeat without leaving: the lease expires and the
// fleet's failure detector takes over (standby promotion or block
// pinning). Used by kill-style teardown.
func (fm *FleetMember) Stop() {
	fm.stopOnce.Do(func() { close(fm.stop) })
	fm.wg.Wait()
}

// oneShotRPC runs a single framed RPC on a throwaway conn.
func oneShotRPC(addr string, req *request, timeout time.Duration) (*response, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	req.ReqID = 1
	bw := bufio.NewWriter(conn)
	if err := writeFrame(bw, encodeRequest(nil, req)); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	body, err := readFrame(bufio.NewReader(conn))
	if err != nil {
		return nil, err
	}
	var resp response
	if err := decodeResponse(body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
