package netga

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gtfock/internal/dist"
	"gtfock/internal/metrics"
)

// View-refresh attempts back off exponentially with jitter: a dead fleet
// or slow membership convergence must not hot-spin the router through
// fleet lookups on every retry.
const (
	failoverBackoffMin = 10 * time.Millisecond
	minViewRefresh     = 5 * time.Millisecond
)

// probeDelay jitters a refresh backoff over [wait/3, wait): never later
// than the nominal wait, because a build's bounded recovery rounds are
// spent waiting for the next view that names a promoted member.
func probeDelay(wait time.Duration) time.Duration { return dist.Jitter(wait * 2 / 3) }

// Router is the shared routing state of one driver process: for each
// shard server slot, the address currently serving it and the shard fence
// epoch the client believes that server is at. One Router is shared by
// the D and F clients, so a view that names a promoted member reroutes
// both. The router never promotes: the fleet coordinator is the one
// promoter (fleet.go), and the promoted epoch fences the old primary at
// the servers themselves.
type Router struct {
	opTimeout time.Duration
	rpc       *metrics.RPC

	mu    sync.Mutex
	slots []routeSlot

	// Routing goes through a view: the block -> member placement, and one
	// slot per member. A fleet router (fleetAddr != "") fetches the view the
	// coordinator publishes and allocates slots as members appear; slots
	// are append-only — a member that leaves keeps its index (nothing
	// routes to it), so connection pools keyed by slot stay valid across
	// churn. A static router has no fleet to ask: Dial pins a fixed view
	// over its address list (generation 0, member i+1 in slot i) that is
	// never refreshed.
	fleetAddr     string
	view          *FleetView
	slotOf        map[uint64]int // member ID -> slot index
	nextRefreshAt time.Time
	refreshWait   time.Duration

	// The clients routed here share their conns and their hellos: one
	// conn pool per slot (allocated as slots are first routed to; slots
	// are append-only, so pools stay valid across churn) drawing on conns,
	// and the slots each session has said hello to. conns is the router's
	// own unless the router was given a shared one (NewSession).
	poolsMu  sync.Mutex
	pools    []*connPool
	helloed  map[helloKey]bool
	conns    *Conns
	ownConns bool
}

// helloKey names one session's hello to one slot.
type helloKey struct {
	slot    int
	session uint64
}

type routeSlot struct {
	id    uint64 // member ID (slot index + 1 on a static router)
	addr  string
	epoch uint64
}

// NewRouter creates static routing state for the given shard servers.
// rpc nil gets a private counter set.
func NewRouter(addrs []string, opTimeout time.Duration, rpc *metrics.RPC) *Router {
	if opTimeout <= 0 {
		opTimeout = 2 * time.Second
	}
	if rpc == nil {
		rpc = &metrics.RPC{}
	}
	rt := &Router{opTimeout: opTimeout, rpc: rpc, slots: make([]routeSlot, len(addrs)), slotOf: map[uint64]int{},
		helloed: map[helloKey]bool{}, conns: NewConns(), ownConns: true}
	for i, a := range addrs {
		rt.slots[i] = routeSlot{id: uint64(i + 1), addr: a, epoch: 1}
		rt.slotOf[uint64(i+1)] = i
	}
	return rt
}

// pin installs the fixed view of a static dial: assign[p] is the slot
// hosting proc p, at placement generation 0 — which servers read as "no
// placement fence". Only the block -> member map is taken from the view;
// addresses stay in the slots.
func (rt *Router) pin(assign []int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	members := make([]Member, len(rt.slots))
	for i := range members {
		members[i].ID = rt.slots[i].id
	}
	rt.view = &FleetView{Placement: Placement{Members: members, Assign: append([]int(nil), assign...)}}
}

// NewFleetRouter creates elastic routing state fed by the fleet
// coordinator at fleetAddr. Slots appear as members do; callers must
// RefreshView before the first route. rpc nil gets a private counter set.
func NewFleetRouter(fleetAddr string, opTimeout time.Duration, rpc *metrics.RPC) *Router {
	if opTimeout <= 0 {
		opTimeout = 2 * time.Second
	}
	if rpc == nil {
		rpc = &metrics.RPC{}
	}
	return &Router{
		opTimeout: opTimeout,
		rpc:       rpc,
		fleetAddr: fleetAddr,
		slotOf:    map[uint64]int{},
		helloed:   map[helloKey]bool{},
		conns:     NewConns(),
		ownConns:  true,
	}
}

// shareConns makes the router draw its conns from cs, which outlives it,
// instead of its own. Call it before the first route.
func (rt *Router) shareConns(cs *Conns) {
	rt.conns, rt.ownConns = cs, false
}

// pool returns slot's conn pool, allocating pools up to it, and whether
// session has said hello to the slot.
func (rt *Router) pool(slot int, session uint64) (*connPool, bool) {
	rt.poolsMu.Lock()
	defer rt.poolsMu.Unlock()
	for slot >= len(rt.pools) {
		rt.pools = append(rt.pools, &connPool{router: rt, slot: len(rt.pools), timeout: rt.opTimeout, rpc: rt.rpc})
	}
	return rt.pools[slot], rt.helloed[helloKey{slot, session}]
}

// helloDone records that session has said hello to slot.
func (rt *Router) helloDone(slot int, session uint64) {
	rt.poolsMu.Lock()
	rt.helloed[helloKey{slot, session}] = true
	rt.poolsMu.Unlock()
}

// helloedPools returns the pools of the slots session has said hello to.
func (rt *Router) helloedPools(session uint64) []*connPool {
	rt.poolsMu.Lock()
	defer rt.poolsMu.Unlock()
	var out []*connPool
	for slot, p := range rt.pools {
		if rt.helloed[helloKey{slot, session}] {
			out = append(out, p)
		}
	}
	return out
}

// closeConns closes the router's own idle conns; a shared Conns is its
// owner's to close.
func (rt *Router) closeConns() {
	if rt.ownConns {
		rt.conns.Close()
	}
}

// Slots returns the number of shard server slots routed.
func (rt *Router) Slots() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.slots)
}

// elastic reports whether this router follows a fleet coordinator's view.
func (rt *Router) elastic() bool { return rt.fleetAddr != "" }

// pgen returns the placement generation requests must carry (0 under a
// static dial's fixed view, where servers skip the placement fence).
func (rt *Router) pgen() uint64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.view == nil {
		return 0
	}
	return rt.view.Placement.Gen
}

// slotFor resolves the slot hosting grid proc p under the current view.
// A negative slot means the view does not (yet) assign the block — the
// caller refreshes and retries.
func (rt *Router) slotFor(p int) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.view == nil {
		return -1
	}
	m := rt.view.Placement.MemberOf(p)
	if m == nil {
		return -1
	}
	slot, ok := rt.slotOf[m.ID]
	if !ok {
		return -1
	}
	return slot
}

// RefreshView fetches the fleet view, throttled (frequent callers inside
// a retry loop collapse to one fetch per interval) and with jittered
// capped backoff after failures so a dead fleet or slow convergence
// doesn't hot-spin the lookup path. A throttled call returns nil: the
// caller routes on the view it has. A static router has no fleet to ask
// and keeps its fixed view.
func (rt *Router) RefreshView() error { return rt.refreshView(false) }

func (rt *Router) refreshView(force bool) error {
	rt.mu.Lock()
	if rt.fleetAddr == "" {
		rt.mu.Unlock()
		return errors.New("netga: router has no fleet")
	}
	now := time.Now()
	if !force && now.Before(rt.nextRefreshAt) {
		rt.mu.Unlock()
		return nil
	}
	rt.nextRefreshAt = now.Add(rt.opTimeout) // hold off others while in flight
	addr := rt.fleetAddr
	rt.mu.Unlock()

	resp, err := oneShotRPC(addr, &request{Op: opView}, rt.opTimeout)
	var v *FleetView
	if err == nil {
		if resp.Status != statusOK {
			err = fmt.Errorf("netga: fleet view: %s", resp.Msg)
		} else {
			v, err = decodeView(resp.Msg)
		}
	}
	if err != nil {
		rt.mu.Lock()
		if rt.refreshWait = dist.NextBackoff(rt.refreshWait); rt.refreshWait == 0 {
			rt.refreshWait = failoverBackoffMin
		}
		rt.nextRefreshAt = time.Now().Add(probeDelay(rt.refreshWait))
		rt.mu.Unlock()
		return err
	}
	rt.applyView(v)
	atomic.AddInt64(&rt.rpc.ViewRefreshes, 1)
	rt.mu.Lock()
	rt.refreshWait = 0
	rt.nextRefreshAt = time.Now().Add(minViewRefresh)
	rt.mu.Unlock()
	return nil
}

// applyView folds a fetched view into the routing state: new members get
// fresh slots, known members update in place (an address change is a
// promotion or a durable restart elsewhere). Stale views (older ViewGen)
// are dropped.
func (rt *Router) applyView(v *FleetView) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.view != nil && v.ViewGen < rt.view.ViewGen {
		return
	}
	if rt.view != nil && v.ViewGen == rt.view.ViewGen && v.Placement.Gen < rt.view.Placement.Gen {
		return
	}
	for _, m := range v.Placement.Members {
		slot, ok := rt.slotOf[m.ID]
		if !ok {
			slot = len(rt.slots)
			rt.slots = append(rt.slots, routeSlot{id: m.ID, addr: m.Addr, epoch: 1})
			rt.slotOf[m.ID] = slot
		}
		s := &rt.slots[slot]
		s.addr = m.Addr
		if m.Epoch > s.epoch {
			s.epoch = m.Epoch
		}
	}
	rt.view = v
}

// addr returns the address currently serving slot.
func (rt *Router) addr(slot int) string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.slots[slot].addr
}

// epoch returns the shard fence epoch the router believes slot is at.
func (rt *Router) epoch(slot int) uint64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.slots[slot].epoch
}

// observe folds a response's shard epoch into the routing state: servers
// report their epoch on every answer, so clients resync for free after the
// fleet promotes a member. Epochs only move forward.
func (rt *Router) observe(slot int, sepoch uint64) {
	if sepoch == 0 {
		return
	}
	rt.mu.Lock()
	if sepoch > rt.slots[slot].epoch {
		rt.slots[slot].epoch = sepoch
	}
	rt.mu.Unlock()
}
