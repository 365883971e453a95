package fault

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
)

// Event is one scheduled fault of a chaos run: a process kill, restart,
// join or leave. Kind and Target mean what the caller's fire callback
// makes of them (which process, which spare); At is the op count whose op
// fires it.
type Event struct {
	Kind   int
	Target int
	At     int64
}

// Plan draws a deterministic schedule from seed: a copy of events, in the
// order given, whose At fields are op counts drawn uniform in
// [minAt, maxAt) and sorted ascending, so the events fire in the order the
// caller listed them (a restart listed after its kill fires after it).
// The op counts depend only on (seed, len(events), minAt, maxAt), so a
// chaos run is reproducible per seed; no events give an empty plan.
func Plan(seed int64, events []Event, minAt, maxAt int64) []Event {
	if maxAt <= minAt {
		maxAt = minAt + 1
	}
	s := seed*-0x61c8864680b583eb + -0x61c8864680b583eb>>1
	s ^= s >> 31
	r := rand.New(rand.NewSource(s))
	at := make([]int64, len(events))
	for i := range at {
		at[i] = minAt + r.Int63n(maxAt-minAt)
	}
	slices.Sort(at)
	plan := slices.Clone(events)
	for i := range plan {
		plan[i].At = at[i]
	}
	return plan
}

// Schedule fires a plan in the ops of the run it disrupts: every op calls
// Tick, and the op that brings the count to an event's At fires it on its
// own goroutine before it proceeds. Ops that reach a later count meanwhile
// wait in Tick until the firing returns, so no op passes an event's count
// while the event is still being applied, however the goroutines are
// scheduled. There is no clock, goroutine or poll.
type Schedule struct {
	plan []Event
	fire func(Event)

	ops  atomic.Int64
	next atomic.Int64 // At of the first unfired event; MaxInt64 once all fired

	mu      sync.Mutex // held while an event fires
	pending int        // index of the first unfired event
}

// NewSchedule returns a schedule firing plan (sorted by At, as Plan
// returns it) through fire. fire runs with the schedule's lock held, so it
// must not Tick the same schedule.
func NewSchedule(plan []Event, fire func(Event)) *Schedule {
	s := &Schedule{plan: plan, fire: fire}
	s.next.Store(s.at(0))
	return s
}

func (s *Schedule) at(i int) int64 {
	if i < len(s.plan) {
		return s.plan[i].At
	}
	return math.MaxInt64
}

// Tick counts one op and, when the count has reached the next event's At,
// fires every due event before returning. With nothing due it costs one
// atomic add and one compare.
func (s *Schedule) Tick() {
	n := s.ops.Add(1)
	if n < s.next.Load() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for ; s.pending < len(s.plan) && s.plan[s.pending].At <= n; s.pending++ {
		s.fire(s.plan[s.pending])
		s.next.Store(s.at(s.pending + 1))
	}
}
