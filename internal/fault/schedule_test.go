package fault

import (
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// Fault kinds of the scenario tests (Event.Kind).
const (
	kill = iota
	restart
	join
	leave
)

func TestServerKillPlanDeterministic(t *testing.T) {
	var pairs []Event // kill-restart pairs, round robin over three slots
	for i := 0; i < 6; i++ {
		pairs = append(pairs, Event{Kind: kill, Target: i % 3}, Event{Kind: restart, Target: i % 3})
	}
	checkPlan(t, 7, pairs, 100, 1000)
	checkPlan(t, 8, pairs, 50, 50) // an empty window holds minAt alone
}

func TestMembershipChurnPlanDeterministic(t *testing.T) {
	checkPlan(t, 11, []Event{{Kind: join}, {Kind: leave, Target: 2}, {Kind: kill, Target: 1}}, 20, 400)
}

func TestDaemonKillPlanDeterministic(t *testing.T) {
	checkPlan(t, 43, []Event{{Kind: kill, Target: 1}}, 5, 6)
	if plan := Plan(7, nil, 100, 1000); plan != nil {
		t.Fatalf("no events gave plan %+v, want empty", plan)
	}
}

// checkPlan asserts that Plan(seed, events, minAt, maxAt) is determined by
// its seed, keeps the kind, target and order of events, and draws its op
// counts ascending inside the window.
func checkPlan(t *testing.T, seed int64, events []Event, minAt, maxAt int64) {
	t.Helper()
	plan := Plan(seed, events, minAt, maxAt)
	if !reflect.DeepEqual(plan, Plan(seed, events, minAt, maxAt)) {
		t.Fatal("same seed drew different plans")
	}
	hi := max(maxAt, minAt+1) // an empty window holds minAt alone
	if hi-minAt > 1 && reflect.DeepEqual(plan, Plan(seed+1, events, minAt, maxAt)) {
		t.Fatal("different seeds drew identical plans")
	}
	if len(plan) != len(events) {
		t.Fatalf("plan has %d events, want %d", len(plan), len(events))
	}
	for i, e := range plan {
		if e.Kind != events[i].Kind || e.Target != events[i].Target {
			t.Fatalf("event %d is %+v, want the kind and target of %+v", i, e, events[i])
		}
		if e.At < minAt || e.At >= hi {
			t.Fatalf("event %d at %d, outside [%d,%d)", i, e.At, minAt, hi)
		}
	}
	if !slices.IsSortedFunc(plan, func(a, b Event) int { return int(a.At - b.At) }) {
		t.Fatalf("plan not sorted by At: %+v", plan)
	}
	if events[0].At != 0 {
		t.Fatal("Plan wrote to the caller's events")
	}
}

func TestRunServerKillsExecutesSchedule(t *testing.T) {
	plan := []Event{{Kind: kill, At: 3}, {Kind: restart, At: 3}, {Kind: kill, Target: 1, At: 5},
		{Kind: restart, Target: 1, At: 40}}
	checkSchedule(t, plan, 1, 10, []int{kill, restart, kill})
}

func TestRunMembershipChurnExecutesSchedule(t *testing.T) {
	plan := []Event{{Kind: join, At: 3}, {Kind: leave, At: 5}, {Kind: kill, At: 40}, {Kind: join, At: 1000}}
	checkSchedule(t, plan, 8, 25, []int{join, leave, kill})
}

func TestRunDaemonKillsExecutesSchedule(t *testing.T) {
	plan := []Event{{Kind: kill, At: 3}, {Kind: kill, Target: 1, At: 1000}}
	checkSchedule(t, plan, 8, 25, []int{kill})
	checkSchedule(t, plan, 2, 1, nil) // never due
}

// checkSchedule ticks a schedule of plan from tickers goroutines, ops
// times each, and asserts that the events due fired in plan order (their
// kinds are want) and that no op passed an event's count before the
// event's callback returned: while an event fires, a probe op enters Tick
// at a count past the event's, and must wait until the callback is done.
func checkSchedule(t *testing.T, plan []Event, tickers, ops int, want []int) {
	t.Helper()
	var s *Schedule
	var probes sync.WaitGroup
	var violations atomic.Int64
	var fired []int
	s = NewSchedule(plan, func(e Event) {
		fired = append(fired, e.Kind)
		passed := make(chan struct{})
		probes.Add(1)
		go func() {
			defer probes.Done()
			s.Tick()
			close(passed)
		}()
		for i := 0; i < 100; i++ {
			runtime.Gosched()
		}
		select {
		case <-passed:
			violations.Add(1)
		default:
		}
	})
	var wg sync.WaitGroup
	for g := 0; g < tickers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				s.Tick()
			}
		}()
	}
	wg.Wait()
	probes.Wait()
	if n := violations.Load(); n > 0 {
		t.Fatalf("%d events saw an op pass their count before their callback returned", n)
	}
	if !slices.Equal(fired, want) {
		t.Fatalf("fired %v, want %v in plan order", fired, want)
	}
}
