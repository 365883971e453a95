package dist

// Event is a scheduled DES event: process Proc acts next at virtual time
// At. A simulator keeps one event per live process in the heap.
type Event struct {
	At   float64
	Proc int
}

// Before orders events by time, ties by process id for determinism.
func (e Event) Before(o Event) bool {
	if e.At != o.At {
		return e.At < o.At
	}
	return e.Proc < o.Proc
}

// EventHeap is a min-heap of events in Before order.
type EventHeap []Event

func (h EventHeap) Len() int            { return len(h) }
func (h EventHeap) Less(i, j int) bool  { return h[i].Before(h[j]) }
func (h EventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *EventHeap) Push(x interface{}) { *h = append(*h, x.(Event)) }
func (h *EventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// PushEvent adds an event (allocation-free sift-up; equivalent to
// heap.Push but without interface boxing — the simulators push hundreds
// of millions of events).
func PushEvent(h *EventHeap, e Event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.Less(i, parent) {
			break
		}
		s.Swap(i, parent)
		i = parent
	}
}

// PopEvent removes and returns the earliest event.
func PopEvent(h *EventHeap) Event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && s.Less(l, smallest) {
			smallest = l
		}
		if r < n && s.Less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s.Swap(i, smallest)
		i = smallest
	}
	return top
}

// CentralQueue models the serialized centralized task counter of NWChem's
// dynamic scheduler (Sec. II-F): each access occupies the server for
// ServiceSec, so concurrent accesses queue up — the scheduler bottleneck
// the paper identifies at large core counts.
type CentralQueue struct {
	FreeAt     float64
	ServiceSec float64
	LatencySec float64
	Accesses   int64
}

// Access performs one counter access issued at time t and returns the time
// at which the caller receives its response.
func (q *CentralQueue) Access(t float64) float64 {
	start := t
	if q.FreeAt > start {
		start = q.FreeAt
	}
	q.FreeAt = start + q.ServiceSec
	q.Accesses++
	return q.FreeAt + q.LatencySec
}
