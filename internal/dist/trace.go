package dist

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Span kinds recorded by simulation and real-mode traces.
const (
	SpanCompute  = 'c' // ERI computation
	SpanSteal    = 's' // a victim scan that took a block
	SpanIdle     = '.' // a victim scan that found none: no work reachable
	SpanPrefetch = 'p' // D-block prefetch: a block intake's Gets
	SpanFlush    = 'f' // F accumulate flush
	SpanRPC      = 'r' // one netga RPC, including its retries (net backend)
)

// Span is one activity interval of a process. Real-mode spans carry the
// lane of the rank that ran them (0 for the rank's own prefetch, steal and
// flush, and for every sim-mode span) and the epoch of the worker
// incarnation that recorded them; spans of fenced incarnations — all of
// the rank's lanes alike — are marked Discarded after the run: their work
// never reached the global F, so duration accounting must not count them.
type Span struct {
	Proc       int
	Lane       int
	Epoch      int64
	Start, End float64
	Kind       byte
	Discarded  bool
}

// Trace collects activity spans from a run for post-hoc inspection (an
// observability aid; sim-mode spans tile each process's virtual time
// exactly, and real-mode span boundaries cost one clock read each).
type Trace struct {
	mu    sync.Mutex
	spans []Span
}

// Add records a span under epoch 0; zero-length and reversed spans are
// ignored.
func (t *Trace) Add(proc int, start, end float64, kind byte) {
	t.AddEpoch(proc, 0, start, end, kind)
}

// AddEpoch records a span tagged with the recording incarnation's epoch;
// zero-length and reversed spans are ignored.
func (t *Trace) AddEpoch(proc int, epoch int64, start, end float64, kind byte) {
	if t == nil || end <= start {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Proc: proc, Epoch: epoch, Start: start, End: end, Kind: kind})
	t.mu.Unlock()
}

// AddSpans bulk-appends pre-built spans (a worker episode's buffer) under
// one lock acquisition; zero-length and reversed spans are dropped.
func (t *Trace) AddSpans(spans []Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	for _, s := range spans {
		if s.End > s.Start {
			t.spans = append(t.spans, s)
		}
	}
	t.mu.Unlock()
}

// Discard marks every span recorded by (proc, epoch) as discarded — the
// incarnation was fenced and its contributions never landed — and
// returns how many spans it marked.
func (t *Trace) Discard(proc int, epoch int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for i := range t.spans {
		if t.spans[i].Proc == proc && t.spans[i].Epoch == epoch && !t.spans[i].Discarded {
			t.spans[i].Discarded = true
			n++
		}
	}
	return n
}

// Spans returns the recorded spans sorted by (proc, lane, start).
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Proc != out[j].Proc {
			return out[i].Proc < out[j].Proc
		}
		if out[i].Lane != out[j].Lane {
			return out[i].Lane < out[j].Lane
		}
		return out[i].Start < out[j].Start
	})
	return out
}

// Makespan returns the largest span end time; 0 for an empty (or nil)
// trace.
func (t *Trace) Makespan() float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var m float64
	for _, s := range t.spans {
		if s.End > m {
			m = s.End
		}
	}
	return m
}

// Timeline renders an ASCII Gantt chart: one row per (process, lane) (at
// most maxRows, sampled evenly), labelled proc or proc.lane, width time
// buckets, with the latest-recorded span kind shown per bucket ('c'
// compute, 'p' prefetch, 'f' flush, 's' steal, '.'
// idle; discarded spans render as 'x'). Empty or degenerate traces render
// a placeholder instead of dividing by zero.
func (t *Trace) Timeline(width, maxRows int) string {
	spans := t.Spans()
	if len(spans) == 0 || width <= 0 {
		return "(empty trace)\n"
	}
	makespan := t.Makespan()
	if makespan <= 0 {
		return "(empty trace)\n"
	}
	// spans are sorted by (proc, lane), so each new pair is the next lane
	// row; laneOf[i] is the lane row of spans[i].
	type procLane struct{ proc, lane int }
	var keys []procLane
	laneOf := make([]int, len(spans))
	nproc := 0
	for i, s := range spans {
		if k := (procLane{s.Proc, s.Lane}); len(keys) == 0 || keys[len(keys)-1] != k {
			keys = append(keys, k)
		}
		laneOf[i] = len(keys) - 1
		nproc = max(nproc, s.Proc+1)
	}
	rows := len(keys)
	if maxRows > 0 && rows > maxRows {
		rows = maxRows
	}

	grid := make([][]byte, rows)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(string(rune(SpanIdle)), width))
	}
	for i, s := range spans {
		r := laneOf[i] * rows / len(keys) // even sampling when compressed
		k := s.Kind
		if s.Discarded {
			k = 'x'
		}
		b0 := int(s.Start / makespan * float64(width))
		b1 := int(s.End / makespan * float64(width))
		if b1 >= width {
			b1 = width - 1
		}
		for b := b0; b <= b1; b++ {
			grid[r][b] = k
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "timeline: %d procs, %d lanes x %.4fs  (c=compute p=prefetch f=flush s=steal r=rpc .=idle x=discarded)\n",
		nproc, len(keys), makespan)
	for r := range grid {
		k := keys[(r*len(keys)+rows-1)/rows] // the first lane row sampled into r
		label := strconv.Itoa(k.proc)
		if k.lane > 0 {
			label += "." + strconv.Itoa(k.lane)
		}
		fmt.Fprintf(&sb, "%6s |%s|\n", label, grid[r])
	}
	return sb.String()
}

// KindTotals sums span durations by kind, excluding discarded spans (a
// fenced incarnation's activity must not inflate the accounting; see
// DiscardedTotal for what was thrown away).
func (t *Trace) KindTotals() map[byte]float64 {
	totals := map[byte]float64{}
	for _, s := range t.Spans() {
		if s.Discarded {
			continue
		}
		totals[s.Kind] += s.End - s.Start
	}
	return totals
}

// DiscardedTotal returns the number of discarded spans and their summed
// duration — work executed by fenced incarnations and re-done elsewhere.
func (t *Trace) DiscardedTotal() (spans int, seconds float64) {
	for _, s := range t.Spans() {
		if s.Discarded {
			spans++
			seconds += s.End - s.Start
		}
	}
	return spans, seconds
}
