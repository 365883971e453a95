package dist

import (
	"math"
	"strings"
	"testing"
)

// Degenerate runs — a 0-process stats object, or a process grid whose
// workers never recorded any time (0-task partitions) — must yield
// defined metric values, not NaN from 0/0.
func TestRunStatsEmptyRunIsDefined(t *testing.T) {
	for _, rs := range []*RunStats{NewRunStats(0), NewRunStats(3)} {
		for name, v := range map[string]float64{
			"TFockAvg":       rs.TFockAvg(),
			"TFockMax":       rs.TFockMax(),
			"TCompAvg":       rs.TCompAvg(),
			"TOverheadAvg":   rs.TOverheadAvg(),
			"VolumeAvgMB":    rs.VolumeAvgMB(),
			"CallsAvg":       rs.CallsAvg(),
			"StealsAvg":      rs.StealsAvg(),
			"VictimsAvg":     rs.VictimsAvg(),
			"QueueOpsAvg":    rs.QueueOpsAvg(),
			"StealProbesAvg": rs.StealProbesAvg(),
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("P=%d: %s = %v on an empty run", rs.P(), name, v)
			}
			if v != 0 {
				t.Fatalf("P=%d: %s = %v, want 0", rs.P(), name, v)
			}
		}
		if l := rs.LoadBalance(); l != 1 {
			t.Fatalf("P=%d: LoadBalance = %v on an empty run, want 1", rs.P(), l)
		}
	}
}

// An empty or nil trace must render and total cleanly.
func TestTraceEmptyAndNilAreDefined(t *testing.T) {
	for _, tr := range []*Trace{nil, {}} {
		if m := tr.Makespan(); m != 0 {
			t.Fatalf("Makespan = %v on empty trace", m)
		}
		if tr != nil && !strings.Contains(tr.Timeline(10, 4), "empty") {
			t.Fatal("expected empty-trace placeholder")
		}
		if tot := tr.KindTotals(); len(tot) != 0 {
			t.Fatalf("KindTotals = %v on empty trace", tot)
		}
		if n, s := tr.DiscardedTotal(); n != 0 || s != 0 {
			t.Fatalf("DiscardedTotal = %d, %v on empty trace", n, s)
		}
	}
}

// Discard marks exactly the spans of one (proc, epoch) incarnation;
// totals exclude them and the timeline renders them as 'x'.
func TestTraceDiscardByEpoch(t *testing.T) {
	tr := &Trace{}
	tr.AddEpoch(0, 1, 0, 2, SpanCompute) // fenced incarnation
	tr.AddEpoch(0, 2, 2, 3, SpanCompute) // its successor
	tr.AddEpoch(1, 1, 0, 4, SpanCompute) // another rank, same epoch number
	if n := tr.Discard(0, 1); n != 1 {
		t.Fatalf("Discard marked %d spans, want 1", n)
	}
	if tot := tr.KindTotals(); tot[SpanCompute] != 1+4 {
		t.Fatalf("KindTotals after discard = %v, want compute 5", tot)
	}
	n, secs := tr.DiscardedTotal()
	if n != 1 || secs != 2 {
		t.Fatalf("DiscardedTotal = %d, %v; want 1, 2", n, secs)
	}
	if out := tr.Timeline(8, 4); !strings.Contains(out, "x") {
		t.Fatalf("discarded span not rendered:\n%s", out)
	}
	// Idempotent.
	if n := tr.Discard(0, 1); n != 0 {
		t.Fatalf("second Discard marked %d spans, want 0", n)
	}
}
