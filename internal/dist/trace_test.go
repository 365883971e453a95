package dist

import (
	"strings"
	"testing"
)

func TestTraceAddAndSpans(t *testing.T) {
	tr := &Trace{}
	tr.Add(1, 0, 2, SpanPrefetch)
	tr.Add(0, 1, 3, SpanCompute)
	tr.Add(0, 5, 5, SpanCompute) // zero-length: dropped
	tr.Add(0, 6, 4, SpanCompute) // reversed: dropped
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	// Sorted by proc then start.
	if spans[0].Proc != 0 || spans[1].Proc != 1 {
		t.Fatalf("spans not sorted: %+v", spans)
	}
	if tr.Makespan() != 3 {
		t.Fatalf("makespan %v", tr.Makespan())
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.Add(0, 0, 1, SpanCompute) // must not panic
}

func TestTraceTimeline(t *testing.T) {
	tr := &Trace{}
	tr.Add(0, 0, 1, SpanPrefetch)
	tr.Add(0, 1, 10, SpanCompute)
	tr.Add(1, 0, 5, SpanCompute)
	out := tr.Timeline(20, 8)
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 3 { // header + 2 proc rows
		t.Fatalf("timeline:\n%s", out)
	}
	if !strings.Contains(lines[1], "c") || !strings.Contains(lines[1], "p") {
		t.Fatalf("proc 0 row missing kinds: %q", lines[1])
	}
	// Proc 1 idle in the second half.
	if !strings.Contains(lines[2], ".") {
		t.Fatalf("proc 1 row missing idle: %q", lines[2])
	}
}

func TestTraceTimelineEmpty(t *testing.T) {
	tr := &Trace{}
	if !strings.Contains(tr.Timeline(10, 4), "empty") {
		t.Fatal("expected empty-trace message")
	}
}

func TestTraceKindTotals(t *testing.T) {
	tr := &Trace{}
	tr.Add(0, 0, 2, SpanCompute)
	tr.Add(1, 1, 4, SpanCompute)
	tr.Add(0, 2, 3, SpanPrefetch)
	totals := tr.KindTotals()
	if totals[SpanCompute] != 5 || totals[SpanPrefetch] != 1 {
		t.Fatalf("totals = %v", totals)
	}
}

func TestTraceRowCompression(t *testing.T) {
	tr := &Trace{}
	for p := 0; p < 100; p++ {
		tr.Add(p, 0, 1, SpanCompute)
	}
	out := tr.Timeline(10, 10)
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 11 { // header + 10 rows
		t.Fatalf("expected 10 compressed rows, got %d lines", len(lines)-1)
	}
}

// Lanes of one process get a row each, labelled proc.lane below lane 0's;
// fencing the incarnation discards every lane's spans and the totals keep
// their meaning.
func TestTraceTimelineLaneRows(t *testing.T) {
	tr := &Trace{}
	tr.AddSpans([]Span{
		{Proc: 0, Lane: 0, Epoch: 3, Start: 0, End: 4, Kind: SpanCompute},
		{Proc: 0, Lane: 1, Epoch: 3, Start: 1, End: 4, Kind: SpanCompute},
		{Proc: 1, Lane: 0, Start: 0, End: 2, Kind: SpanCompute},
		{Proc: 0, Lane: 0, Epoch: 3, Start: 4, End: 5, Kind: SpanFlush},
	})
	lines := strings.Split(strings.TrimSuffix(tr.Timeline(10, 8), "\n"), "\n")
	if len(lines) != 4 { // header + rows 0, 0.1, 1
		t.Fatalf("timeline:\n%s", strings.Join(lines, "\n"))
	}
	for i, label := range []string{"0 |", "0.1 |", "1 |"} {
		if !strings.HasPrefix(strings.TrimLeft(lines[i+1], " "), label) {
			t.Fatalf("row %d is %q, want label %q", i, lines[i+1], label)
		}
	}
	if !strings.HasPrefix(strings.TrimLeft(lines[2], " "), "0.1 |..c") {
		t.Fatalf("lane 1 row should start idle, then compute: %q", lines[2])
	}
	if tot := tr.KindTotals(); tot[SpanCompute] != 4+3+2 || tot[SpanFlush] != 1 {
		t.Fatalf("totals = %v", tot)
	}
	if n := tr.Discard(0, 3); n != 3 {
		t.Fatalf("Discard marked %d spans, want both lanes' 3", n)
	}
	if tot := tr.KindTotals(); tot[SpanCompute] != 2 {
		t.Fatalf("totals after discard = %v", tot)
	}
	if n, secs := tr.DiscardedTotal(); n != 3 || secs != 4+3+1 {
		t.Fatalf("DiscardedTotal = %d, %v", n, secs)
	}
}
