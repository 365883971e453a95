package dist

import (
	"context"
	"errors"
	"testing"
	"time"

	"gtfock/internal/linalg"
)

// The retry semantics of a one-sided op — drops ridden out, budget
// exhausted, deadline inside a backoff, stale epoch, exactly-once — are
// asserted once for both backends by the conformance table in
// internal/net/conformance_test.go. What stays here is what only the
// in-process array or the loop's plumbing can show.

func mustLoad(t *testing.T, ga *GlobalArray, m *linalg.Matrix) {
	t.Helper()
	if err := ga.LoadMatrix(m); err != nil {
		t.Fatal(err)
	}
}

func mustMatrix(t *testing.T, ga *GlobalArray) *linalg.Matrix {
	t.Helper()
	m, err := ga.ToMatrix()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// A dropped attempt copies or applies nothing, counts as a drop, reports
// itself unsent, and is not charged as a call: the loop charges the op.
func TestTryDropAppliesNothing(t *testing.T) {
	g := UniformGrid2D(2, 2, 4, 4)
	st := NewRunStats(4)
	ga := NewGlobalArray(g, st)
	mustLoad(t, ga, linalg.Identity(4))
	ga.SetOpHook(func(int, OpKind) (time.Duration, bool) { return 0, true })

	dst := make([]float64, 4)
	if err := ga.TryGet(1, 0, 2, 0, 2, dst, 2); !errors.Is(err, ErrDropped) {
		t.Fatalf("want ErrDropped, got %v", err)
	}
	for _, v := range dst {
		if v != 0 {
			t.Fatal("dropped Get copied data")
		}
	}
	token, sent, err := ga.TryAcc(1, 0, 0, 2, 0, 2, []float64{1, 1, 1, 1}, 2, 1)
	if !errors.Is(err, ErrDropped) || sent || token != 0 {
		t.Fatalf("dropped Acc: token=%d sent=%v err=%v", token, sent, err)
	}
	if d := linalg.MaxAbsDiff(mustMatrix(t, ga), linalg.Identity(4)); d != 0 {
		t.Fatal("dropped Acc modified the array")
	}
	if st.Recovery.OpDrops != 2 || st.Per[1].Calls != 0 {
		t.Fatalf("OpDrops = %d, Calls = %d; want 2 drops and no charge", st.Recovery.OpDrops, st.Per[1].Calls)
	}
	if err := ga.LoadMatrix(linalg.NewMatrix(3, 4)); err == nil {
		t.Fatal("LoadMatrix accepted a mis-shaped matrix")
	}
}

// A fault-free op through the loop is one attempt: no wall-cap deadline
// is created, nothing is allocated, and it is charged exactly like the
// infallible call.
func TestFaultFreeOpAllocatesNothing(t *testing.T) {
	g := UniformGrid2D(2, 2, 8, 8)
	st, direct := NewRunStats(4), NewRunStats(4)
	var ga Backend = NewGlobalArray(g, NewRunStats(4))
	rt := Retry{Attempts: 4, Backoff: time.Millisecond, WallCap: 10 * time.Second}
	buf := make([]float64, 16)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := rt.Get(ctx, ga, st, 0, 0, 4, 4, 8, buf, 4); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Acc(ctx, ga, st, nil, false, 0, 1, 0, 4, 4, 8, buf, 4, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("fault-free Get+Acc allocated %.0f times, want 0", allocs)
	}
	ref := NewGlobalArray(g, direct)
	ref.Get(0, 0, 4, 4, 8, buf, 4)
	if a, b := st.Per[0], direct.Per[0]; a.Bytes != b.Bytes*a.Calls || a.RemoteBytes != b.RemoteBytes*a.Calls || b.RemoteBytes != 128 {
		t.Fatalf("loop charge %+v does not match the infallible call's %+v", a, b)
	}
}

// Charge splits a region's volume into local and remote by the caller's
// own block, whatever the number of owners it spans.
func TestChargeMatchesPatchDecomposition(t *testing.T) {
	g := UniformGrid2D(2, 3, 7, 11)
	for proc := 0; proc < g.NumProcs(); proc++ {
		for _, reg := range [][4]int{{0, 7, 0, 11}, {1, 6, 2, 9}, {3, 4, 0, 3}, {0, 3, 4, 5}} {
			st := NewRunStats(g.NumProcs())
			st.Charge(g, proc, reg[0], reg[1], reg[2], reg[3])
			var remote int64
			for _, p := range g.Patches(reg[0], reg[1], reg[2], reg[3]) {
				if p.Proc != proc {
					remote += 8 * int64(p.Elems())
				}
			}
			total := 8 * int64(reg[1]-reg[0]) * int64(reg[3]-reg[2])
			if got := st.Per[proc]; got.Calls != 1 || got.Bytes != total || got.RemoteBytes != remote {
				t.Fatalf("proc %d region %v: charged %+v, want %d bytes / %d remote", proc, reg, got, total, remote)
			}
		}
	}
	var none *RunStats
	none.Charge(g, 0, 0, 1, 0, 1) // a nil stats is simply not accounted
}

// Jitter must stay within [d/2, 3d/2) and preserve zero.
func TestJitterBounds(t *testing.T) {
	if Jitter(0) != 0 {
		t.Fatal("Jitter(0) != 0")
	}
	d := 100 * time.Millisecond
	for i := 0; i < 1000; i++ {
		j := Jitter(d)
		if j < d/2 || j >= d+d/2 {
			t.Fatalf("Jitter(%v) = %v out of [d/2, 3d/2)", d, j)
		}
	}
}
