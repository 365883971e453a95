package dist

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gtfock/internal/linalg"
)

func TestUniformCuts(t *testing.T) {
	cuts := UniformCuts(10, 3)
	want := []int{0, 3, 6, 10}
	for i := range want {
		if cuts[i] != want[i] {
			t.Fatalf("cuts = %v", cuts)
		}
	}
	// Every element covered exactly once.
	cuts = UniformCuts(7, 7)
	for i := 0; i < 7; i++ {
		if cuts[i+1]-cuts[i] != 1 {
			t.Fatal("uneven singleton cuts")
		}
	}
}

func TestGridOwnership(t *testing.T) {
	g := UniformGrid2D(2, 3, 10, 9)
	for r := 0; r < 10; r++ {
		for c := 0; c < 9; c++ {
			p := g.Owner(r, c)
			i, j := g.Coords(p)
			if g.ProcID(i, j) != p {
				t.Fatal("coords roundtrip")
			}
			if r < g.RowCuts[i] || r >= g.RowCuts[i+1] {
				t.Fatalf("row %d not in owner block %d", r, i)
			}
			if c < g.ColCuts[j] || c >= g.ColCuts[j+1] {
				t.Fatalf("col %d not in owner block %d", c, j)
			}
		}
	}
}

func TestGridPatchesCoverRegion(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(30), 1+rng.Intn(30)
		prow, pcol := 1+rng.Intn(5), 1+rng.Intn(5)
		if prow > rows {
			prow = rows
		}
		if pcol > cols {
			pcol = cols
		}
		g := UniformGrid2D(prow, pcol, rows, cols)
		r0 := rng.Intn(rows)
		r1 := r0 + 1 + rng.Intn(rows-r0)
		c0 := rng.Intn(cols)
		c1 := c0 + 1 + rng.Intn(cols-c0)
		seen := map[[2]int]int{}
		total := 0
		for _, p := range g.Patches(r0, r1, c0, c1) {
			if p.Elems() <= 0 {
				return false
			}
			total += p.Elems()
			for r := p.R0; r < p.R1; r++ {
				for c := p.C0; c < p.C1; c++ {
					if g.Owner(r, c) != p.Proc {
						return false
					}
					seen[[2]int{r, c}]++
				}
			}
		}
		if total != (r1-r0)*(c1-c0) {
			return false
		}
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalArrayGetPutAcc(t *testing.T) {
	g := UniformGrid2D(2, 2, 6, 6)
	st := NewRunStats(4)
	ga := NewGlobalArray(g, st)

	src := make([]float64, 6)
	for i := range src {
		src[i] = float64(i + 1)
	}
	ga.Put(0, 1, 3, 2, 5, src, 3) // 2x3 patch spanning owner blocks
	got := make([]float64, 6)
	ga.Get(1, 1, 3, 2, 5, got, 3)
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("roundtrip: %v vs %v", got, src)
		}
	}
	ga.Acc(2, 1, 3, 2, 5, src, 3, 2)
	ga.Get(1, 1, 3, 2, 5, got, 3)
	for i := range src {
		if got[i] != 3*src[i] {
			t.Fatalf("acc: got %v want %v", got[i], 3*src[i])
		}
	}
	// Accounting: proc 0 made 1 call of 48 bytes.
	if st.Per[0].Calls != 1 || st.Per[0].Bytes != 48 {
		t.Fatalf("proc0 stats %+v", st.Per[0])
	}
	if st.Per[1].Calls != 2 {
		t.Fatalf("proc1 calls %d", st.Per[1].Calls)
	}
	// The 2x3 patch at rows 1-2, cols 2-4 on a 2x2 grid of 6x6: proc 0
	// owns rows 0-2 cols 0-2, so element (1,2),(2,2) belong to proc 1...
	// at minimum some bytes must be remote for proc 2's Acc.
	if st.Per[2].RemoteBytes == 0 {
		t.Fatal("expected remote bytes for proc 2")
	}
}

func TestGlobalArrayConcurrentAcc(t *testing.T) {
	g := UniformGrid2D(2, 2, 8, 8)
	const P = 8
	st := NewRunStats(P)
	ga := NewGlobalArray(g, st)
	src := make([]float64, 64)
	for i := range src {
		src[i] = 1
	}
	RunProcs(P, func(rank int) {
		for k := 0; k < 50; k++ {
			ga.Acc(rank, 0, 8, 0, 8, src, 8, 1)
		}
	})
	m := mustMatrix(t, ga)
	for _, v := range m.Data {
		if v != P*50 {
			t.Fatalf("lost update: %v != %v", v, P*50)
		}
	}
}

func TestGlobalArrayLoadToMatrix(t *testing.T) {
	g := UniformGrid2D(3, 2, 5, 4)
	ga := NewGlobalArray(g, NewRunStats(6))
	m := linalg.NewMatrix(5, 4)
	for i := range m.Data {
		m.Data[i] = float64(i) * 0.5
	}
	mustLoad(t, ga, m)
	back := mustMatrix(t, ga)
	if linalg.MaxAbsDiff(m, back) != 0 {
		t.Fatal("LoadMatrix/ToMatrix roundtrip")
	}
	ga.Zero()
	if mustMatrix(t, ga).MaxAbs() != 0 {
		t.Fatal("Zero")
	}
}

func TestRunStatsAggregates(t *testing.T) {
	rs := NewRunStats(2)
	rs.Per[0] = ProcStats{TotalTime: 10, ComputeTime: 8, Bytes: 2e6, Calls: 10, Steals: 1, Victims: 1, QueueOps: 5, StealProbes: 2}
	rs.Per[1] = ProcStats{TotalTime: 14, ComputeTime: 9, Bytes: 4e6, Calls: 30, Steals: 3, Victims: 2, QueueOps: 7, StealProbes: 4}
	if rs.TFockAvg() != 12 || rs.TFockMax() != 14 {
		t.Fatal("TFock aggregates")
	}
	if rs.TCompAvg() != 8.5 {
		t.Fatal("TCompAvg")
	}
	if math.Abs(rs.TOverheadAvg()-3.5) > 1e-15 {
		t.Fatal("TOverheadAvg")
	}
	if math.Abs(rs.LoadBalance()-14.0/12) > 1e-15 {
		t.Fatal("LoadBalance")
	}
	if rs.VolumeAvgMB() != 3 || rs.CallsAvg() != 20 {
		t.Fatal("volume/calls")
	}
	if rs.StealsAvg() != 2 || rs.VictimsAvg() != 1.5 {
		t.Fatal("steals")
	}
	if rs.QueueOpsAvg() != 6 || rs.QueueOpsTotal() != 12 || rs.StealProbesAvg() != 3 {
		t.Fatal("queue ops")
	}
}

func TestProcStatsAdd(t *testing.T) {
	a := ProcStats{Calls: 1, Bytes: 2, ComputeTime: 3, TotalTime: 4, Steals: 5}
	a.Add(ProcStats{Calls: 10, Bytes: 20, ComputeTime: 30, TotalTime: 40, Steals: 50})
	if a.Calls != 11 || a.Bytes != 22 || a.ComputeTime != 33 || a.TotalTime != 44 || a.Steals != 55 {
		t.Fatalf("Add: %+v", a)
	}
}

func TestEventHeapOrdering(t *testing.T) {
	var h EventHeap
	heap.Init(&h)
	PushEvent(&h, Event{At: 3, Proc: 1})
	PushEvent(&h, Event{At: 1, Proc: 2})
	PushEvent(&h, Event{At: 1, Proc: 0})
	PushEvent(&h, Event{At: 2, Proc: 3})
	want := []Event{{1, 0}, {1, 2}, {2, 3}, {3, 1}}
	for _, w := range want {
		e := PopEvent(&h)
		if e.At != w.At || e.Proc != w.Proc {
			t.Fatalf("got %+v want %+v", e, w)
		}
	}
}

func TestCentralQueueSerializes(t *testing.T) {
	q := CentralQueue{ServiceSec: 1, LatencySec: 0.5}
	// Three simultaneous requests at t=0 serialize.
	t1 := q.Access(0)
	t2 := q.Access(0)
	t3 := q.Access(0)
	if t1 != 1.5 || t2 != 2.5 || t3 != 3.5 {
		t.Fatalf("serialized times %v %v %v", t1, t2, t3)
	}
	if q.Accesses != 3 {
		t.Fatal("access count")
	}
	// A late request after the queue is free pays only service+latency.
	t4 := q.Access(100)
	if t4 != 101.5 {
		t.Fatalf("idle-queue access time %v", t4)
	}
}

func TestCommTime(t *testing.T) {
	c := Lonestar()
	got := c.CommTime(2, 5e9)
	want := 2*c.LatencySec + 1.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("CommTime = %v, want %v", got, want)
	}
}

func TestSquareGridFor(t *testing.T) {
	cases := map[int][2]int{1: {1, 1}, 4: {2, 2}, 12: {3, 4}, 81: {9, 9}, 324: {18, 18}, 7: {1, 7}}
	for n, want := range cases {
		pr, pc := SquareGridFor(n)
		if pr != want[0] || pc != want[1] {
			t.Fatalf("SquareGridFor(%d) = %d,%d", n, pr, pc)
		}
		if pr*pc != n {
			t.Fatal("grid does not cover n")
		}
	}
}

func TestParseGrid(t *testing.T) {
	for _, tc := range []struct {
		in         string
		prow, pcol int
		ok         bool
	}{
		{"2x2", 2, 2, true},
		{"1x12", 1, 12, true},
		{"18x18", 18, 18, true},
		{"0x2", 0, 0, false}, // would reach UniformCuts(ns, 0): divide by zero
		{"2x0", 0, 0, false},
		{"-1x2", 0, 0, false},
		{"2", 0, 0, false},
		{"2x2x2", 0, 0, false},
		{"ax2", 0, 0, false},
		{"2x", 0, 0, false},
		{"", 0, 0, false},
	} {
		prow, pcol, err := ParseGrid(tc.in)
		if (err == nil) != tc.ok || prow != tc.prow || pcol != tc.pcol {
			t.Errorf("ParseGrid(%q) = %d, %d, %v; want %d, %d, ok=%v", tc.in, prow, pcol, err, tc.prow, tc.pcol, tc.ok)
		}
	}
}

func TestNodesFor(t *testing.T) {
	c := Lonestar()
	n, err := c.NodesFor(3888)
	if err != nil || n != 324 {
		t.Fatalf("NodesFor(3888) = %d, %v", n, err)
	}
	if _, err := c.NodesFor(13); err == nil {
		t.Fatal("expected error for non-multiple")
	}
}

func TestPaperCoreCountsAreSquareNodeGrids(t *testing.T) {
	c := Lonestar()
	for _, cores := range PaperCoreCounts {
		nodes, err := c.NodesFor(cores)
		if err != nil {
			t.Fatal(err)
		}
		if !IsPerfectSquare(nodes) {
			t.Fatalf("%d cores -> %d nodes, not square", cores, nodes)
		}
	}
}
