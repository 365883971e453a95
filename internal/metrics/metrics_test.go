package metrics

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
)

func TestHistBucketsAndQuantiles(t *testing.T) {
	var h Hist
	for _, v := range []int64{0, 1, 2, 3, 5, 8, 100, 1000} {
		h.Observe(v)
	}
	if h.Count != 8 {
		t.Fatalf("Count = %d, want 8", h.Count)
	}
	if h.Sum != 1119 {
		t.Fatalf("Sum = %d, want 1119", h.Sum)
	}
	if h.Max != 1000 {
		t.Fatalf("Max = %d, want 1000", h.Max)
	}
	// 0 -> bucket 0; 1 -> bucket 1; 2,3 -> bucket 2; 5 -> 3; 8 -> 4;
	// 100 -> 7; 1000 -> 10.
	want := map[int]int64{0: 1, 1: 1, 2: 2, 3: 1, 4: 1, 7: 1, 10: 1}
	for b, c := range h.counts {
		if c != want[b] {
			t.Fatalf("bucket %d = %d, want %d", b, c, want[b])
		}
	}
	s := h.load()
	// 4th of 8 observations sits in bucket 2 ([2,4)): p50 ~ 2*sqrt2/... =
	// geometric midpoint of [2,4) ~ 2.83 -> 2.
	if s.P50 != 2 {
		t.Fatalf("P50 = %d, want 2", s.P50)
	}
	if s.P99 < 512 || s.P99 > 1024 {
		t.Fatalf("P99 = %d, want within bucket [512,1024)", s.P99)
	}
	if s.Mean != 1119.0/8 {
		t.Fatalf("Mean = %v", s.Mean)
	}
}

func TestHistEmptySnapshotIsDefined(t *testing.T) {
	var h Hist
	s := h.load()
	if s.Count != 0 || s.Mean != 0 || s.P50 != 0 || len(s.Buckets) != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
}

func TestRegistryMergeAndDiscard(t *testing.T) {
	r := NewRegistry(2)
	var s Sample
	s.Tasks.Observe(100)
	s.Tasks.Observe(200)
	s.Steals.Observe(5000)
	s.GetCalls, s.GetBytes = 3, 4096
	s.AccCalls, s.AccBytes = 2, 2048
	s.GetRetries, s.AccRetries = 1, 2
	s.LeaseRenewals = 7
	r.Merge(0, &s)

	var dropped Sample
	dropped.Tasks.Observe(999) // fenced incarnation's work
	r.Discard(&dropped)

	snap := r.Snapshot()
	if snap.TasksTotal != 2 {
		t.Fatalf("TasksTotal = %d, want 2 (discarded sample leaked in?)", snap.TasksTotal)
	}
	if snap.StealsTotal != 1 {
		t.Fatalf("StealsTotal = %d, want 1", snap.StealsTotal)
	}
	if snap.BytesTotal != 4096+2048 {
		t.Fatalf("BytesTotal = %d", snap.BytesTotal)
	}
	if snap.DiscardedSamples != 1 || snap.DroppedObs != 1 {
		t.Fatalf("discard accounting = %d samples, %d obs; want 1, 1",
			snap.DiscardedSamples, snap.DroppedObs)
	}
	w := snap.Workers[0]
	if w.Tasks.Sum != 300 || w.GetRetries != 1 || w.AccRetries != 2 ||
		w.LeaseRenewals != 7 || w.Commits != 1 {
		t.Fatalf("worker 0 snapshot wrong: %+v", w)
	}
	if snap.Workers[1].Commits != 0 {
		t.Fatal("worker 1 should be untouched")
	}

	// An empty sample discard is a no-op.
	r.Discard(&Sample{})
	if got := r.Snapshot().DiscardedSamples; got != 1 {
		t.Fatalf("empty-sample discard counted: %d", got)
	}
}

// The ERI dispatch split must merge per rank, total across ranks, and
// produce the general-path fraction; a sample holding only dispatch
// counters must not count as empty (it would be silently droppable).
func TestRegistryQuartetDispatchSplit(t *testing.T) {
	r := NewRegistry(2)
	a := Sample{QuartetsFastSP: 60, QuartetsFastGen: 30, QuartetsGeneral: 0}
	if a.empty() {
		t.Fatal("sample with only dispatch counters reported empty")
	}
	b := Sample{QuartetsFastSP: 0, QuartetsFastGen: 5, QuartetsGeneral: 5}
	r.Merge(0, &a)
	r.Merge(1, &b)
	snap := r.Snapshot()
	if snap.QuartetsFastSP != 60 || snap.QuartetsFastGen != 35 || snap.QuartetsGeneral != 5 {
		t.Fatalf("dispatch totals wrong: %+v", snap)
	}
	if got, want := snap.QuartetsGeneralFrac, 0.05; got != want {
		t.Fatalf("QuartetsGeneralFrac = %v, want %v", got, want)
	}
	if w := snap.Workers[1]; w.QuartetsFastGen != 5 || w.QuartetsGeneral != 5 {
		t.Fatalf("worker 1 dispatch split wrong: %+v", w)
	}
}

func TestRegistryNilIsSafe(t *testing.T) {
	var r *Registry
	var s Sample
	s.Tasks.Observe(1)
	r.Merge(0, &s) // must not panic
	r.Discard(&s)
	if r.P() != 0 {
		t.Fatal("nil registry P != 0")
	}
	if snap := r.Snapshot(); len(snap.Workers) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestSampleReset(t *testing.T) {
	var s Sample
	s.Tasks.Observe(1)
	s.GetCalls = 5
	if s.empty() {
		t.Fatal("sample with observations reported empty")
	}
	s.Reset()
	if !s.empty() {
		t.Fatal("Reset did not empty the sample")
	}
}

// Concurrent merges from many "workers" with snapshots racing them — the
// live-expvar read path. Run under -race in CI.
func TestRegistryConcurrentMergeSnapshot(t *testing.T) {
	const workers, episodes = 8, 50
	r := NewRegistry(workers)
	var wg sync.WaitGroup
	for rank := 0; rank < workers; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for e := 0; e < episodes; e++ {
				var s Sample
				s.Tasks.Observe(int64(rank*1000 + e))
				s.GetBytes = 8
				r.Merge(rank, &s)
			}
		}(rank)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	snap := r.Snapshot()
	if snap.TasksTotal != workers*episodes {
		t.Fatalf("TasksTotal = %d, want %d", snap.TasksTotal, workers*episodes)
	}
	if snap.BytesTotal != workers*episodes*8 {
		t.Fatalf("BytesTotal = %d", snap.BytesTotal)
	}
}

func TestRegistryJSONRoundTrip(t *testing.T) {
	r := NewRegistry(1)
	var s Sample
	s.Tasks.Observe(1500)
	r.Merge(0, &s)
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back struct {
		TasksTotal int64 `json:"core.tasks_total"`
		Workers    []struct {
			TaskNS Hist `json:"core.task_ns"`
		} `json:"core.workers"`
	}
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.TasksTotal != 1 || back.Workers[0].TaskNS.Max != 1500 {
		t.Fatalf("round trip lost data: %s", raw)
	}
	if _, ok := back.Workers[0].TaskNS.Buckets["2048"]; !ok {
		t.Fatalf("1500 should land in bucket 2048: %v", back.Workers[0].TaskNS.Buckets)
	}
}

func TestRPCCounters(t *testing.T) {
	var c RPC
	for i := 0; i < 4; i++ {
		c.LatencyNS.Observe(int64(1000 * (i + 1)))
		atomic.AddInt64(&c.Calls, 1)
	}
	for _, p := range []*int64{&c.Retries, &c.Retries, &c.Failures, &c.Dials, &c.Reconnects, &c.Resets, &c.DupSends, &c.Partitioned} {
		atomic.AddInt64(p, 1)
	}
	snap := c.Snapshot()
	if snap.Calls != 4 || snap.LatencyNS.Count != 4 || snap.LatencyNS.Max != 4000 || snap.LatencyNS.Mean != 2500 {
		t.Fatalf("calls/latency wrong: %+v", snap)
	}
	if snap.Retries != 2 || snap.Failures != 1 || snap.Dials != 1 ||
		snap.Reconnects != 1 || snap.Resets != 1 || snap.DupSends != 1 || snap.Partitioned != 1 {
		t.Fatalf("counter snapshot wrong: %+v", snap)
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back struct {
		Calls   int64 `json:"net.rpc_calls"`
		Retries int64 `json:"net.rpc_retries"`
		Latency Hist  `json:"net.rpc_latency_ns"`
	}
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Calls != 4 || back.Retries != 2 || back.Latency.Count != 4 {
		t.Fatalf("round trip lost data: %s", raw)
	}
}

// Load copies a set that is being updated without a data race (run under
// -race in CI), and a loaded copy loads to itself.
func TestLoadRacesUpdates(t *testing.T) {
	var c RPC
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.LatencyNS.Observe(int64(i))
				atomic.AddInt64(&c.Calls, 1)
				StoreMax(&c.Dials, int64(i))
				_ = c.Snapshot()
			}
		}()
	}
	wg.Wait()
	snap := c.Snapshot()
	if snap.Calls != 2000 || snap.LatencyNS.Count != 2000 || snap.Dials != 499 {
		t.Fatalf("snapshot after the race: %+v", snap)
	}
	if again := Load(&snap); again.LatencyNS.P95 != snap.LatencyNS.P95 || again.Calls != snap.Calls {
		t.Fatalf("reloaded snapshot differs: %+v vs %+v", again, snap)
	}
}

// Sub differences every stored-ERI counter, which HitRate then reads.
func TestCacheSub(t *testing.T) {
	a := Cache{TaskHits: 5, TaskMisses: 5, BytesStored: 80, Dropped: 1}
	b := Cache{TaskHits: 2, TaskMisses: 5, BytesStored: 80}
	d := a.Sub(b)
	if d != (Cache{TaskHits: 3, Dropped: 1}) || d.HitRate() != 1 {
		t.Fatalf("Sub = %+v, hit rate %v", d, d.HitRate())
	}
}

// Add sums every stored-ERI counter, concurrently with readers.
func TestCacheAdd(t *testing.T) {
	var total Cache
	a := Cache{TaskHits: 5, TaskMisses: 5, BytesStored: 80, Dropped: 1, SpillMisses: 2}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() { defer wg.Done(); total.Add(a) }()
		go func() { defer wg.Done(); _ = total.Snapshot() }()
	}
	wg.Wait()
	want := Cache{TaskHits: 20, TaskMisses: 20, BytesStored: 320, Dropped: 4, SpillMisses: 8}
	if got := total.Snapshot(); got != want {
		t.Fatalf("Add: %+v, want %+v", got, want)
	}
}

// The checkpoint-writer counters reach the JSON view under their ledger
// names.
func TestServeCheckpointCounters(t *testing.T) {
	s := NewServe()
	for _, w := range []struct{ ns, coalesced int64 }{{200_000, 0}, {900_000, 2}} {
		atomic.AddInt64(&s.CkptWritten, 1)
		atomic.AddInt64(&s.CkptCoalesced, w.coalesced)
		s.CkptWriteNS.Observe(w.ns)
	}
	raw, err := json.Marshal(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		Written   int64 `json:"serve.ckpt_written"`
		Coalesced int64 `json:"serve.ckpt_coalesced"`
		WriteNs   Hist  `json:"serve.ckpt_write_ns"`
	}
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatal(err)
	}
	if view.Written != 2 || view.Coalesced != 2 || view.WriteNs.Count != 2 ||
		view.WriteNs.Sum != 1_100_000 || view.WriteNs.Max != 900_000 || len(view.WriteNs.Buckets) != 2 {
		t.Fatalf("snapshot JSON %s", raw)
	}
}

// A debug server publishes only what its binary published: started with
// nothing published, /debug/vars holds Go's cmdline and memstats and no
// product blob — no all-zero fock_metrics beside a daemon's real one.
func TestDebugServerPublishesNothingItself(t *testing.T) {
	addr, err := StartDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	for name := range vars {
		if name != "cmdline" && name != "memstats" {
			t.Errorf("debug server published %q by itself", name)
		}
	}
}
