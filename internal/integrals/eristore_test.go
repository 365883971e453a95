package integrals

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// fakeBlobStore is a test BlobStore with switchable loss modes.
type fakeBlobStore struct {
	mu       sync.Mutex
	blobs    map[uint64][]float64
	puts     int
	failPuts bool
	lossy    bool // GetBlob always misses
	truncate bool // GetBlob returns a torn (short) blob
}

func (f *fakeBlobStore) PutBlob(key uint64, vals []float64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failPuts {
		return errors.New("fake: put rejected")
	}
	if f.blobs == nil {
		f.blobs = map[uint64][]float64{}
	}
	if _, ok := f.blobs[key]; !ok {
		f.blobs[key] = append([]float64(nil), vals...)
	}
	f.puts++
	return nil
}

func (f *fakeBlobStore) GetBlob(key uint64, dst []float64) ([]float64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.blobs[key]
	if !ok || f.lossy {
		return nil, ErrBlobMiss
	}
	if f.truncate && len(v) > 0 {
		v = v[:len(v)-1]
	}
	return append(dst[:0], v...), nil
}

// storeTask builds a synthetic recorded batch for task id t: nq quartets
// with distinct labels and value runs of varying length.
func storeTask(t, nq int) (labels []uint32, vals []float64) {
	for k := 0; k < nq; k++ {
		labels = append(labels, uint32(t+k)|uint32(2*t+k+1)<<16)
		for j := 0; j <= k%3; j++ {
			vals = append(vals, float64(t*1000+k*10+j))
		}
	}
	return
}

// replayAll replays task through the store and returns what the one
// apply call saw, for comparison with the committed batch.
func replayAll(t *testing.T, s *ERIStore, task int) (labels []uint32, vals []float64, ok bool) {
	t.Helper()
	var scratch []float64
	calls := 0
	ok = s.ReplayTask(task, &scratch, func(l []uint32, v []float64) {
		calls++
		labels = append(labels, l...)
		vals = append(vals, v...)
	})
	if ok && calls != 1 {
		t.Fatalf("task %d: replay made %d apply calls, want 1", task, calls)
	}
	return
}

func TestERIStoreCommitReplayRoundtrip(t *testing.T) {
	s := NewERIStore(4, 0, nil, 7, nil)
	if s.NumTasks() != 16 {
		t.Fatalf("NumTasks = %d, want 16", s.NumTasks())
	}
	for task := 0; task < 16; task++ {
		labels, vals := storeTask(task, 1+task%5)
		s.CommitTask(task, labels, vals)
	}
	for task := 0; task < 16; task++ {
		wantLabels, wantVals := storeTask(task, 1+task%5)
		labels, vals, ok := replayAll(t, s, task)
		if !ok {
			t.Fatalf("task %d: replay missed", task)
		}
		if fmt.Sprint(labels) != fmt.Sprint(wantLabels) || fmt.Sprint(vals) != fmt.Sprint(wantVals) {
			t.Fatalf("task %d: replay diverged from commit", task)
		}
	}
	st := s.Stats()
	if st.TaskHits != 16 || st.TaskMisses != 0 || st.QuartetsStored == 0 ||
		st.QuartetsReplayed != st.QuartetsStored {
		t.Fatalf("stats: %+v", st)
	}
	if st.HitRate() != 1 {
		t.Fatalf("hit rate %v, want 1", st.HitRate())
	}
}

// A duplicate commit (a re-executed task after a crash or fence) must be
// a no-op: first writer wins and replay sees one copy.
func TestERIStoreCommitIdempotent(t *testing.T) {
	s := NewERIStore(2, 0, nil, 0, nil)
	labels, vals := storeTask(1, 4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.CommitTask(1, labels, vals)
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.QuartetsStored != 4 {
		t.Fatalf("duplicate commits counted: %+v", st)
	}
	gotLabels, gotVals, ok := replayAll(t, s, 1)
	if !ok || len(gotLabels) != 4 || len(gotVals) != len(vals) {
		t.Fatalf("replay after duplicate commits: ok=%v len=%d", ok, len(gotLabels))
	}
}

// An uncommitted task and an empty (fully screened) task: the former is
// a miss, the latter a hit with no labels.
func TestERIStoreMissAndEmptyTask(t *testing.T) {
	s := NewERIStore(2, 0, nil, 0, nil)
	if _, _, ok := replayAll(t, s, 0); ok {
		t.Fatal("replay hit on an uncommitted task")
	}
	s.CommitTask(3, nil, nil)
	labels, _, ok := replayAll(t, s, 3)
	if !ok || len(labels) != 0 {
		t.Fatalf("empty task: ok=%v labels=%d, want hit with 0 labels", ok, len(labels))
	}
	if st := s.Stats(); st.TaskMisses != 1 || st.TaskHits != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// Over budget without a spill backend, value legs are dropped and the
// task recomputes (replay miss) — but within-budget tasks still hit.
func TestERIStoreBudgetDrop(t *testing.T) {
	labels, vals := storeTask(0, 3)
	budget := int64(8 * len(vals)) // exactly one task's values
	s := NewERIStore(2, budget, nil, 0, nil)
	s.CommitTask(0, labels, vals)
	s.CommitTask(1, labels, vals) // over budget: dropped
	if _, _, ok := replayAll(t, s, 0); !ok {
		t.Fatal("within-budget task missed")
	}
	if _, _, ok := replayAll(t, s, 1); ok {
		t.Fatal("over-budget task replayed without spill backend")
	}
	st := s.Stats()
	if st.Dropped != 1 || st.BytesStored != budget {
		t.Fatalf("stats: %+v", st)
	}
}

// Over budget with a spill backend, value legs go to the blob store and
// replay fetches them back intact.
func TestERIStoreSpillRoundtrip(t *testing.T) {
	fb := &fakeBlobStore{}
	labels, vals := storeTask(0, 3)
	s := NewERIStore(2, 8, fb, 42, nil) // budget below any task
	s.CommitTask(0, labels, vals)
	if fb.puts != 1 {
		t.Fatalf("puts = %d, want 1", fb.puts)
	}
	gotLabels, gotVals, ok := replayAll(t, s, 0)
	if !ok || fmt.Sprint(gotLabels) != fmt.Sprint(labels) || fmt.Sprint(gotVals) != fmt.Sprint(vals) {
		t.Fatalf("spilled replay diverged: ok=%v", ok)
	}
	st := s.Stats()
	if st.Spills != 1 || st.SpillFetches != 1 || st.SpillBytes != int64(8*len(vals)) {
		t.Fatalf("stats: %+v", st)
	}
}

// A spill backend that loses blobs (shard restart) or returns torn data
// degrades to recompute, never to replaying garbage.
func TestERIStoreSpillLossFallsBackToMiss(t *testing.T) {
	for _, mode := range []string{"lossy", "torn", "putfail"} {
		fb := &fakeBlobStore{}
		if mode == "putfail" {
			fb.failPuts = true
		}
		labels, vals := storeTask(0, 3)
		s := NewERIStore(2, 8, fb, 0, nil)
		s.CommitTask(0, labels, vals)
		switch mode {
		case "lossy":
			fb.lossy = true
		case "torn":
			fb.truncate = true
		}
		if _, _, ok := replayAll(t, s, 0); ok {
			t.Fatalf("%s: replay hit on lost spill data", mode)
		}
		st := s.Stats()
		if mode == "putfail" {
			if st.Dropped != 1 || st.Spills != 0 {
				t.Fatalf("%s: stats %+v", mode, st)
			}
		} else if st.SpillMisses != 1 || st.TaskMisses != 1 {
			t.Fatalf("%s: stats %+v", mode, st)
		}
	}
}

// A store that records one small task reserves about what it holds, not
// a 512 KB arena chunk: every hfd job opens a store, most of them small.
func TestERIStoreSmallArena(t *testing.T) {
	labels, vals := storeTask(0, 3)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewERIStore(2, 0, nil, 0, nil)
	s.CommitTask(0, labels, vals)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("a one-task store allocated %d bytes, want < 64 KB", got)
	}
	if _, _, ok := replayAll(t, s, 0); !ok {
		t.Fatal("the small task missed")
	}
}

// The arena grows geometrically from arenaFirst up to arenaMax, and a
// block longer than the chunk gets a chunk of its own length, so every
// block is exact and intact.
func TestERIStoreArenaGrowth(t *testing.T) {
	var a floatArena
	var chunks []int
	for _, n := range []int{300, 300, 1000, 5000, 3000, 3000, 20000, 40000, 70000, 40000, 40000} {
		fresh := len(a.cur) < n
		b := a.take(n)
		if len(b) != n || cap(b) != n {
			t.Fatalf("take(%d) gave len %d cap %d", n, len(b), cap(b))
		}
		if fresh {
			chunks = append(chunks, n+len(a.cur))
		}
	}
	if want := "[512 1024 2048 5000 8192 20000 40000 70000 65536 65536]"; fmt.Sprint(chunks) != want {
		t.Fatalf("chunks %v, want %s", chunks, want)
	}
}

// blobKey must be collision-free across tasks within one run and
// separate runs sharing a fleet through the salt.
func TestERIStoreBlobKeys(t *testing.T) {
	a := NewERIStore(8, 0, nil, 1, nil)
	b := NewERIStore(8, 0, nil, 2, nil)
	seen := map[uint64]bool{}
	for task := 0; task < a.NumTasks(); task++ {
		k := a.blobKey(task)
		if seen[k] {
			t.Fatalf("duplicate blob key for task %d", task)
		}
		seen[k] = true
		if k == b.blobKey(task) {
			t.Fatalf("task %d: same key under different salts", task)
		}
	}
}

// A store over more shells than a label packs panics before it allocates
// its ns*ns entry table (34 GB at the first shell count past the bound).
func TestERIStoreShellBound(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "16 bits") {
			t.Fatalf("NewERIStore(MaxStoreShells+1) recovered %v, want the label-bound panic", r)
		}
	}()
	NewERIStore(MaxStoreShells+1, 0, nil, 0, nil)
}
