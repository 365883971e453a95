package integrals

// ERIStore is the stored-ERI cache tier (ROADMAP "Stored-ERI cache
// tier", after Mitin's stored non-zero two-electron integral method):
// the screened surviving quartet set of a Fock build is
// geometry-determined and identical across SCF iterations, so iteration
// 1 records each task's surviving batch — ket shell indices and the
// contracted spherical integral values — and iterations 2..N replay the
// stored batches straight through the contraction path
// (core.ApplyQuartet) without re-entering the kernel layer.
//
// Format: one entry per (M, N) task, indexed by task id M*ns+N — what
// survives the screen, index-packed, as Mitin stores it. The index legs
// (ket shell indices as int32 pairs, int32 value offsets) always stay in
// memory; they are a small fraction of the values. The value leg is
// carved from a shared arena when it fits the configured budget; over
// budget it either spills to a BlobStore (the shard fleet, so capacity
// scales with members) or is dropped, in which case that task recomputes
// every iteration. A replay miss of any kind degrades to recompute — the
// store is a cache, never a correctness dependency.
//
// Exactly-once: entries are committed first-writer-wins through an
// atomic pointer. Workers re-executing a task after a crash or fence
// recompute the same deterministic batch (collection order is the
// PairTable order, the engine is deterministic), so a duplicate commit
// carries bit-identical data and losing the race is harmless. A
// replayed task applies the stored values in the recorded order, so a
// replayed execution and a recomputed execution commit identical
// contributions to F.

import (
	"errors"
	"sync"
	"sync/atomic"
	"unsafe"

	"gtfock/internal/metrics"
)

// BlobStore is the spill backend of an ERIStore: an immutable
// put-once/get key-value store for float64 batches. Implementations are
// cache-semantics only — a GetBlob miss (ErrBlobMiss) after a shard
// restart or eviction is normal and makes the store recompute that
// task. netga.Session implements it over the shard fleet
// (opPutBlob/opGetBlob).
type BlobStore interface {
	// PutBlob stores vals under key. Re-puts of the same key may be
	// ignored (first write wins); values are never mutated after Put.
	PutBlob(key uint64, vals []float64) error
	// GetBlob fetches the blob into dst (reusing its capacity) and
	// returns the filled slice. Any error — conventionally ErrBlobMiss
	// for an unknown key — is treated as a miss.
	GetBlob(key uint64, dst []float64) ([]float64, error)
}

// ErrBlobMiss reports a GetBlob key the backend does not hold.
var ErrBlobMiss = errors.New("integrals: blob not found")

// storedTask is one task's immutable recorded batch.
type storedTask struct {
	pq  [][2]int32 // ket shell indices (p, q) per surviving quartet, in collection (= replay) order
	off []int32    // len(pq)+1 value offsets; batch k is vals[off[k]:off[k+1]]
	// vals holds the contracted spherical integrals when resident; nil
	// when spilled or dropped.
	vals    []float64
	spilled bool
	dropped bool
}

// ERIStore holds the recorded batches of one geometry (one PairTable).
// CommitTask and ReplayTask are safe for concurrent use by build
// workers; the store stays valid across SCF iterations as long as the
// PairTable it was built against does.
type ERIStore struct {
	budget  int64 // max resident value bytes; 0 = unlimited
	keyBase uint64
	spill   BlobStore
	cache   *metrics.Cache

	entries []atomic.Pointer[storedTask]

	mu       sync.Mutex // guards arena + resident-byte accounting on commit
	arena    floatArena
	resident int64
}

// NewERIStore creates a store for the ns*ns tasks of one build geometry.
// budgetBytes bounds resident value memory (0 = unlimited); over-budget
// batches go to spill when non-nil, else are dropped (recomputed every
// iteration). keyBase salts spill keys so concurrent runs sharing a
// fleet do not collide; cache is the shared counter sink — nil gets a
// private one so Stats always works.
func NewERIStore(nshells int, budgetBytes int64, spill BlobStore, keyBase uint64, cache *metrics.Cache) *ERIStore {
	if cache == nil {
		cache = &metrics.Cache{}
	}
	return &ERIStore{
		budget:  budgetBytes,
		keyBase: keyBase,
		spill:   spill,
		cache:   cache,
		entries: make([]atomic.Pointer[storedTask], nshells*nshells),
	}
}

// ERIStoreBytes is what an ERIStore over nshells shells holds once it has
// committed tasks entries carrying quartets quartets and values integral
// values: index is the entry table plus every entry and its index legs,
// which stay resident whatever the budget; vals is the value legs, the
// part the budget bounds.
func ERIStoreBytes(nshells int, tasks, quartets, values int64) (index, vals int64) {
	const slot = int64(unsafe.Sizeof(atomic.Pointer[storedTask]{}))
	const entry = int64(unsafe.Sizeof(storedTask{})) + 4 // + the closing offset
	const perQuartet = int64(unsafe.Sizeof([2]int32{})) + 4
	index = slot*int64(nshells)*int64(nshells) + tasks*entry + quartets*perQuartet
	return index, 8 * values
}

// Stats returns the store's counter snapshot.
func (s *ERIStore) Stats() metrics.Cache { return s.cache.Snapshot() }

// NumTasks returns the task capacity (ns*ns).
func (s *ERIStore) NumTasks() int { return len(s.entries) }

// Contains reports whether task has a committed entry of any kind.
func (s *ERIStore) Contains(task int) bool { return s.entries[task].Load() != nil }

// blobKey derives the spill key of a task: multiplication by an odd
// constant is a bijection on uint64, so keys are unique within a run,
// and the XOR salt keeps concurrent runs on a shared fleet apart.
func (s *ERIStore) blobKey(task int) uint64 {
	return s.keyBase ^ (uint64(task+1) * 0x9e3779b97f4a7c15)
}

// CommitTask records one task's surviving batch: pq in collection
// order, ends[k] the exclusive end offset of batch k in vals (as
// accumulated by the recording visit). All inputs are copied; the caller
// may reuse its buffers. First writer wins: re-executions after a crash
// or fence recompute bit-identical data, so duplicates are dropped
// without comparison. An empty batch (fully screened task) commits an
// empty entry so replay still hits.
func (s *ERIStore) CommitTask(task int, pq [][2]int32, ends []int32, vals []float64) {
	if s.entries[task].Load() != nil {
		return
	}
	e := &storedTask{}
	if len(pq) > 0 {
		e.pq = append([][2]int32(nil), pq...)
		e.off = make([]int32, len(pq)+1)
		copy(e.off[1:], ends)
	}
	bytes := int64(8 * len(vals))
	s.mu.Lock()
	if s.entries[task].Load() != nil { // lost the race while copying
		s.mu.Unlock()
		return
	}
	switch {
	case len(vals) == 0:
		// Empty or fully screened task: index-only entry.
	case s.budget <= 0 || s.resident+bytes <= s.budget:
		e.vals = s.arena.take(len(vals))
		copy(e.vals, vals)
		s.resident += bytes
	case s.spill != nil:
		// PutBlob under the store lock: spills only happen past the
		// budget, and serializing them keeps the accounting and the
		// first-writer-wins window trivially correct.
		if err := s.spill.PutBlob(s.blobKey(task), vals); err == nil {
			e.spilled = true
			atomic.AddInt64(&s.cache.Spills, 1)
			atomic.AddInt64(&s.cache.SpillBytes, bytes)
		} else {
			e.dropped = true
		}
	default:
		e.dropped = true
	}
	s.entries[task].Store(e)
	s.mu.Unlock()
	if e.dropped {
		atomic.AddInt64(&s.cache.Dropped, 1)
	} else {
		atomic.AddInt64(&s.cache.QuartetsStored, int64(len(pq)))
		atomic.AddInt64(&s.cache.BytesStored, bytes)
	}
}

// ReplayTask replays task's stored batch through visit, one call per
// recorded quartet with its contracted spherical values, in the recorded
// order. scratch is a caller-owned buffer reused for spill fetches.
// Returns false — and counts a miss — when the task must be recomputed:
// no entry yet, entry dropped over budget, or the spill backend no
// longer has the values.
func (s *ERIStore) ReplayTask(task int, scratch *[]float64, visit func(p, q int32, vals []float64)) bool {
	e := s.entries[task].Load()
	if e == nil || e.dropped {
		atomic.AddInt64(&s.cache.TaskMisses, 1)
		return false
	}
	vals := e.vals
	if e.spilled {
		got, err := s.spill.GetBlob(s.blobKey(task), (*scratch)[:0])
		// A torn/foreign blob is a miss rather than replayed garbage (keys
		// are salted, but a shared fleet is external state).
		if err != nil || int(e.off[len(e.off)-1]) > len(got) {
			atomic.AddInt64(&s.cache.SpillMisses, 1)
			atomic.AddInt64(&s.cache.TaskMisses, 1)
			return false
		}
		*scratch = got
		vals = got
		atomic.AddInt64(&s.cache.SpillFetches, 1)
	}
	for k, pq := range e.pq {
		visit(pq[0], pq[1], vals[e.off[k]:e.off[k+1]])
	}
	atomic.AddInt64(&s.cache.TaskHits, 1)
	atomic.AddInt64(&s.cache.QuartetsReplayed, int64(len(e.pq)))
	return true
}
