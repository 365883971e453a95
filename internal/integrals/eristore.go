package integrals

// ERIStore is the stored-ERI cache tier (ROADMAP "Stored-ERI cache
// tier", after Mitin's stored non-zero two-electron integral method):
// the screened surviving quartet set of a Fock build is
// geometry-determined and identical across SCF iterations, so iteration
// 1 records each task's surviving batch — ket shell indices and the
// contracted spherical integral values — and iterations 2..N replay the
// stored batches straight through the per-task contraction without
// re-entering the kernel layer.
//
// Format: one entry per (M, N) task, indexed by task id M*ns+N — what
// survives the screen, one compact label per quartet, as Mitin stores
// it. The index leg is one uint32 per quartet, P | Q<<16 (the task id
// gives M and N). A quartet's values are the next nf(M) nf(P) nf(N)
// nf(Q) of the value leg, so no offset is stored, and they are stored
// already multiplied by the quartet's symmetry scale. The index leg
// always stays in memory: 4 bytes per quartet, against 8 per value and
// 3.9 values per quartet at alkane:6/STO-3G. The value leg is carved
// from a shared arena when it fits the configured budget; over budget it
// either spills to a BlobStore (the shard fleet, so capacity scales with
// members) or is dropped, in which case that task recomputes every
// iteration. A replay miss of any kind degrades to recompute — the store
// is a cache, never a correctness dependency.
//
// Exactly-once: entries are committed first-writer-wins through an
// atomic pointer. Workers re-executing a task after a crash or fence
// recompute the same deterministic batch (collection order is the
// PairTable order, the engine is deterministic), so a duplicate commit
// carries bit-identical data and losing the race is harmless. A
// replayed task hands the contraction the labels and values a computed
// task hands it, in the recorded order, so a replayed execution and a
// recomputed execution commit identical contributions to F.

import (
	"errors"
	"fmt"
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
	labels []uint32 // P | Q<<16 per surviving quartet, in collection (= replay) order
	nvals  int      // values the labels imply; a spill fetch shorter than this is torn
	// vals holds the scaled contracted spherical integrals when resident;
	// nil when spilled or dropped.
	vals    []float64
	spilled bool
	dropped bool
}

// MaxStoreShells bounds the shell count of a store: a label packs P and
// Q into 16 bits each.
const MaxStoreShells = 1 << 16

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
// private one so Stats always works. It panics over MaxStoreShells
// shells, before allocating the ns*ns entry table.
func NewERIStore(nshells int, budgetBytes int64, spill BlobStore, keyBase uint64, cache *metrics.Cache) *ERIStore {
	if nshells > MaxStoreShells {
		panic(fmt.Sprintf("integrals: an ERIStore packs shell indices in 16 bits; %d shells exceed %d", nshells, MaxStoreShells))
	}
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
// values: index is the entry table plus every entry and its labels, which
// stay resident whatever the budget; vals is the value legs, the part the
// budget bounds.
func ERIStoreBytes(nshells int, tasks, quartets, values int64) (index, vals int64) {
	const slot = int64(unsafe.Sizeof(atomic.Pointer[storedTask]{}))
	const entry = int64(unsafe.Sizeof(storedTask{}))
	const label = int64(unsafe.Sizeof(uint32(0)))
	index = slot*int64(nshells)*int64(nshells) + tasks*entry + quartets*label
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

// CommitTask records one task's surviving batch: labels in collection
// order, vals their scaled values concatenated in the same order. Both
// are copied; the caller may reuse its buffers. First writer wins:
// re-executions after a crash or fence recompute bit-identical data, so
// duplicates are dropped without comparison. An empty batch (fully
// screened task) commits an empty entry so replay still hits.
func (s *ERIStore) CommitTask(task int, labels []uint32, vals []float64) {
	if s.entries[task].Load() != nil {
		return
	}
	e := &storedTask{nvals: len(vals)}
	if len(labels) > 0 {
		e.labels = append([]uint32(nil), labels...)
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
		atomic.AddInt64(&s.cache.QuartetsStored, int64(len(labels)))
		atomic.AddInt64(&s.cache.BytesStored, bytes)
	}
}

// ReplayTask replays task's stored batch through one apply call with the
// recorded labels and scaled values, in the recorded order. scratch is a
// caller-owned buffer reused for spill fetches. Returns false — and
// counts a miss — when the task must be recomputed: no entry yet, entry
// dropped over budget, or the spill backend no longer has the values.
func (s *ERIStore) ReplayTask(task int, scratch *[]float64, apply func(labels []uint32, vals []float64)) bool {
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
		if err != nil || e.nvals > len(got) {
			atomic.AddInt64(&s.cache.SpillMisses, 1)
			atomic.AddInt64(&s.cache.TaskMisses, 1)
			return false
		}
		*scratch = got
		vals = got[:e.nvals]
		atomic.AddInt64(&s.cache.SpillFetches, 1)
	}
	apply(e.labels, vals)
	atomic.AddInt64(&s.cache.TaskHits, 1)
	atomic.AddInt64(&s.cache.QuartetsReplayed, int64(len(e.labels)))
	return true
}

// floatArena carves exact-length zeroed []float64 blocks out of chunks.
// Blocks are never reused or moved, so slices handed out stay valid for
// the arena's lifetime. The first chunk is arenaFirst long and each next
// one twice the last, up to arenaMax, so a small arena reserves little; a
// block longer than the chunk gets a chunk of its own length. The zero
// value is ready to use.
type floatArena struct {
	cur   []float64
	chunk int // length of the last chunk made
}

const (
	arenaFirst = 1 << 9  // 4 KB
	arenaMax   = 1 << 16 // 512 KB
)

func (a *floatArena) take(n int) []float64 {
	if len(a.cur) < n {
		a.chunk = min(max(2*a.chunk, arenaFirst), arenaMax)
		a.cur = make([]float64, max(a.chunk, n))
	}
	out := a.cur[:n:n]
	a.cur = a.cur[n:]
	return out
}
