// Package metrics is the low-overhead measurement layer of the stack:
// counter sets for the quantities the paper's evaluation is built on
// (task service time, steal latency, one-sided transfer volume, retries,
// lease renewals; Sec. IV, Tables V-VIII) and for the transport, the
// stored-ERI tier and the job service above the build.
//
// Every counter is declared once: a field of a counter-set struct, tagged
// with its ledger name (`json:"net.rpc_calls"`; DESIGN.md §6 has the one
// table). The place an event happens updates the field with sync/atomic;
// Load copies a set out atomically, and a set's Snapshot is Load of it —
// the same type, so there is no second, hand-kept view of any counter.
//
// The build's Registry keeps its counts exactly-once under fault
// recovery: a worker accumulates into a private Sample and merges it into
// the shared Registry only when the corresponding work commits to the
// global F. A fenced or crashed incarnation's sample is dropped — counted
// in core.discarded_samples but never merged — so a task re-executed
// after recovery appears exactly once in the merged histograms, mirroring
// the epoch fence on the accumulate path.
package metrics

import (
	"math"
	"math/bits"
	"reflect"
	"strconv"
	"sync/atomic"
)

// nbuckets spans int64: bucket b counts observations in [2^(b-1), 2^b).
const nbuckets = 64

// Hist is a power-of-two-bucket histogram of int64 observations
// (nanoseconds or bytes). The zero value is ready to use and Observe is
// safe for concurrent use. Mean, the quantiles and Buckets are derived
// when the histogram is loaded (Load, a set's Snapshot); on a live
// histogram they are zero.
type Hist struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
	// Buckets maps the upper bound 2^b to its count, zero buckets elided.
	Buckets map[string]int64 `json:"buckets,omitempty"`

	counts [nbuckets]int64
}

// Observe records v; non-positive observations count into bucket 0.
func (h *Hist) Observe(v int64) {
	b := 0
	if v > 0 {
		b = bits.Len64(uint64(v))
	}
	atomic.AddInt64(&h.counts[b%nbuckets], 1)
	atomic.AddInt64(&h.Count, 1)
	atomic.AddInt64(&h.Sum, v)
	StoreMax(&h.Max, v)
}

// add folds o's observations into h.
func (h *Hist) add(o *Hist) {
	for i, c := range o.counts {
		if c != 0 {
			atomic.AddInt64(&h.counts[i], c)
		}
	}
	atomic.AddInt64(&h.Count, o.Count)
	atomic.AddInt64(&h.Sum, o.Sum)
	StoreMax(&h.Max, o.Max)
}

// load copies h atomically and derives its summary fields.
func (h *Hist) load() Hist {
	var s Hist
	for i := range h.counts {
		s.counts[i] = atomic.LoadInt64(&h.counts[i])
	}
	s.Count, s.Sum, s.Max = atomic.LoadInt64(&h.Count), atomic.LoadInt64(&h.Sum), atomic.LoadInt64(&h.Max)
	if s.Count == 0 {
		return s
	}
	s.Mean = float64(s.Sum) / float64(s.Count)
	s.P50 = quantile(s.counts, s.Count, 0.50)
	s.P95 = quantile(s.counts, s.Count, 0.95)
	s.P99 = quantile(s.counts, s.Count, 0.99)
	s.Buckets = map[string]int64{}
	for b, c := range s.counts {
		if c != 0 {
			s.Buckets[bucketLabel(b)] = c
		}
	}
	return s
}

func bucketLabel(b int) string {
	// Upper bound of bucket b is 2^b (bucket 0 holds v <= 1).
	if b >= 63 {
		return "inf"
	}
	return strconv.FormatInt(int64(1)<<b, 10)
}

// quantile returns the geometric midpoint of the bucket holding the
// q-quantile observation — a factor-sqrt(2) approximation, plenty for
// imbalance histograms.
func quantile(counts [nbuckets]int64, n int64, q float64) int64 {
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for b, c := range counts {
		cum += c
		if cum >= rank {
			if b == 0 {
				return 0
			}
			lo := int64(1) << (b - 1)
			return int64(float64(lo) * math.Sqrt2)
		}
	}
	return 0
}

// StoreMax raises *p to v if v is larger: a high-water gauge.
func StoreMax(p *int64, v int64) {
	for {
		old := atomic.LoadInt64(p)
		if v <= old || atomic.CompareAndSwapInt64(p, old, v) {
			return
		}
	}
}

var histType = reflect.TypeOf(Hist{})

// Load returns a copy of the counter set *set that is safe to take while
// the set is being updated: every int64 and uint64 field and every Hist
// is read atomically, embedded sets recursively, and any other field
// (a rank, a budget: fixed at construction) is copied as is. Reflection
// runs here, at read time, and never on an update path.
func Load[T any](set *T) T {
	var out T
	load(reflect.ValueOf(&out).Elem(), reflect.ValueOf(set).Elem())
	return out
}

func load(dst, src reflect.Value) {
	switch {
	case src.Type() == histType:
		dst.Set(reflect.ValueOf(src.Addr().Interface().(*Hist).load()))
	case src.Kind() == reflect.Struct:
		for i := 0; i < src.NumField(); i++ {
			if src.Type().Field(i).IsExported() {
				load(dst.Field(i), src.Field(i))
			}
		}
	case src.Kind() == reflect.Int64:
		dst.SetInt(atomic.LoadInt64((*int64)(src.Addr().UnsafePointer())))
	case src.Kind() == reflect.Uint64:
		dst.SetUint(atomic.LoadUint64((*uint64)(src.Addr().UnsafePointer())))
	default:
		dst.Set(src)
	}
}

// Sample is one worker incarnation's private measurement buffer, written
// by one goroutine; merge it into the Registry at commit time, or drop it
// if the incarnation is fenced.
type Sample struct {
	Tasks         Hist  `json:"core.task_ns"`  // task service time
	Steals        Hist  `json:"core.steal_ns"` // successful steal latency (scan start to block landed)
	Flushes       Hist  `json:"core.flush_ns"` // commit/flush duration
	GetCalls      int64 `json:"dist.get_calls"`
	GetBytes      int64 `json:"dist.get_bytes"`
	AccCalls      int64 `json:"dist.acc_calls"`
	AccBytes      int64 `json:"dist.acc_bytes"`
	GetRetries    int64 `json:"dist.get_retries,omitempty"`
	AccRetries    int64 `json:"dist.acc_retries,omitempty"`
	LeaseRenewals int64 `json:"core.lease_renewals,omitempty"`
	StealFails    int64 `json:"core.steal_fails,omitempty"` // steal scans that came up dry

	// ERI dispatch split (from integrals.Stats deltas per task): quartets
	// of all-s/p classes, of classes with a d shell, and those sent to
	// the general MD recursion.
	QuartetsFastSP  int64 `json:"integrals.quartets_fast_sp,omitempty"`
	QuartetsFastGen int64 `json:"integrals.quartets_fast_gen,omitempty"`
	QuartetsGeneral int64 `json:"integrals.quartets_general,omitempty"`
}

// empty reports whether the sample holds no observations at all.
func (s *Sample) empty() bool { return reflect.ValueOf(s).Elem().IsZero() }

// Add folds o into s: a rank's lanes each fill a private sample and the
// rank sums them at the join, so one commit episode is still one Merge.
// The Registry merges a committed sample with the same call.
func (s *Sample) Add(o *Sample) {
	s.Tasks.add(&o.Tasks)
	s.Steals.add(&o.Steals)
	s.Flushes.add(&o.Flushes)
	atomic.AddInt64(&s.GetCalls, o.GetCalls)
	atomic.AddInt64(&s.GetBytes, o.GetBytes)
	atomic.AddInt64(&s.AccCalls, o.AccCalls)
	atomic.AddInt64(&s.AccBytes, o.AccBytes)
	atomic.AddInt64(&s.GetRetries, o.GetRetries)
	atomic.AddInt64(&s.AccRetries, o.AccRetries)
	atomic.AddInt64(&s.LeaseRenewals, o.LeaseRenewals)
	atomic.AddInt64(&s.StealFails, o.StealFails)
	atomic.AddInt64(&s.QuartetsFastSP, o.QuartetsFastSP)
	atomic.AddInt64(&s.QuartetsFastGen, o.QuartetsFastGen)
	atomic.AddInt64(&s.QuartetsGeneral, o.QuartetsGeneral)
}

// Reset clears the sample for the next commit episode.
func (s *Sample) Reset() { *s = Sample{} }

// Worker is one rank's committed accumulation.
type Worker struct {
	Rank int `json:"core.rank"`
	Sample
	Commits int64 `json:"core.commits"`
}

// Fenced counts the samples dropped uncommitted and the observations in
// them.
type Fenced struct {
	DiscardedSamples int64 `json:"core.discarded_samples"`
	DroppedObs       int64 `json:"core.dropped_observations"`
}

// Registry aggregates committed samples per worker rank. All methods are
// safe for concurrent use; Snapshot may run while a build is in flight
// (the expvar endpoint does exactly that) and sees a consistent-enough
// view for monitoring.
type Registry struct {
	workers []Worker
	fenced  Fenced
}

// NewRegistry creates a registry for n worker ranks.
func NewRegistry(n int) *Registry {
	r := &Registry{workers: make([]Worker, n)}
	for i := range r.workers {
		r.workers[i].Rank = i
	}
	return r
}

// P returns the number of worker ranks.
func (r *Registry) P() int {
	if r == nil {
		return 0
	}
	return len(r.workers)
}

// Merge folds a committed sample into rank's totals. Nil-receiver safe so
// the disabled path costs one branch.
func (r *Registry) Merge(rank int, s *Sample) {
	if r == nil || rank < 0 || rank >= len(r.workers) {
		return
	}
	w := &r.workers[rank]
	w.Add(s)
	atomic.AddInt64(&w.Commits, 1)
}

// Discard records that a sample was dropped uncommitted (fenced or
// crashed incarnation); its observations are counted as dropped but
// never merged.
func (r *Registry) Discard(s *Sample) {
	if r == nil || s.empty() {
		return
	}
	atomic.AddInt64(&r.fenced.DiscardedSamples, 1)
	atomic.AddInt64(&r.fenced.DroppedObs, s.Tasks.Count+s.Steals.Count+s.Flushes.Count)
}

// Snapshot is the registry view: every rank, and the totals across them.
type Snapshot struct {
	Workers []Worker `json:"core.workers"`
	Fenced
	TasksTotal  int64 `json:"core.tasks_total"`
	StealsTotal int64 `json:"core.steals_total"`
	BytesTotal  int64 `json:"dist.bytes_total"`

	// ERI dispatch totals across ranks; QuartetsGeneralFrac is the
	// general-path fraction (0 when no quartets were recorded).
	QuartetsFastSP      int64   `json:"integrals.quartets_fast_sp,omitempty"`
	QuartetsFastGen     int64   `json:"integrals.quartets_fast_gen,omitempty"`
	QuartetsGeneral     int64   `json:"integrals.quartets_general,omitempty"`
	QuartetsGeneralFrac float64 `json:"integrals.quartets_general_frac,omitempty"`
}

// Snapshot captures the current committed totals.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	out := Snapshot{Workers: make([]Worker, len(r.workers)), Fenced: Load(&r.fenced)}
	for i := range r.workers {
		w := Load(&r.workers[i])
		out.Workers[i] = w
		out.TasksTotal += w.Tasks.Count
		out.StealsTotal += w.Steals.Count
		out.BytesTotal += w.GetBytes + w.AccBytes
		out.QuartetsFastSP += w.QuartetsFastSP
		out.QuartetsFastGen += w.QuartetsFastGen
		out.QuartetsGeneral += w.QuartetsGeneral
	}
	if total := out.QuartetsFastSP + out.QuartetsFastGen + out.QuartetsGeneral; total > 0 {
		out.QuartetsGeneralFrac = float64(out.QuartetsGeneral) / float64(total)
	}
	return out
}

// RPC is the transport counter set of the network backend. Unlike worker
// Samples it is not merged at commit time: an RPC happened on the wire
// whether or not the work it carried ever commits, so the client updates
// it directly with atomics. One set may be shared by many clients.
type RPC struct {
	// LatencyNS is the wall time of one answered data RPC attempt (the
	// retry loop lives in dist, so earlier failed attempts and their
	// backoff are not part of it); Calls counts the same attempts.
	LatencyNS Hist  `json:"net.rpc_latency_ns"`
	Calls     int64 `json:"net.rpc_calls"`
	// Retries: attempts that failed in transport (or found no route) and
	// went back to the retry loop. Failures: answers the server rejected
	// deterministically.
	Retries    int64 `json:"net.rpc_retries,omitempty"`
	Failures   int64 `json:"net.rpc_failures,omitempty"`
	Dials      int64 `json:"net.rpc_dials"`
	Reconnects int64 `json:"net.rpc_reconnects,omitempty"` // dials after a conn was discarded
	// Injected faults: conns torn down mid-RPC, frames delivered twice,
	// RPCs failed fast inside a partition window.
	Resets      int64 `json:"net.rpc_resets,omitempty"`
	DupSends    int64 `json:"net.rpc_dup_sends,omitempty"`
	Partitioned int64 `json:"net.rpc_partitioned,omitempty"`
	// statusRetry answers (standby not promoted yet, stale shard epoch,
	// superseded placement, frozen block) that forced a resync.
	StaleRetries int64 `json:"net.rpc_stale_retries,omitempty"`
	// Elastic fleet: requests bounced by a superseded placement map,
	// fleet-view fetches, and blocks seen migrating to new owners.
	PlacementRetries int64 `json:"net.rpc_placement_retries,omitempty"`
	ViewRefreshes    int64 `json:"net.rpc_view_refreshes,omitempty"`
	BlocksMigrated   int64 `json:"net.rpc_blocks_migrated,omitempty"`
	// Failure-cause split: expired deadlines (overload — the peer is slow
	// or we are) against conns the peer tore down (faults, restarts,
	// kills). Reports that lump them together cannot tell a saturated
	// service from a dying one.
	DeadlineExceeded int64 `json:"net.rpc_deadline_exceeded,omitempty"`
	PeerResets       int64 `json:"net.rpc_peer_resets,omitempty"`
}

// Snapshot captures the current transport counters.
func (c *RPC) Snapshot() RPC { return Load(c) }

// Cache is the counter set of the stored-ERI tier (integrals.ERIStore).
// Like RPC it is updated with direct atomics rather than commit-time
// merging: a replay/recompute decision happened whether or not the task
// it served ever commits, and double counts from fenced re-executions
// are accounting noise, not a correctness hazard (the store itself stays
// exactly-once via first-writer-wins commits).
type Cache struct {
	TaskHits   int64 `json:"core.task_hits"`   // tasks served from the store
	TaskMisses int64 `json:"core.task_misses"` // tasks recomputed: no entry, dropped, or spill fetch failed
	// Committed entries: quartets and value bytes retained (in memory or
	// on a spill shard), and quartets applied from stored batches.
	QuartetsStored   int64 `json:"core.quartets_stored"`
	QuartetsReplayed int64 `json:"core.quartets_replayed"`
	BytesStored      int64 `json:"core.store_bytes"`
	// Spill tier: entries pushed to the spill backend and their bytes,
	// batches fetched back, and batches the backend no longer had.
	Spills       int64 `json:"core.spills,omitempty"`
	SpillBytes   int64 `json:"core.spill_bytes,omitempty"`
	SpillFetches int64 `json:"core.spill_fetches,omitempty"`
	SpillMisses  int64 `json:"core.spill_misses,omitempty"`
	// Over-budget entries dropped instead of spilled.
	Dropped int64 `json:"core.store_dropped,omitempty"`
}

// Snapshot captures the current stored-ERI counters.
func (c *Cache) Snapshot() Cache { return Load(c) }

// HitRate returns replayed tasks over replay attempts (0 when none).
func (c Cache) HitRate() float64 {
	if c.TaskHits+c.TaskMisses == 0 {
		return 0
	}
	return float64(c.TaskHits) / float64(c.TaskHits+c.TaskMisses)
}

// Sub returns the per-field difference c - b of two snapshots, for
// per-iteration deltas.
func (c Cache) Sub(b Cache) Cache {
	cv, bv := reflect.ValueOf(&c).Elem(), reflect.ValueOf(b)
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).SetInt(cv.Field(i).Int() - bv.Field(i).Int())
	}
	return c
}

// Add folds the snapshot o into the live set c, field by field with
// atomics, so c may be read (Snapshot) while runs add to it: the service
// sums every attempt's store totals into one set.
func (c *Cache) Add(o Cache) {
	cv, ov := reflect.ValueOf(c).Elem(), reflect.ValueOf(o)
	for i := 0; i < cv.NumField(); i++ {
		atomic.AddInt64((*int64)(cv.Field(i).Addr().UnsafePointer()), ov.Field(i).Int())
	}
}
