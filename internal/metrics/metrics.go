// Package metrics is the low-overhead measurement layer of the real-mode
// Fock build: per-worker histograms and counters for the quantities the
// paper's evaluation is built on (task service time, steal latency,
// one-sided transfer volume, retries, lease renewals; Sec. IV, Tables
// V-VIII).
//
// The collection protocol keeps the counts exactly-once under fault
// recovery: a worker accumulates into a private Sample (single-writer,
// no synchronization) and merges it into the shared Registry only when
// the corresponding work commits to the global F. A fenced or crashed
// incarnation's sample is dropped — counted in DiscardedSamples but
// never merged — so a task re-executed after recovery appears exactly
// once in the merged histograms, mirroring the epoch fence on the
// accumulate path.
package metrics

import (
	"encoding/json"
	"math"
	"math/bits"
	"strconv"
	"sync/atomic"
)

// nbuckets spans int64: bucket b counts observations in [2^(b-1), 2^b).
const nbuckets = 64

// Hist is a power-of-two-bucket histogram of positive int64 observations
// (nanoseconds or bytes). The zero value is ready to use. It is a plain,
// single-writer value inside a Sample; the Registry holds the atomic
// mirror (histAtomic).
type Hist struct {
	Counts [nbuckets]int64
	N      int64
	Sum    int64
	Max    int64
}

// Observe records v; non-positive observations count into bucket 0.
func (h *Hist) Observe(v int64) {
	b := 0
	if v > 0 {
		b = bits.Len64(uint64(v))
	}
	h.Counts[b%nbuckets]++
	h.N++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

// add folds o's observations into h.
func (h *Hist) add(o *Hist) {
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.N += o.N
	h.Sum += o.Sum
	h.Max = max(h.Max, o.Max)
}

// histAtomic is the concurrently-readable accumulation of merged Hists.
type histAtomic struct {
	counts [nbuckets]atomic.Int64
	n      atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

func (h *histAtomic) merge(s *Hist) {
	for i, c := range s.Counts {
		if c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.n.Add(s.N)
	h.sum.Add(s.Sum)
	for {
		old := h.max.Load()
		if s.Max <= old || h.max.CompareAndSwap(old, s.Max) {
			return
		}
	}
}

// HistSnapshot is the JSON-facing view of a histogram.
type HistSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	Max   int64   `json:"max"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
	// Buckets maps the upper bound 2^b to its count, zero buckets elided.
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

func (h *histAtomic) snapshot() HistSnapshot {
	var counts [nbuckets]int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return snapshotCounts(counts, h.n.Load(), h.sum.Load(), h.max.Load())
}

func snapshotCounts(counts [nbuckets]int64, n, sum, max int64) HistSnapshot {
	s := HistSnapshot{Count: n, Sum: sum, Max: max}
	if n == 0 {
		return s
	}
	s.Mean = float64(sum) / float64(n)
	s.P50 = quantile(counts, n, 0.50)
	s.P95 = quantile(counts, n, 0.95)
	s.P99 = quantile(counts, n, 0.99)
	s.Buckets = map[string]int64{}
	for b, c := range counts {
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

// Sample is one worker incarnation's private measurement buffer. It is
// written by exactly one goroutine and carries no synchronization; merge
// it into the Registry at commit time, or drop it if the incarnation is
// fenced.
type Sample struct {
	Tasks         Hist // task service time, ns
	Steals        Hist // successful steal latency (scan start to block landed), ns
	Flushes       Hist // commit/flush duration, ns
	GetCalls      int64
	GetBytes      int64
	AccCalls      int64
	AccBytes      int64
	GetRetries    int64
	AccRetries    int64
	LeaseRenewals int64
	StealFails    int64 // steal scans that came up dry

	// ERI dispatch split (from integrals.Stats deltas per task): quartets
	// of all-s/p classes, of classes with a d shell, and those sent to
	// the general MD recursion, so bench/serve output can report what
	// fraction of the integral work still takes the general path.
	QuartetsFastSP  int64
	QuartetsFastGen int64
	QuartetsGeneral int64
}

// empty reports whether the sample holds no observations at all.
func (s *Sample) empty() bool {
	return s.Tasks.N == 0 && s.Steals.N == 0 && s.Flushes.N == 0 &&
		s.GetCalls == 0 && s.AccCalls == 0 && s.GetRetries == 0 &&
		s.AccRetries == 0 && s.LeaseRenewals == 0 && s.StealFails == 0 &&
		s.QuartetsFastSP == 0 && s.QuartetsFastGen == 0 && s.QuartetsGeneral == 0
}

// Add folds o into s: a rank's lanes each fill a private sample and the
// rank sums them at the join, so one commit episode is still one Merge.
func (s *Sample) Add(o *Sample) {
	s.Tasks.add(&o.Tasks)
	s.Steals.add(&o.Steals)
	s.Flushes.add(&o.Flushes)
	s.GetCalls += o.GetCalls
	s.GetBytes += o.GetBytes
	s.AccCalls += o.AccCalls
	s.AccBytes += o.AccBytes
	s.GetRetries += o.GetRetries
	s.AccRetries += o.AccRetries
	s.LeaseRenewals += o.LeaseRenewals
	s.StealFails += o.StealFails
	s.QuartetsFastSP += o.QuartetsFastSP
	s.QuartetsFastGen += o.QuartetsFastGen
	s.QuartetsGeneral += o.QuartetsGeneral
}

// Reset clears the sample for the next commit episode.
func (s *Sample) Reset() { *s = Sample{} }

// worker is the Registry's committed per-rank accumulation.
type worker struct {
	tasks, steals, flushes histAtomic
	getCalls, getBytes     atomic.Int64
	accCalls, accBytes     atomic.Int64
	getRetries, accRetries atomic.Int64
	leaseRenewals          atomic.Int64
	stealFails             atomic.Int64
	merges                 atomic.Int64

	quartetsFastSP  atomic.Int64
	quartetsFastGen atomic.Int64
	quartetsGeneral atomic.Int64
}

// Registry aggregates committed samples per worker rank. All methods are
// safe for concurrent use; Snapshot may run while a build is in flight
// (the expvar endpoint does exactly that) and sees a consistent-enough
// view for monitoring.
type Registry struct {
	workers   []worker
	discarded atomic.Int64
	dropped   atomic.Int64 // observations inside discarded samples
}

// NewRegistry creates a registry for n worker ranks.
func NewRegistry(n int) *Registry { return &Registry{workers: make([]worker, n)} }

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
	w.tasks.merge(&s.Tasks)
	w.steals.merge(&s.Steals)
	w.flushes.merge(&s.Flushes)
	w.getCalls.Add(s.GetCalls)
	w.getBytes.Add(s.GetBytes)
	w.accCalls.Add(s.AccCalls)
	w.accBytes.Add(s.AccBytes)
	w.getRetries.Add(s.GetRetries)
	w.accRetries.Add(s.AccRetries)
	w.leaseRenewals.Add(s.LeaseRenewals)
	w.stealFails.Add(s.StealFails)
	w.quartetsFastSP.Add(s.QuartetsFastSP)
	w.quartetsFastGen.Add(s.QuartetsFastGen)
	w.quartetsGeneral.Add(s.QuartetsGeneral)
	w.merges.Add(1)
}

// Discard records that a sample was dropped uncommitted (fenced or
// crashed incarnation); its observations are counted as dropped but
// never merged.
func (r *Registry) Discard(s *Sample) {
	if r == nil || s.empty() {
		return
	}
	r.discarded.Add(1)
	r.dropped.Add(s.Tasks.N + s.Steals.N + s.Flushes.N)
}

// WorkerSnapshot is the JSON-facing per-rank view.
type WorkerSnapshot struct {
	Rank          int          `json:"rank"`
	TaskNS        HistSnapshot `json:"task_ns"`
	StealNS       HistSnapshot `json:"steal_ns"`
	FlushNS       HistSnapshot `json:"flush_ns"`
	GetCalls      int64        `json:"get_calls"`
	GetBytes      int64        `json:"get_bytes"`
	AccCalls      int64        `json:"acc_calls"`
	AccBytes      int64        `json:"acc_bytes"`
	GetRetries    int64        `json:"get_retries,omitempty"`
	AccRetries    int64        `json:"acc_retries,omitempty"`
	LeaseRenewals int64        `json:"lease_renewals,omitempty"`
	StealFails    int64        `json:"steal_fails,omitempty"`
	Commits       int64        `json:"commits"`

	QuartetsFastSP  int64 `json:"quartets_fast_sp,omitempty"`
	QuartetsFastGen int64 `json:"quartets_fast_gen,omitempty"`
	QuartetsGeneral int64 `json:"quartets_general,omitempty"`
}

// Snapshot is the JSON-facing registry view.
type Snapshot struct {
	Workers          []WorkerSnapshot `json:"workers"`
	TasksTotal       int64            `json:"tasks_total"`
	StealsTotal      int64            `json:"steals_total"`
	BytesTotal       int64            `json:"bytes_total"`
	DiscardedSamples int64            `json:"discarded_samples"`
	DroppedObs       int64            `json:"dropped_observations"`

	// ERI dispatch totals across ranks; QuartetsGeneralFrac is the
	// general-path fraction (0 when no quartets were recorded).
	QuartetsFastSP      int64   `json:"quartets_fast_sp,omitempty"`
	QuartetsFastGen     int64   `json:"quartets_fast_gen,omitempty"`
	QuartetsGeneral     int64   `json:"quartets_general,omitempty"`
	QuartetsGeneralFrac float64 `json:"quartets_general_frac,omitempty"`
}

// Snapshot captures the current committed totals.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	out := Snapshot{
		Workers:          make([]WorkerSnapshot, len(r.workers)),
		DiscardedSamples: r.discarded.Load(),
		DroppedObs:       r.dropped.Load(),
	}
	for i := range r.workers {
		w := &r.workers[i]
		ws := WorkerSnapshot{
			Rank:          i,
			TaskNS:        w.tasks.snapshot(),
			StealNS:       w.steals.snapshot(),
			FlushNS:       w.flushes.snapshot(),
			GetCalls:      w.getCalls.Load(),
			GetBytes:      w.getBytes.Load(),
			AccCalls:      w.accCalls.Load(),
			AccBytes:      w.accBytes.Load(),
			GetRetries:    w.getRetries.Load(),
			AccRetries:    w.accRetries.Load(),
			LeaseRenewals: w.leaseRenewals.Load(),
			StealFails:    w.stealFails.Load(),
			Commits:       w.merges.Load(),

			QuartetsFastSP:  w.quartetsFastSP.Load(),
			QuartetsFastGen: w.quartetsFastGen.Load(),
			QuartetsGeneral: w.quartetsGeneral.Load(),
		}
		out.Workers[i] = ws
		out.TasksTotal += ws.TaskNS.Count
		out.StealsTotal += ws.StealNS.Count
		out.BytesTotal += ws.GetBytes + ws.AccBytes
		out.QuartetsFastSP += ws.QuartetsFastSP
		out.QuartetsFastGen += ws.QuartetsFastGen
		out.QuartetsGeneral += ws.QuartetsGeneral
	}
	if total := out.QuartetsFastSP + out.QuartetsFastGen + out.QuartetsGeneral; total > 0 {
		out.QuartetsGeneralFrac = float64(out.QuartetsGeneral) / float64(total)
	}
	return out
}

// MarshalJSON serializes the current snapshot, so a *Registry can be
// handed directly to json.Marshal or published via expvar.
func (r *Registry) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Snapshot())
}

// RPC is the transport-level counter set of the network backend. Unlike
// worker Samples it is not merged at commit time: an RPC happened on the
// wire whether or not the work it carried ever commits, so the client
// records into it directly with atomics. All methods are nil-receiver
// safe so a client without metrics costs one branch per call.
type RPC struct {
	latency                  histAtomic // wall time of one answered data RPC attempt, ns
	calls, retries, failures atomic.Int64
	dials, reconnects        atomic.Int64
	resets, dupSends         atomic.Int64
	partitioned              atomic.Int64
	failovers, staleRetries  atomic.Int64
	placementRetries         atomic.Int64
	viewRefreshes            atomic.Int64
	blocksMigrated           atomic.Int64

	// Failure-cause split: a deadline that expired (overload — the peer
	// is slow or we are) versus a connection the peer tore down (faults,
	// restarts, kills). Reports that lump them together cannot tell a
	// saturated service from a dying one.
	deadlineExceeded atomic.Int64
	peerResets       atomic.Int64
}

// ObserveCall records one data RPC the server answered (accepted or
// rejected) with the wall time of that attempt. The client makes single
// attempts — the retry loop lives in dist — so earlier failed attempts
// and their backoff are not part of it.
func (c *RPC) ObserveCall(ns int64) {
	if c == nil {
		return
	}
	var h Hist
	h.Observe(ns)
	c.latency.merge(&h)
	c.calls.Add(1)
}

// AddRetry counts one data-RPC attempt that failed in transport (or
// found no route) and was handed back to the dist retry loop.
func (c *RPC) AddRetry() {
	if c != nil {
		c.retries.Add(1)
	}
}

// AddFailure counts one data RPC the server rejected deterministically;
// an op abandoned by the retry loop shows up as a build-level abort.
func (c *RPC) AddFailure() {
	if c != nil {
		c.failures.Add(1)
	}
}

// AddDial counts one fresh connection established.
func (c *RPC) AddDial() {
	if c != nil {
		c.dials.Add(1)
	}
}

// AddReconnect counts one connection re-established after an error.
func (c *RPC) AddReconnect() {
	if c != nil {
		c.reconnects.Add(1)
	}
}

// AddReset counts one connection torn down mid-RPC (peer or injected).
func (c *RPC) AddReset() {
	if c != nil {
		c.resets.Add(1)
	}
}

// AddDupSend counts one request frame deliberately delivered twice by
// the fault injector.
func (c *RPC) AddDupSend() {
	if c != nil {
		c.dupSends.Add(1)
	}
}

// AddPartitioned counts one RPC failed fast inside a partition window.
func (c *RPC) AddPartitioned() {
	if c != nil {
		c.partitioned.Add(1)
	}
}

// AddDeadlineExceeded counts one RPC attempt that failed because an op
// deadline or retry wall cap expired — the overload signature, as opposed
// to a torn connection (AddPeerReset).
func (c *RPC) AddDeadlineExceeded() {
	if c != nil {
		c.deadlineExceeded.Add(1)
	}
}

// AddPeerReset counts one RPC attempt that failed because the peer reset
// or closed the connection mid-exchange (server kill, restart, injected
// reset) — the fault signature, as opposed to an expired deadline.
func (c *RPC) AddPeerReset() {
	if c != nil {
		c.peerResets.Add(1)
	}
}

// AddFailover counts one completed shard failover (standby promoted and
// routing swapped).
func (c *RPC) AddFailover() {
	if c != nil {
		c.failovers.Add(1)
	}
}

// AddStaleRetry counts one statusRetry answer (standby not yet promoted,
// or a stale shard epoch) that forced an epoch resync and retry.
func (c *RPC) AddStaleRetry() {
	if c != nil {
		c.staleRetries.Add(1)
	}
}

// AddPlacementRetry counts one request refused under a superseded
// placement generation (the block moved; the client re-resolved its
// route from a newer map and retried).
func (c *RPC) AddPlacementRetry() {
	if c != nil {
		c.placementRetries.Add(1)
	}
}

// AddViewRefresh counts one successful fleet-view fetch.
func (c *RPC) AddViewRefresh() {
	if c != nil {
		c.viewRefreshes.Add(1)
	}
}

// AddBlocksMigrated counts blocks observed moving to a new owner (from
// the driver's perspective: placement-generation bumps it routed across).
func (c *RPC) AddBlocksMigrated(n int64) {
	if c != nil && n > 0 {
		c.blocksMigrated.Add(n)
	}
}

// RPCSnapshot is the JSON-facing view of the transport counters.
type RPCSnapshot struct {
	LatencyNS    HistSnapshot `json:"latency_ns"`
	Calls        int64        `json:"calls"`
	Retries      int64        `json:"retries,omitempty"`
	Failures     int64        `json:"failures,omitempty"`
	Dials        int64        `json:"dials"`
	Reconnects   int64        `json:"reconnects,omitempty"`
	Resets       int64        `json:"resets,omitempty"`
	DupSends     int64        `json:"dup_sends,omitempty"`
	Partitioned  int64        `json:"partitioned,omitempty"`
	Failovers    int64        `json:"failovers,omitempty"`
	StaleRetries int64        `json:"stale_retries,omitempty"`
	// Elastic-fleet counters: requests bounced by a superseded placement
	// map, fleet-view fetches, and blocks seen migrating to new owners.
	PlacementRetries int64 `json:"placement_retries,omitempty"`
	ViewRefreshes    int64 `json:"view_refreshes,omitempty"`
	BlocksMigrated   int64 `json:"blocks_migrated,omitempty"`
	// Failure-cause split: expired deadlines (overload) vs peer-torn
	// connections (faults/restarts).
	DeadlineExceeded int64 `json:"deadline_exceeded,omitempty"`
	PeerResets       int64 `json:"peer_resets,omitempty"`
}

// Snapshot captures the current transport counters.
func (c *RPC) Snapshot() RPCSnapshot {
	if c == nil {
		return RPCSnapshot{}
	}
	return RPCSnapshot{
		LatencyNS:        c.latency.snapshot(),
		Calls:            c.calls.Load(),
		Retries:          c.retries.Load(),
		Failures:         c.failures.Load(),
		Dials:            c.dials.Load(),
		Reconnects:       c.reconnects.Load(),
		Resets:           c.resets.Load(),
		DupSends:         c.dupSends.Load(),
		Partitioned:      c.partitioned.Load(),
		Failovers:        c.failovers.Load(),
		StaleRetries:     c.staleRetries.Load(),
		PlacementRetries: c.placementRetries.Load(),
		ViewRefreshes:    c.viewRefreshes.Load(),
		BlocksMigrated:   c.blocksMigrated.Load(),
		DeadlineExceeded: c.deadlineExceeded.Load(),
		PeerResets:       c.peerResets.Load(),
	}
}

// MarshalJSON serializes the current snapshot.
func (c *RPC) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.Snapshot())
}

// Cache is the counter set of the stored-ERI tier (integrals.ERIStore).
// Like RPC it is recorded with direct atomics rather than commit-time
// merging: a replay/recompute decision happened whether or not the task
// it served ever commits, and double counts from fenced re-executions
// are accounting noise, not a correctness hazard (the store itself stays
// exactly-once via first-writer-wins commits). All methods are
// nil-receiver safe.
type Cache struct {
	taskHits, taskMisses             atomic.Int64
	quartetsStored, quartetsReplayed atomic.Int64
	bytesStored                      atomic.Int64
	spills, spillBytes               atomic.Int64
	spillFetches, spillMisses        atomic.Int64
	dropped                          atomic.Int64
}

// AddTaskHit counts one task served from the store (replayed).
func (c *Cache) AddTaskHit() {
	if c != nil {
		c.taskHits.Add(1)
	}
}

// AddTaskMiss counts one task the store could not serve (no entry yet,
// entry dropped over budget, or spill fetch failed) — the caller
// recomputes it through the kernel layer.
func (c *Cache) AddTaskMiss() {
	if c != nil {
		c.taskMisses.Add(1)
	}
}

// AddStored counts one committed task entry: quartets and value bytes
// retained (in memory or on a spill shard).
func (c *Cache) AddStored(quartets, bytes int64) {
	if c != nil {
		c.quartetsStored.Add(quartets)
		c.bytesStored.Add(bytes)
	}
}

// AddReplayed counts quartets applied from stored batches.
func (c *Cache) AddReplayed(quartets int64) {
	if c != nil {
		c.quartetsReplayed.Add(quartets)
	}
}

// AddSpill counts one task's values pushed to the spill backend.
func (c *Cache) AddSpill(bytes int64) {
	if c != nil {
		c.spills.Add(1)
		c.spillBytes.Add(bytes)
	}
}

// AddSpillFetch counts one spilled batch fetched back for replay.
func (c *Cache) AddSpillFetch() {
	if c != nil {
		c.spillFetches.Add(1)
	}
}

// AddSpillMiss counts one spilled batch the backend no longer had (shard
// restarted, blob evicted) — the task falls back to recompute.
func (c *Cache) AddSpillMiss() {
	if c != nil {
		c.spillMisses.Add(1)
	}
}

// AddDropped counts one over-budget task entry dropped instead of
// spilled (no spill backend, or the spill write failed).
func (c *Cache) AddDropped() {
	if c != nil {
		c.dropped.Add(1)
	}
}

// CacheSnapshot is the JSON-facing view of the stored-ERI counters.
type CacheSnapshot struct {
	TaskHits         int64 `json:"task_hits"`
	TaskMisses       int64 `json:"task_misses"`
	QuartetsStored   int64 `json:"quartets_stored"`
	QuartetsReplayed int64 `json:"quartets_replayed"`
	BytesStored      int64 `json:"bytes_stored"`
	Spills           int64 `json:"spills,omitempty"`
	SpillBytes       int64 `json:"spill_bytes,omitempty"`
	SpillFetches     int64 `json:"spill_fetches,omitempty"`
	SpillMisses      int64 `json:"spill_misses,omitempty"`
	Dropped          int64 `json:"dropped,omitempty"`
}

// HitRate returns replayed tasks over replay attempts (0 when none).
func (s CacheSnapshot) HitRate() float64 {
	if s.TaskHits+s.TaskMisses == 0 {
		return 0
	}
	return float64(s.TaskHits) / float64(s.TaskHits+s.TaskMisses)
}

// Sub returns the per-field difference s - b, for per-iteration deltas
// of a monotonically growing counter set.
func (s CacheSnapshot) Sub(b CacheSnapshot) CacheSnapshot {
	return CacheSnapshot{
		TaskHits:         s.TaskHits - b.TaskHits,
		TaskMisses:       s.TaskMisses - b.TaskMisses,
		QuartetsStored:   s.QuartetsStored - b.QuartetsStored,
		QuartetsReplayed: s.QuartetsReplayed - b.QuartetsReplayed,
		BytesStored:      s.BytesStored - b.BytesStored,
		Spills:           s.Spills - b.Spills,
		SpillBytes:       s.SpillBytes - b.SpillBytes,
		SpillFetches:     s.SpillFetches - b.SpillFetches,
		SpillMisses:      s.SpillMisses - b.SpillMisses,
		Dropped:          s.Dropped - b.Dropped,
	}
}

// Snapshot captures the current stored-ERI counters.
func (c *Cache) Snapshot() CacheSnapshot {
	if c == nil {
		return CacheSnapshot{}
	}
	return CacheSnapshot{
		TaskHits:         c.taskHits.Load(),
		TaskMisses:       c.taskMisses.Load(),
		QuartetsStored:   c.quartetsStored.Load(),
		QuartetsReplayed: c.quartetsReplayed.Load(),
		BytesStored:      c.bytesStored.Load(),
		Spills:           c.spills.Load(),
		SpillBytes:       c.spillBytes.Load(),
		SpillFetches:     c.spillFetches.Load(),
		SpillMisses:      c.spillMisses.Load(),
		Dropped:          c.dropped.Load(),
	}
}

// MarshalJSON serializes the current snapshot.
func (c *Cache) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.Snapshot())
}
