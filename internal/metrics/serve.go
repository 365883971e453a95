package metrics

// Serve is the HF service's admission, queueing and shedding counter set
// (DESIGN.md §12), exposed at /v1/stats. One set may be shared by the
// scheduler, the HA peer and the job runner.
type Serve struct {
	Submitted int64 `json:"serve.submitted"`
	Admitted  int64 `json:"serve.admitted"`

	// Rejections by cause: the queue-depth bound, a per-tenant quota, or
	// the resident-memory budget. Split so an overload report can say
	// *which* limit is doing the protecting.
	RejectedQueue int64 `json:"serve.rejected_queue"`
	RejectedQuota int64 `json:"serve.rejected_quota"`
	RejectedMem   int64 `json:"serve.rejected_mem"`

	Shed      int64 `json:"serve.shed"`          // queued jobs dropped by the degradation ladder
	Parked    int64 `json:"serve.parked"`        // running jobs checkpointed and requeued
	Resumed   int64 `json:"serve.resumed"`       // parked jobs that re-entered execution
	Retries   int64 `json:"serve.retries_total"` // job-level retries after shard failure
	Completed int64 `json:"serve.completed"`
	Failed    int64 `json:"serve.failed"`
	Canceled  int64 `json:"serve.canceled"` // deadline-exceeded or client-canceled jobs

	// HA service tier (DESIGN.md §13): jobs this peer adopted from a
	// crashed owner, and status/event queries answered with a 307 to the
	// owning peer. Lease expiries are the registry's to count.
	Adopted        int64 `json:"serve.adopted,omitempty"`
	OwnerRedirects int64 `json:"serve.owner_redirects,omitempty"`

	// Gauges: the queue depth with its high-water mark (the bound the
	// overload test asserts on), and the jobs executing.
	QueueDepth     int64 `json:"serve.queue_depth"`
	QueueHighWater int64 `json:"serve.queue_high_water"`
	Running        int64 `json:"serve.running"`

	// Job latency phases: admission to dispatch, dispatch to done.
	QueueWaitNS Hist `json:"serve.queue_wait_ns"`
	RunTimeNS   Hist `json:"serve.run_time_ns"`

	// The SCF checkpoint writer, which runs beside the solve: checkpoints
	// made durable, snapshots a newer one overwrote while a write was in
	// flight (iterations a crash would re-execute), and the wall time of
	// each write. A coalesced count that keeps pace with written is a
	// disk that has fallen behind the solver.
	CkptWritten   int64 `json:"serve.ckpt_written"`
	CkptCoalesced int64 `json:"serve.ckpt_coalesced"`
	CkptWriteNS   Hist  `json:"serve.ckpt_write_ns"`
}

// NewServe returns an empty Serve counter set.
func NewServe() *Serve { return &Serve{} }

// Snapshot returns a point-in-time copy of the counters.
func (s *Serve) Snapshot() Serve { return Load(s) }
