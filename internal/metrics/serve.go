package metrics

import "sync/atomic"

// Serve collects the HF service's admission, queueing and shedding
// counters (DESIGN.md §12). All methods are safe for concurrent use and
// nil-safe, mirroring RPC, so instrumented code never branches on
// whether metrics are wired.
type Serve struct {
	submitted atomic.Int64
	admitted  atomic.Int64

	// Rejections by cause: the queue-depth bound, a per-tenant quota, or
	// the resident-memory budget. Split so an overload report can say
	// *which* limit is doing the protecting.
	rejectedQueue atomic.Int64
	rejectedQuota atomic.Int64
	rejectedMem   atomic.Int64

	shed      atomic.Int64 // queued jobs dropped by the degradation ladder
	parked    atomic.Int64 // running jobs checkpointed and requeued
	resumed   atomic.Int64 // parked jobs that re-entered execution
	retries   atomic.Int64 // job-level retries after shard failure
	completed atomic.Int64
	failed    atomic.Int64
	canceled  atomic.Int64 // deadline-exceeded or client-canceled jobs

	// HA service-tier counters (DESIGN.md §13): jobs this peer adopted
	// from a crashed owner, job-ownership leases the registry expired,
	// and status/event queries answered with a 307 to the owning peer.
	adopted        atomic.Int64
	leaseExpiries  atomic.Int64
	ownerRedirects atomic.Int64

	queueDepth     atomic.Int64
	queueHighWater atomic.Int64
	running        atomic.Int64

	// queueWait and runTime are job latency phases in nanoseconds:
	// admission→dispatch and dispatch→done.
	queueWait histAtomic
	runTime   histAtomic

	// The SCF checkpoint writer, which runs beside the solve: checkpoints
	// made durable, snapshots a newer one overwrote while a write was in
	// flight (iterations a crash would re-execute), and the wall time of
	// each write. A coalesced count that keeps pace with written is a
	// disk that has fallen behind the solver.
	ckptWritten   atomic.Int64
	ckptCoalesced atomic.Int64
	ckptWrite     histAtomic
}

// NewServe returns an empty Serve counter set.
func NewServe() *Serve { return &Serve{} }

func (s *Serve) AddSubmitted() {
	if s != nil {
		s.submitted.Add(1)
	}
}

func (s *Serve) AddAdmitted() {
	if s != nil {
		s.admitted.Add(1)
	}
}

// RejectCause names which admission limit refused a job.
type RejectCause int

const (
	RejectQueueFull RejectCause = iota
	RejectQuota
	RejectMemory
)

func (s *Serve) AddRejected(cause RejectCause) {
	if s == nil {
		return
	}
	switch cause {
	case RejectQuota:
		s.rejectedQuota.Add(1)
	case RejectMemory:
		s.rejectedMem.Add(1)
	default:
		s.rejectedQueue.Add(1)
	}
}

func (s *Serve) AddShed() {
	if s != nil {
		s.shed.Add(1)
	}
}

func (s *Serve) AddParked() {
	if s != nil {
		s.parked.Add(1)
	}
}

func (s *Serve) AddResumed() {
	if s != nil {
		s.resumed.Add(1)
	}
}

func (s *Serve) AddRetry() {
	if s != nil {
		s.retries.Add(1)
	}
}

func (s *Serve) AddCompleted() {
	if s != nil {
		s.completed.Add(1)
	}
}

func (s *Serve) AddFailed() {
	if s != nil {
		s.failed.Add(1)
	}
}

func (s *Serve) AddCanceled() {
	if s != nil {
		s.canceled.Add(1)
	}
}

func (s *Serve) AddAdopted() {
	if s != nil {
		s.adopted.Add(1)
	}
}

func (s *Serve) AddLeaseExpiry() {
	if s != nil {
		s.leaseExpiries.Add(1)
	}
}

func (s *Serve) AddOwnerRedirect() {
	if s != nil {
		s.ownerRedirects.Add(1)
	}
}

// Adopted, LeaseExpiries and OwnerRedirects read the HA counters (the
// expvar surface publishes them individually by name).
func (s *Serve) Adopted() int64 {
	if s == nil {
		return 0
	}
	return s.adopted.Load()
}

func (s *Serve) LeaseExpiries() int64 {
	if s == nil {
		return 0
	}
	return s.leaseExpiries.Load()
}

func (s *Serve) OwnerRedirects() int64 {
	if s == nil {
		return 0
	}
	return s.ownerRedirects.Load()
}

// SetQueueDepth records the instantaneous queue depth and maintains the
// high-water mark (the bound the overload test asserts on).
func (s *Serve) SetQueueDepth(d int) {
	if s == nil {
		return
	}
	s.queueDepth.Store(int64(d))
	for {
		hw := s.queueHighWater.Load()
		if int64(d) <= hw || s.queueHighWater.CompareAndSwap(hw, int64(d)) {
			return
		}
	}
}

func (s *Serve) SetRunning(n int) {
	if s != nil {
		s.running.Store(int64(n))
	}
}

func (s *Serve) ObserveQueueWait(ns int64) {
	if s != nil {
		var h Hist
		h.Observe(ns)
		s.queueWait.merge(&h)
	}
}

func (s *Serve) ObserveRunTime(ns int64) {
	if s != nil {
		var h Hist
		h.Observe(ns)
		s.runTime.merge(&h)
	}
}

// ObserveCheckpoint records one durable checkpoint write of ns
// nanoseconds that coalesced the given number of older snapshots.
func (s *Serve) ObserveCheckpoint(ns int64, coalesced int) {
	if s != nil {
		s.ckptWritten.Add(1)
		s.ckptCoalesced.Add(int64(coalesced))
		var h Hist
		h.Observe(ns)
		s.ckptWrite.merge(&h)
	}
}

// ServeSnapshot is the JSON-facing view of Serve, exposed at /v1/stats.
type ServeSnapshot struct {
	Submitted      int64        `json:"submitted"`
	Admitted       int64        `json:"admitted"`
	RejectedQueue  int64        `json:"rejected_queue"`
	RejectedQuota  int64        `json:"rejected_quota"`
	RejectedMem    int64        `json:"rejected_mem"`
	Shed           int64        `json:"shed"`
	Parked         int64        `json:"parked"`
	Resumed        int64        `json:"resumed"`
	Retries        int64        `json:"retries"`
	Completed      int64        `json:"completed"`
	Failed         int64        `json:"failed"`
	Canceled       int64        `json:"canceled"`
	Adopted        int64        `json:"adopted,omitempty"`
	LeaseExpiries  int64        `json:"lease_expiries,omitempty"`
	OwnerRedirects int64        `json:"owner_redirects,omitempty"`
	QueueDepth     int64        `json:"queue_depth"`
	QueueHighWater int64        `json:"queue_high_water"`
	Running        int64        `json:"running"`
	QueueWaitNs    HistSnapshot `json:"queue_wait_ns"`
	RunTimeNs      HistSnapshot `json:"run_time_ns"`
	CkptWritten    int64        `json:"ckpt_written"`
	CkptCoalesced  int64        `json:"ckpt_coalesced"`
	CkptWriteNs    HistSnapshot `json:"ckpt_write_ns"`
}

// Snapshot returns a point-in-time copy of the counters.
func (s *Serve) Snapshot() ServeSnapshot {
	if s == nil {
		return ServeSnapshot{}
	}
	return ServeSnapshot{
		Submitted:      s.submitted.Load(),
		Admitted:       s.admitted.Load(),
		RejectedQueue:  s.rejectedQueue.Load(),
		RejectedQuota:  s.rejectedQuota.Load(),
		RejectedMem:    s.rejectedMem.Load(),
		Shed:           s.shed.Load(),
		Parked:         s.parked.Load(),
		Resumed:        s.resumed.Load(),
		Retries:        s.retries.Load(),
		Completed:      s.completed.Load(),
		Failed:         s.failed.Load(),
		Canceled:       s.canceled.Load(),
		Adopted:        s.adopted.Load(),
		LeaseExpiries:  s.leaseExpiries.Load(),
		OwnerRedirects: s.ownerRedirects.Load(),
		QueueDepth:     s.queueDepth.Load(),
		QueueHighWater: s.queueHighWater.Load(),
		Running:        s.running.Load(),
		QueueWaitNs:    s.queueWait.snapshot(),
		RunTimeNs:      s.runTime.snapshot(),
		CkptWritten:    s.ckptWritten.Load(),
		CkptCoalesced:  s.ckptCoalesced.Load(),
		CkptWriteNs:    s.ckptWrite.snapshot(),
	}
}
