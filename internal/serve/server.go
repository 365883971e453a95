package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gtfock/internal/metrics"
)

// TenantConfig sets one tenant's scheduling parameters.
type TenantConfig struct {
	// Weight is the tenant's fair-share weight; slots are granted
	// proportionally to weights over time. Default 1.
	Weight float64 `json:"weight,omitempty"`
	// MaxQueued bounds the tenant's pending jobs (quota); 0 = bounded
	// only by the global queue.
	MaxQueued int `json:"max_queued,omitempty"`
	// MaxRunning bounds the tenant's concurrently executing jobs;
	// 0 = bounded only by server capacity.
	MaxRunning int `json:"max_running,omitempty"`
}

// Runner executes one admitted job to completion. Implementations own
// the retry-across-shard-failure loop (FleetRunner); the server owns
// scheduling, deadlines and parking, delivered through ctx causes.
type Runner interface {
	Run(ctx context.Context, j *Job) (*JobResult, error)
}

// RunnerFunc adapts a closure to Runner (stub runners in tests).
type RunnerFunc func(ctx context.Context, j *Job) (*JobResult, error)

func (f RunnerFunc) Run(ctx context.Context, j *Job) (*JobResult, error) { return f(ctx, j) }

// Config parameterizes a Server.
type Config struct {
	// Capacity is the number of concurrently executing jobs (default 2).
	Capacity int
	// MaxQueue bounds the admission queue depth (default 4x capacity).
	// Admissions beyond it are shed-or-rejected, never absorbed.
	MaxQueue int
	// MemBudget bounds the summed charges of admitted jobs: a submission
	// whose fixed bytes (JobSize.Fixed) do not fit is rejected, and a
	// running job's store gets a share of what is left (storeLocked),
	// down to none. 0 = unlimited, every store at its full bound.
	MemBudget int64
	// Tenants maps tenant name to its quota/weight config; unknown
	// tenants get DefaultTenant.
	Tenants       map[string]TenantConfig
	DefaultTenant TenantConfig
	// Preempt enables the priority ladder's last rung: when every slot
	// is busy and a strictly higher-priority job arrives, the
	// lowest-priority running job is checkpointed and parked back into
	// the queue.
	Preempt bool
	// Runner executes jobs (required). Estimate validates a spec and sizes
	// it for the memory charge; with a FleetRunner it defaults to the
	// runner's own Estimate, since what a job holds depends on how its
	// runner runs it, and any other Runner needs one.
	Runner   Runner
	Estimate func(JobSpec) (JobSize, error)
	// Metrics collects the admission/queue/shed counters; nil gets a
	// private set.
	Metrics *metrics.Serve
}

// RejectError is an explicit 503-style admission refusal: the job was
// never admitted and holds no server resources. Returned synchronously
// from Submit so rejection latency is bounded by admission bookkeeping,
// not by the queue.
type RejectError struct {
	Cause RejectCause
	Msg   string
}

// RejectCause names which admission limit refused a job.
type RejectCause int

const (
	RejectQueueFull RejectCause = iota
	RejectQuota
	RejectMemory
)

func (e *RejectError) Error() string { return e.Msg }

// IsReject reports whether err is an admission rejection.
func IsReject(err error) bool {
	var re *RejectError
	return errors.As(err, &re)
}

// Server is the overload-safe multi-tenant HF job server.
type Server struct {
	cfg Config
	met *metrics.Serve
	// forget drops what the runner keeps of a job past its runs (a
	// FleetRunner's checkpoint files) once its terminal outcome is
	// published and, with onTerminal, durable.
	forget func(*Job)
	// onTerminal, when non-nil (a Peer's, Peer.onTerminal), is invoked on
	// its own goroutine, outside the scheduler lock, each time a job
	// reaches a terminal outcome — done, failed, canceled or shed — BEFORE
	// that outcome is visible through the job: state, result and the
	// terminal event are published only once it returns
	// (finish-then-publish). A non-nil return means the outcome is not
	// durable, and the job is published as failed with that error instead.
	// Drain-parks are not terminal and do not fire it.
	onTerminal func(j *Job, state JobState, res *JobResult, err error) error

	mu       sync.Mutex
	q        *fairQueue
	jobs     map[string]*Job
	recent   []*Job // terminal jobs in jobs, oldest first (keepHistory)
	running  map[*Job]context.CancelCauseFunc
	memUsed  int64
	draining bool
	drained  chan struct{} // closed once a drain has no running job and no pending outcome left
	pending  int           // terminal outcomes handed to onTerminal, not yet published
	nextID   int64
}

// NewServer builds a Server over cfg; Start is implicit (the executor
// is event-driven, no background goroutines until jobs arrive).
func NewServer(cfg Config) (*Server, error) {
	if cfg.Runner == nil {
		return nil, errors.New("serve: Config.Runner is required")
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 2
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.Capacity
	}
	forget := func(*Job) {}
	if fr, ok := cfg.Runner.(*FleetRunner); ok {
		if cfg.Estimate == nil {
			cfg.Estimate = fr.Estimate
		}
		forget = fr.forget
	} else if cfg.Estimate == nil {
		return nil, errors.New("serve: Config.Estimate is required with a Runner other than a FleetRunner")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewServe()
	}
	return &Server{
		cfg:     cfg,
		met:     cfg.Metrics,
		forget:  forget,
		q:       newFairQueue(cfg.MaxQueue),
		jobs:    map[string]*Job{},
		running: map[*Job]context.CancelCauseFunc{},
	}, nil
}

// Capacity and MaxQueue report the effective (defaulted) admission
// bounds.
func (s *Server) Capacity() int { return s.cfg.Capacity }
func (s *Server) MaxQueue() int { return s.cfg.MaxQueue }

func (s *Server) tenantConfig(name string) TenantConfig {
	if tc, ok := s.cfg.Tenants[name]; ok {
		return tc
	}
	return s.cfg.DefaultTenant
}

// JobSize is what a job's charges are computed from, measured once per
// submission by Config.Estimate.
type JobSize struct {
	NumBF int
	// Fixed is what the job holds from admission to its end, whatever its
	// store gets: the SCF working set and its Fock builds' local buffers
	// (core.LocalBytes). It is the admission charge.
	Fixed int64
	// StoreIndex and StoreValues bound one run's stored-ERI tier
	// (core.StoreBytes): its index legs, resident whenever the store is
	// on, and its values, the part scf.Options.ERICacheBudget bounds.
	StoreIndex, StoreValues int64
}

// storeCharge is what a store of value budget share holds against the
// memory budget: nothing when it is off, else its index legs and share.
func (z JobSize) storeCharge(share int64) int64 {
	if share == 0 {
		return 0
	}
	return z.StoreIndex + share
}

// fitsLocked reports whether a job of size z is admitted under the memory
// budget now: its Fixed bytes fit. Admission and the adoption scanner
// both ask it. Caller holds s.mu.
func (s *Server) fitsLocked(z JobSize) bool {
	return s.cfg.MemBudget <= 0 || s.memUsed+z.Fixed <= s.cfg.MemBudget
}

// fits is fitsLocked for the adoption scanner.
func (s *Server) fits(z JobSize) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fitsLocked(z)
}

// storeLocked is the one store rule: it gives j, being dispatched (already
// in s.running, off the queue), its run's store share and charges it. A
// store takes only what the budget leaves free once every slot the
// service holds — Capacity running and MaxQueue queued — is charged fixed
// bytes: an admitted job its own, an empty slot j's. Stores so never
// crowd out the admission of jobs like j. The share is the store's value
// bound, or what free leaves after its index legs, and 0 — no store,
// every build recomputes — when that is nothing. No budget: every store
// at its bound. runJob releases the share when the run ends or parks.
// Caller holds s.mu.
func (s *Server) storeLocked(j *Job) {
	z := j.Size
	free := z.StoreIndex + z.StoreValues
	if b := s.cfg.MemBudget; b > 0 {
		empty := max(0, s.cfg.Capacity+s.cfg.MaxQueue-len(s.running)-s.q.depth)
		free = b - s.memUsed - int64(empty)*z.Fixed
	}
	j.Store = max(0, min(z.StoreValues, free-z.StoreIndex))
	s.memUsed += z.storeCharge(j.Store)
}

// Submit runs admission control and either enqueues the job under a
// local id or returns an explicit rejection. The error is a *RejectError
// for overload refusals (503) and a plain error for malformed specs
// (400). hfd submits through Peer.Submit, which admits under the
// registry's id.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	atomic.AddInt64(&s.met.Submitted, 1)
	pj, err := s.prepareJob(spec)
	if err != nil {
		return nil, fmt.Errorf("serve: bad job spec: %w", err)
	}
	return s.admit("", pj)
}

// admit is the scheduler half of a submission: memory budget, tenant
// quota, queue bound and shed ladder, then the job exists under id
// (id == "" allocates a local one).
func (s *Server) admit(id string, pj preparedJob) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, &RejectError{Cause: RejectQueueFull, Msg: ErrDraining.Error()}
	}
	if !s.fitsLocked(pj.size) {
		atomic.AddInt64(&s.met.RejectedMem, 1)
		return nil, &RejectError{Cause: RejectMemory,
			Msg: fmt.Sprintf("serve: memory budget exceeded (%d + %d > %d bytes)", s.memUsed, pj.size.Fixed, s.cfg.MemBudget)}
	}

	if id == "" {
		s.nextID++
		id = fmt.Sprintf("j-%06d", s.nextID)
	}
	j := pj.start(id)
	t := s.q.tenant(j.Spec.Tenant, pj.tc.Weight, pj.tc.MaxQueued, pj.tc.MaxRunning)
	shed, aerr := s.q.push(t, j)
	if aerr != nil {
		j.cancel(nil)
		cause, counter := RejectQueueFull, &s.met.RejectedQueue
		if aerr.cause == "tenant_quota" {
			cause, counter = RejectQuota, &s.met.RejectedQuota
		}
		atomic.AddInt64(counter, 1)
		return nil, &RejectError{Cause: cause, Msg: aerr.msg}
	}
	s.jobs[id] = j
	s.memUsed += j.Size.Fixed
	atomic.AddInt64(&s.met.Admitted, 1)
	j.Emit(Event{Type: "queued", State: StateQueued})
	if shed != nil {
		s.finalizeShedLocked(shed, j)
	}
	s.noteQueueLocked()
	if s.cfg.Preempt {
		s.maybePreemptLocked(j)
	}
	s.scheduleLocked()
	return j, nil
}

// preparedJob is a spec that passed validation: normalised (tenant,
// basis and MaxIter defaulted) and sized.
type preparedJob struct {
	spec JobSpec
	size JobSize
	tc   TenantConfig
}

// prepareJob is what admission (Submit, Peer.Submit) and re-entry
// (the adoption scanner, adopt) share, and the one place a spec is
// defaulted: it normalises the spec, then validates and sizes it —
// outside s.mu, Estimate builds the molecule's basis. Its size is what
// fitsLocked admits on, at submission and adoption alike, and what
// storeLocked shares the budget by. The error of a malformed spec is
// plain, never a RejectError: the HTTP layer's 400-vs-503 split relies
// on that.
func (s *Server) prepareJob(spec JobSpec) (preparedJob, error) {
	spec.Tenant = tenantName(spec.Tenant)
	if spec.Basis == "" {
		spec.Basis = "sto-3g"
	}
	if spec.MaxIter <= 0 {
		spec.MaxIter = 30
	}
	size, err := s.cfg.Estimate(spec)
	if err != nil {
		return preparedJob{}, err
	}
	return preparedJob{spec: spec, size: size, tc: s.tenantConfig(spec.Tenant)}, nil
}

// start creates the job under id and arms its deadline, counted from
// this moment; callers invoke it under their own entry checks.
func (pj preparedJob) start(id string) *Job {
	ctx := context.Background()
	var cancel context.CancelCauseFunc
	if pj.spec.DeadlineMs > 0 {
		ctx, cancel = withDeadlineCause(ctx, time.Duration(pj.spec.DeadlineMs)*time.Millisecond, ErrDeadline)
	} else {
		ctx, cancel = context.WithCancelCause(ctx)
	}
	return newJob(id, pj.spec, pj.size, pj.tc.Weight, ctx, cancel)
}

// adopt re-enters an already-admitted job — adopted from a crashed
// peer's expired lease — into the local scheduler. Adoption is re-entry,
// not admission: the job was accepted by the service when first
// submitted, so the queue-depth bound and the shed ladder do not apply,
// and its fixed charge is not refused (the adoption scanner checks fits
// before acquiring the lease, which keeps the transient overshoot
// bounded). The job resumes from its on-disk checkpoint through the
// runner's normal fresh-session path.
func (s *Server) adopt(id string, pj preparedJob) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	if s.jobs[id] != nil {
		return nil, fmt.Errorf("serve: job %s already present", id)
	}
	// The deadline restarts on the adopter: the original submission time
	// died with the old owner, and a conservative (longer) total latency
	// beats canceling work that survived a crash.
	j := pj.start(id)
	s.jobs[id] = j
	s.memUsed += j.Size.Fixed
	j.Emit(Event{Type: "queued", State: StateQueued, Msg: "adopted"})
	t := s.q.tenant(j.Spec.Tenant, pj.tc.Weight, pj.tc.MaxQueued, pj.tc.MaxRunning)
	s.q.requeue(t, j)
	s.noteQueueLocked()
	s.scheduleLocked()
	return j, nil
}

// Kill simulates abrupt process death for chaos runs: scheduling and
// admission stop instantly, queued jobs are abandoned where they stand,
// and running jobs' contexts are canceled so their goroutines unwind.
// Nothing is parked, drained, or reported — exactly what a SIGKILLed
// daemon leaves behind. Local job state afterwards is meaningless; the
// registry's lease expiry is what recovers the jobs elsewhere.
func (s *Server) Kill() {
	s.mu.Lock()
	s.draining = true
	s.q.drainQueued()
	s.noteQueueLocked()
	for _, cancel := range s.running {
		cancel(ErrKilled)
	}
	s.mu.Unlock()
}

// cancelJob cancels job id with cause: a running job's run, or a queued
// job, which its dispatch then finishes without running it. The Peer
// cancels a job whose lease the registry reports lost through it.
func (s *Server) cancelJob(id string, cause error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return
	}
	if cancel := s.running[j]; cancel != nil {
		cancel(cause)
	} else {
		j.cancel(cause)
	}
}

// Draining reports whether the server has stopped admission (drain in
// progress or completed). The /readyz endpoint keys off it.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// withDeadlineCause is context.WithDeadlineCause wrapped to also return
// a CancelCauseFunc usable for client cancellation; calling it releases
// the deadline timer too.
func withDeadlineCause(parent context.Context, d time.Duration, cause error) (context.Context, context.CancelCauseFunc) {
	dctx, dcancel := context.WithDeadlineCause(parent, time.Now().Add(d), cause)
	ctx, ccancel := context.WithCancelCause(dctx)
	return ctx, func(err error) {
		ccancel(err)
		dcancel()
	}
}

// finalizeShedLocked terminates a job the degradation ladder dropped
// from the queue to make room for by.
func (s *Server) finalizeShedLocked(victim, by *Job) {
	s.memUsed -= victim.Size.Fixed
	s.publishTerminal(victim, StateShed, nil,
		fmt.Errorf("serve: shed from queue by higher-priority job %s", by.ID))
}

// maybePreemptLocked parks the lowest-priority running job when every
// slot is busy and arrival outranks it — the checkpointed job re-queues
// and resumes later from its last completed iteration.
func (s *Server) maybePreemptLocked(arrival *Job) {
	if len(s.running) < s.cfg.Capacity {
		return
	}
	var victim *Job
	for j := range s.running {
		if victim == nil || j.Spec.Priority < victim.Spec.Priority {
			victim = j
		}
	}
	if victim != nil && victim.Spec.Priority < arrival.Spec.Priority {
		s.running[victim](ErrParked)
	}
}

// noteQueueLocked publishes the queue-depth and running gauges and the
// depth's high-water mark.
func (s *Server) noteQueueLocked() {
	atomic.StoreInt64(&s.met.QueueDepth, int64(s.q.depth))
	metrics.StoreMax(&s.met.QueueHighWater, int64(s.q.depth))
	atomic.StoreInt64(&s.met.Running, int64(len(s.running)))
}

// scheduleLocked fills free executor slots from the fair-share queue.
func (s *Server) scheduleLocked() {
	for len(s.running) < s.cfg.Capacity && !s.draining {
		j := s.q.pop()
		if j == nil {
			break
		}
		s.noteQueueLocked()
		// A job whose deadline expired while queued is canceled without
		// consuming a slot (its tenant's accounting is rolled back).
		if j.ctx.Err() != nil {
			s.q.release(s.q.tenant(j.Spec.Tenant, 1, 0, 0))
			s.finishLocked(j, nil, context.Cause(j.ctx))
			continue
		}
		runCtx, runCancel := context.WithCancelCause(j.ctx)
		s.running[j] = runCancel
		s.storeLocked(j)
		s.noteQueueLocked()
		go s.runJob(j, runCtx)
	}
}

func (s *Server) runJob(j *Job, runCtx context.Context) {
	j.mu.Lock()
	first := j.started.IsZero()
	if first {
		j.started = time.Now()
		s.met.QueueWaitNS.Observe(j.started.Sub(j.submitted).Nanoseconds())
	} else {
		atomic.AddInt64(&s.met.Resumed, 1)
	}
	j.state = StateRunning
	j.appendLocked(Event{Type: "running", State: StateRunning, Iter: j.resumeAt})
	j.mu.Unlock()

	res, err := s.cfg.Runner.Run(runCtx, j)
	if err == nil && res == nil {
		err = errors.New("serve: runner returned no result")
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	runCancel := s.running[j]
	delete(s.running, j)
	s.memUsed -= j.Size.storeCharge(j.Store)
	s.noteQueueLocked()
	if runCancel != nil {
		runCancel(nil)
	}
	s.q.release(s.q.tenant(j.Spec.Tenant, 1, 0, 0))

	// A parked run is not terminal: re-queue (preemption) or leave
	// parked with its checkpoint on disk (drain).
	cause := context.Cause(runCtx)
	if err != nil && (errors.Is(cause, ErrParked) || errors.Is(err, ErrParked)) && !s.draining {
		atomic.AddInt64(&s.met.Parked, 1)
		j.setState(StateParked, "preempted")
		j.setState(StateQueued, "requeued after park")
		tc := s.tenantConfig(j.Spec.Tenant)
		t := s.q.tenant(j.Spec.Tenant, tc.Weight, tc.MaxQueued, tc.MaxRunning)
		// Depth may transiently exceed MaxQueue by at most Capacity
		// parked jobs; the admission bound applies to Submit, not to
		// re-entry of already-admitted work.
		s.q.requeue(t, j)
		s.noteQueueLocked()
		s.scheduleLocked()
		return
	}
	if err != nil && (errors.Is(cause, ErrDraining) || errors.Is(err, ErrDraining)) {
		atomic.AddInt64(&s.met.Parked, 1)
		j.mu.Lock()
		j.state = StateParked
		j.err = ErrDraining
		j.appendLocked(Event{Type: "parked", State: StateParked, Msg: "server draining"})
		j.mu.Unlock()
		s.memUsed -= j.Size.Fixed
		s.noteDrainedLocked()
		return
	}
	s.finishLocked(j, res, err)
	s.scheduleLocked()
}

// finishLocked applies a terminal outcome. Caller holds s.mu.
func (s *Server) finishLocked(j *Job, res *JobResult, err error) {
	s.memUsed -= j.Size.Fixed
	state := StateFailed
	switch {
	case err == nil:
		state = StateDone
	case errors.Is(err, ErrDeadline) || errors.Is(err, ErrCanceled) ||
		errors.Is(context.Cause(j.ctx), ErrDeadline) || errors.Is(context.Cause(j.ctx), ErrCanceled):
		state = StateCanceled
	}
	if res != nil {
		j.mu.Lock()
		res.Retries = j.retries
		j.mu.Unlock()
	}
	s.publishTerminal(j, state, res, err)
	s.noteDrainedLocked()
}

// publishTerminal makes a decided terminal outcome visible. Caller holds
// s.mu and has settled the scheduler accounting (slots, memory). With an
// onTerminal hook the order is finish-then-publish: the hook runs first,
// off the scheduler lock, and the job stays in its pre-terminal state
// until it returns — a client that has seen a terminal state or event
// can rely on what the hook recorded. Either way the runner forgets the
// job off the scheduler lock, so its file removals never stall a Submit.
func (s *Server) publishTerminal(j *Job, state JobState, res *JobResult, err error) {
	if s.onTerminal == nil {
		s.publish(j, state, res, err)
		s.keepLocked(j)
		go s.forget(j)
		return
	}
	// The goroutine is bounded by the hook (Peer.onTerminal gives up after
	// its retry budget or when the peer stops). Drain waits for it through
	// s.pending, so a drain cannot hand back a lease whose job has already
	// finished and is only waiting to be recorded.
	s.pending++
	go func() {
		herr := s.onTerminal(j, state, res, err)
		if herr != nil {
			state, res, err = StateFailed, nil, herr
		}
		s.publish(j, state, res, err)
		if herr == nil {
			s.forget(j)
		}
		s.mu.Lock()
		s.pending--
		s.keepLocked(j)
		s.noteDrainedLocked()
		s.mu.Unlock()
	}()
}

// keepHistory is how many published terminal jobs a server keeps, event
// history included. An older one is the registry's alone: API.miss
// serves its terminal record.
const keepHistory = 256

// keepLocked counts j, just published terminal, among the jobs kept and
// drops the oldest one beyond keepHistory. Caller holds s.mu.
func (s *Server) keepLocked(j *Job) {
	s.recent = append(s.recent, j)
	if len(s.recent) > keepHistory {
		delete(s.jobs, s.recent[0].ID)
		s.recent = append(s.recent[:0], s.recent[1:]...)
	}
}

// publish writes the terminal outcome into the job and wakes everyone
// waiting on it.
func (s *Server) publish(j *Job, state JobState, res *JobResult, err error) {
	j.mu.Lock()
	j.finished = time.Now()
	if !j.started.IsZero() {
		s.met.RunTimeNS.Observe(j.finished.Sub(j.started).Nanoseconds())
	}
	j.result, j.err, j.state = res, err, state
	ev := Event{Type: state.String(), State: state}
	switch state {
	case StateDone:
		atomic.AddInt64(&s.met.Completed, 1)
		ev.Energy = res.Energy
	case StateCanceled:
		atomic.AddInt64(&s.met.Canceled, 1)
	case StateShed:
		atomic.AddInt64(&s.met.Shed, 1)
	default:
		atomic.AddInt64(&s.met.Failed, 1)
	}
	if err != nil {
		ev.Msg = err.Error()
	}
	j.appendLocked(ev)
	j.mu.Unlock()
	j.cancel(nil)
}

func (s *Server) noteDrainedLocked() {
	if s.draining && len(s.running) == 0 && s.pending == 0 && s.drained != nil {
		close(s.drained)
		s.drained = nil
	}
}

// Job looks up an admitted job by id: queued, running, parked, or one of
// the last keepHistory terminal ones.
func (s *Server) Job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// MemUsed returns the resident-memory estimate currently admitted.
func (s *Server) MemUsed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.memUsed
}

// Drain gracefully shuts the server down: admission stops immediately,
// queued jobs are parked where they stand, and running jobs are
// canceled with ErrDraining — each saves its per-iteration checkpoint
// and parks, so a restarted daemon (or the same jobs resubmitted) can
// resume rather than recompute. Blocks until running jobs have parked
// or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	var done chan struct{}
	if len(s.running) > 0 || s.pending > 0 {
		done = make(chan struct{})
		s.drained = done
	}
	for _, j := range s.q.drainQueued() {
		atomic.AddInt64(&s.met.Parked, 1)
		s.memUsed -= j.Size.Fixed
		j.mu.Lock()
		j.state = StateParked
		j.err = ErrDraining
		j.appendLocked(Event{Type: "parked", State: StateParked, Msg: "server draining"})
		j.cond.Broadcast()
		j.mu.Unlock()
	}
	s.noteQueueLocked()
	for _, cancel := range s.running {
		cancel(ErrDraining)
	}
	s.mu.Unlock()
	if done == nil {
		return nil
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain timed out: %w", context.Cause(ctx))
	}
}
