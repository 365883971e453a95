// Package serve is the multi-tenant HF service layer: it accepts many
// concurrent SCF jobs, multiplexes them onto a shared fockd shard fleet
// through job-scoped netga sessions, and keeps the daemon overload-safe
// with explicit admission control, per-tenant fair-share scheduling,
// per-job deadlines, and a graceful degradation ladder (DESIGN.md §12).
//
// The invariant the whole package is built around: once a job is
// ADMITTED it either completes with a correct energy or terminates with
// an explicit, attributable error (deadline, cancel, shed, shard
// failure past the retry budget) — never silently lost, never stuck
// unbounded, and never the cause of an OOM. Load beyond the configured
// budgets is refused at the door with a 503-style rejection instead of
// being absorbed.
package serve

import (
	"context"
	"errors"
	"sync"
	"time"
)

// JobState is one node of the job lifecycle state machine:
//
//	submit ──(admission)──> Queued ──> Running ──> Done
//	   │                      │  ▲        │  ├───> Failed
//	   └─> rejected (no job)  │  └(park)──┤  └───> Canceled
//	                          └─> Shed    └──(retry, same state)
//
// Rejected submissions never become Jobs — the caller gets the error
// synchronously, which is what keeps rejection latency bounded.
type JobState int32

const (
	StateQueued JobState = iota
	StateRunning
	StateDone
	StateFailed
	StateCanceled // deadline exceeded or canceled by the client
	StateShed     // dropped from the queue by the degradation ladder
	StateParked   // checkpointed and off the executor; resumable
)

func (s JobState) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCanceled:
		return "canceled"
	case StateShed:
		return "shed"
	case StateParked:
		return "parked"
	}
	return "unknown"
}

// Terminal reports whether the state ends the job's lifecycle. Parked is
// deliberately not terminal while serving (the job re-queues), but a
// drain leaves jobs Parked with their checkpoints on disk.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled || s == StateShed
}

// Cancellation causes, distinguished through context.Cause so the SCF
// stack reports *why* it stopped and the server maps the reason to the
// right terminal state.
var (
	ErrDeadline  = errors.New("serve: job deadline exceeded")
	ErrCanceled  = errors.New("serve: job canceled by client")
	ErrParked    = errors.New("serve: job parked (preempted)")
	ErrDraining  = errors.New("serve: server draining")
	ErrKilled    = errors.New("serve: peer killed")    // chaos: simulated SIGKILL
	ErrLeaseLost = errors.New("serve: job lease lost") // another peer adopted the job
)

// JobSpec is what a tenant submits: the chemical system plus scheduling
// metadata. The zero value of every field has a sane default.
type JobSpec struct {
	// Tenant names the submitting tenant for quota and fair-share
	// accounting; empty maps to "default".
	Tenant string `json:"tenant,omitempty"`
	// Priority orders jobs within a tenant and steers the shedding
	// ladder: under pressure the lowest-priority work is shed or parked
	// first. Higher is more important; default 0.
	Priority int `json:"priority,omitempty"`

	// Molecule is a chem.ParseSpec string: a paper formula ("C6H6"),
	// "alkane:N", or "flake:K".
	Molecule string `json:"molecule"`
	Basis    string `json:"basis,omitempty"` // default "sto-3g"

	MaxIter int     `json:"max_iter,omitempty"` // default 30
	ConvTol float64 `json:"conv_tol,omitempty"` // default 1e-8

	// DeadlineMs bounds the job's total latency from submission,
	// queueing included; 0 means no deadline. An expired job is
	// canceled at the next iteration boundary with its checkpoint on
	// disk.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// Event is one entry of a job's progress stream (NDJSON over HTTP).
type Event struct {
	Seq    int      `json:"seq"`
	Time   int64    `json:"time_unix_ns"`
	Type   string   `json:"type"` // queued|running|iteration|parked|retry|done|failed|canceled|shed
	Iter   int      `json:"iter,omitempty"`
	Energy float64  `json:"energy,omitempty"`
	DeltaE float64  `json:"delta_e,omitempty"`
	State  JobState `json:"-"`
	Msg    string   `json:"msg,omitempty"`
}

// terminalEvent is a job's last event as its owner publishes it and as
// API.recorded rebuilds it from the registry record: the terminal state,
// the error message, and a done job's energy and iteration count.
func terminalEvent(state string, res *JobResult, msg string) Event {
	ev := Event{Type: state, Msg: msg}
	if state == StateDone.String() && res != nil {
		ev.Energy, ev.Iter = res.Energy, res.Iterations
	}
	return ev
}

// JobResult is the terminal outcome of a completed job.
type JobResult struct {
	Converged  bool    `json:"converged"`
	Energy     float64 `json:"energy"`
	Iterations int     `json:"iterations"`
	Retries    int     `json:"retries"` // shard-failure retries consumed
}

// Job is one admitted SCF job. All mutable fields are guarded by mu;
// the context is fixed at admission and carries the deadline.
type Job struct {
	ID   string
	Spec JobSpec
	Size JobSize // fixed at admission; Size.Fixed is held until the job ends
	// Store is the stored-ERI value budget of the job's current (or last)
	// run, given at dispatch (Server.storeLocked) and run by every attempt
	// (scf.Options.ERICacheBudget); 0: no store, every build recomputes
	// its integrals.
	Store  int64
	Weight float64

	ctx    context.Context
	cancel context.CancelCauseFunc

	mu        sync.Mutex
	cond      *sync.Cond
	state     JobState
	events    []Event
	result    *JobResult
	err       error
	retries   int
	resumeAt  int // next StartIter when resumed from checkpoint
	submitted time.Time
	started   time.Time
	finished  time.Time
}

func newJob(id string, spec JobSpec, size JobSize, weight float64, ctx context.Context, cancel context.CancelCauseFunc) *Job {
	j := &Job{
		ID: id, Spec: spec, Size: size, Weight: weight,
		ctx: ctx, cancel: cancel,
		state:     StateQueued,
		submitted: time.Now(),
	}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// Cancel requests client-initiated cancellation; the job terminates at
// the next iteration boundary with its checkpoint saved.
func (j *Job) Cancel() { j.cancel(ErrCanceled) }

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the terminal result and error (nil, nil while running).
func (j *Job) Result() (*JobResult, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// setState transitions the lifecycle and appends the matching event.
func (j *Job) setState(s JobState, msg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = s
	typ := s.String()
	if s == StateQueued {
		typ = "queued" // re-queue after park shows as queued again
	}
	j.appendLocked(Event{Type: typ, State: s, Msg: msg})
}

// appendLocked adds an event, stamped now unless it carries a time, and
// wakes streamers. Callers hold j.mu.
func (j *Job) appendLocked(ev Event) {
	ev.Seq = len(j.events)
	if ev.Time == 0 {
		ev.Time = time.Now().UnixNano()
	}
	j.events = append(j.events, ev)
	j.cond.Broadcast()
}

// Emit appends an event that changes nothing else of the job (queued,
// iteration) to the stream.
func (j *Job) Emit(ev Event) {
	j.mu.Lock()
	j.appendLocked(ev)
	j.mu.Unlock()
}

// EventsSince blocks until an event with seq >= from exists or the job
// reaches a terminal state, then returns the suffix. A (nil, false)
// return means the stream is complete.
func (j *Job) EventsSince(from int) ([]Event, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for len(j.events) <= from && !j.state.Terminal() {
		j.cond.Wait()
	}
	if len(j.events) <= from {
		return nil, false
	}
	out := make([]Event, len(j.events)-from)
	copy(out, j.events[from:])
	return out, true
}

// Wait blocks until the job reaches a terminal state (or Parked after a
// drain) and returns its result and error.
func (j *Job) Wait() (*JobResult, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for !j.state.Terminal() && j.state != StateParked {
		j.cond.Wait()
	}
	return j.result, j.err
}

// Status is the JSON view served at GET /v1/jobs/{id}.
type Status struct {
	ID        string     `json:"id"`
	Tenant    string     `json:"tenant"`
	Priority  int        `json:"priority"`
	Molecule  string     `json:"molecule"`
	Basis     string     `json:"basis"`
	State     string     `json:"state"`
	NumBF     int        `json:"num_basis_funcs"`
	Retries   int        `json:"retries"`
	Submitted time.Time  `json:"submitted"`
	Error     string     `json:"error,omitempty"`
	Result    *JobResult `json:"result,omitempty"`
}

// Status snapshots the job for the HTTP API.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID: j.ID, Tenant: j.Spec.Tenant, Priority: j.Spec.Priority,
		Molecule: j.Spec.Molecule, Basis: j.Spec.Basis,
		State: j.state.String(), NumBF: j.Size.NumBF, Retries: j.retries,
		Submitted: j.submitted, Result: j.result,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}
