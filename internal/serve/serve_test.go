package serve

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"gtfock/internal/metrics"
)

// gate is a stub runner: jobs block until released (or their ctx is
// canceled), so tests control exactly which slots are busy.
type gate struct {
	release  chan struct{}
	attempts atomic.Int64
}

func newGate() *gate { return &gate{release: make(chan struct{})} }

func (g *gate) Run(ctx context.Context, j *Job) (*JobResult, error) {
	g.attempts.Add(1)
	select {
	case <-g.release:
		return &JobResult{Converged: true, Energy: -1}, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("stub: %w", context.Cause(ctx))
	}
}

func stubEstimate(JobSpec) (int, error) { return 10, nil }

func newTestServer(t *testing.T, cfg Config) (*Server, *metrics.Serve) {
	t.Helper()
	sm := metrics.NewServe()
	cfg.Metrics = sm
	cfg.Estimate = stubEstimate
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, sm
}

func waitState(t *testing.T, j *Job, want JobState) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if j.State() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s, want %s", j.ID, j.State(), want)
}

// Overload is refused explicitly and immediately: the queue bound and
// the memory budget both produce RejectError well inside the 100ms SLO,
// and a freed slot restores admission.
func TestAdmissionRejectsExplicitly(t *testing.T) {
	g := newGate()
	s, sm := newTestServer(t, Config{Capacity: 1, MaxQueue: 2, Runner: g})

	var jobs []*Job
	for i := 0; i < 3; i++ { // 1 running + 2 queued
		j, err := s.Submit(JobSpec{Molecule: "CH4"})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	t0 := time.Now()
	_, err := s.Submit(JobSpec{Molecule: "CH4"})
	lat := time.Since(t0)
	if !IsReject(err) {
		t.Fatalf("4th submit: %v, want RejectError", err)
	}
	if lat > 100*time.Millisecond {
		t.Fatalf("rejection took %v, want < 100ms", lat)
	}
	if snap := sm.Snapshot(); snap.RejectedQueue != 1 || snap.QueueHighWater != 2 {
		t.Fatalf("snapshot %+v, want 1 queue reject, high water 2", snap)
	}

	close(g.release) // everything completes; admission reopens
	for _, j := range jobs {
		if _, err := j.Wait(); err != nil {
			t.Fatal(err)
		}
		waitState(t, j, StateDone)
	}
	if _, err := s.Submit(JobSpec{Molecule: "CH4"}); err != nil {
		t.Fatalf("post-drain submit rejected: %v", err)
	}
}

func TestMemoryBudgetRejects(t *testing.T) {
	g := newGate()
	// Each stub job charges jobBytes(10); budget fits exactly two.
	s, sm := newTestServer(t, Config{Capacity: 4, MemBudget: 2 * jobBytes(10), Runner: g})
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(JobSpec{Molecule: "CH4"}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := s.Submit(JobSpec{Molecule: "CH4"})
	var re *RejectError
	if !errors.As(err, &re) || re.Cause != RejectMemory {
		t.Fatalf("over-budget submit: %v, want memory rejection", err)
	}
	if snap := sm.Snapshot(); snap.RejectedMem != 1 {
		t.Fatalf("rejected_mem = %d, want 1", snap.RejectedMem)
	}
	close(g.release)
}

// Deadlines cancel both queued and running jobs with an explicit
// Canceled terminal state, releasing their memory charge.
func TestDeadlineCancels(t *testing.T) {
	g := newGate()
	s, _ := newTestServer(t, Config{Capacity: 1, Runner: g})
	running, err := s.Submit(JobSpec{Molecule: "CH4", DeadlineMs: 40})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(JobSpec{Molecule: "CH4", DeadlineMs: 40})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateCanceled)
	waitState(t, queued, StateCanceled)
	if _, jerr := running.Result(); !errors.Is(jerr, ErrDeadline) {
		t.Fatalf("running job error %v, want ErrDeadline", jerr)
	}
	if s.MemUsed() != 0 {
		t.Fatalf("memory charge %d not released", s.MemUsed())
	}
	close(g.release)
}

func TestClientCancel(t *testing.T) {
	g := newGate()
	s, _ := newTestServer(t, Config{Capacity: 1, Runner: g})
	j, err := s.Submit(JobSpec{Molecule: "CH4"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning)
	j.Cancel()
	waitState(t, j, StateCanceled)
	close(g.release)
}

// Preemption: a higher-priority arrival parks the lowest-priority
// running job, which re-queues and finishes after the VIP.
func TestPreemptionParksAndResumes(t *testing.T) {
	g := newGate()
	s, sm := newTestServer(t, Config{Capacity: 1, Preempt: true, Runner: g})
	lo, err := s.Submit(JobSpec{Molecule: "CH4", Priority: 0})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, lo, StateRunning)
	hi, err := s.Submit(JobSpec{Molecule: "CH4", Priority: 5})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, hi, StateRunning)
	close(g.release)
	waitState(t, hi, StateDone)
	waitState(t, lo, StateDone)
	if snap := sm.Snapshot(); snap.Parked != 1 || snap.Resumed != 1 {
		t.Fatalf("parked/resumed = %d/%d, want 1/1", snap.Parked, snap.Resumed)
	}
	if g.attempts.Load() != 3 {
		t.Fatalf("runner attempts = %d, want 3 (lo, hi, lo-resume)", g.attempts.Load())
	}
}

// Equal or lower priority must NOT preempt.
func TestNoPreemptionWithoutRank(t *testing.T) {
	g := newGate()
	s, sm := newTestServer(t, Config{Capacity: 1, Preempt: true, Runner: g})
	first, _ := s.Submit(JobSpec{Molecule: "CH4", Priority: 1})
	waitState(t, first, StateRunning)
	s.Submit(JobSpec{Molecule: "CH4", Priority: 1})
	time.Sleep(20 * time.Millisecond)
	if first.State() != StateRunning {
		t.Fatalf("equal-priority arrival disturbed the running job: %s", first.State())
	}
	if snap := sm.Snapshot(); snap.Parked != 0 {
		t.Fatal("parked an equal-priority job")
	}
	close(g.release)
}

// Drain: admission stops, queued and running jobs park, and the call
// returns once the executor is empty.
func TestDrainParksEverything(t *testing.T) {
	g := newGate()
	s, sm := newTestServer(t, Config{Capacity: 1, Runner: g})
	running, _ := s.Submit(JobSpec{Molecule: "CH4"})
	queued, _ := s.Submit(JobSpec{Molecule: "CH4"})
	waitState(t, running, StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateParked)
	waitState(t, queued, StateParked)
	if _, err := s.Submit(JobSpec{Molecule: "CH4"}); !IsReject(err) {
		t.Fatalf("submit during drain: %v, want rejection", err)
	}
	if snap := sm.Snapshot(); snap.Parked != 2 {
		t.Fatalf("parked = %d, want 2", snap.Parked)
	}
	if s.MemUsed() != 0 {
		t.Fatalf("drained server still charges %d bytes", s.MemUsed())
	}
}

// Events stream in order and terminate with the terminal state.
func TestEventStream(t *testing.T) {
	g := newGate()
	s, _ := newTestServer(t, Config{Capacity: 1, Runner: g})
	j, _ := s.Submit(JobSpec{Molecule: "CH4"})
	close(g.release)
	waitState(t, j, StateDone)
	var types []string
	for from := 0; ; {
		evs, ok := j.EventsSince(from)
		if !ok {
			break
		}
		for _, ev := range evs {
			types = append(types, ev.Type)
		}
		from += len(evs)
	}
	if len(types) < 3 || types[0] != "queued" || types[len(types)-1] != "done" {
		t.Fatalf("event stream %v, want queued ... done", types)
	}
}
