package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
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

// stubSize is what every stub job is sized at: 10 basis functions, no
// store.
var stubSize = JobSize{NumBF: 10, Fixed: 8 * 24 * 10 * 10}

func stubEstimate(JobSpec) (JobSize, error) { return stubSize, nil }

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
	// Each stub job charges its Fixed bytes; budget fits exactly two.
	s, sm := newTestServer(t, Config{Capacity: 4, MemBudget: 2 * stubSize.Fixed, Runner: g})
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

// The charge counts the build's local buffers, one dense n x n F per lane
// and one D per rank, so it grows with the box. A budget twice the old
// flat 24 n^2 charge, which admitted a CH4 job on any box, still admits
// it at one lane and refuses it at 64.
func TestAdmissionChargesLanes(t *testing.T) {
	mol, err := chem.ParseSpec("CH4")
	if err != nil {
		t.Fatal(err)
	}
	bs, err := basis.Build(mol, "sto-3g")
	if err != nil {
		t.Fatal(err)
	}
	n := int64(bs.NumFuncs)
	oldCharge := 8 * 24 * n * n
	for _, tc := range []struct {
		lanes int
		admit bool
	}{{1, true}, {64, false}} {
		g := newGate()
		size := sizeJob(bs, 1, 1, tc.lanes)
		s, err := NewServer(Config{Capacity: 1, MemBudget: 2 * oldCharge, Runner: g,
			Estimate: func(JobSpec) (JobSize, error) { return size, nil }})
		if err != nil {
			t.Fatal(err)
		}
		j, err := s.Submit(JobSpec{Molecule: "CH4"})
		var re *RejectError
		switch {
		case tc.admit && err != nil:
			t.Errorf("lanes %d: charge %d refused under budget %d: %v", tc.lanes, size.Fixed, 2*oldCharge, err)
		case !tc.admit && (!errors.As(err, &re) || re.Cause != RejectMemory):
			t.Errorf("lanes %d: fixed charge %d over budget %d admitted (%v)", tc.lanes, size.Fixed, 2*oldCharge, err)
		case tc.admit && j.Size != size:
			t.Errorf("lanes %d: job sized %+v, want %+v", tc.lanes, j.Size, size)
		}
		close(g.release)
	}
}

// A store's share comes out of the budget when its job is dispatched, and
// only out of what the budget leaves once every slot the service holds is
// charged fixed bytes. A budget holding the fixed charges of
// Capacity+MaxQueue jobs and two full stores admits every one of them, as
// the flat 24 n^2 charge did, and both running jobs get their whole
// store; a budget holding one store admits them all as well, and the
// second running job runs without one. Charging the store at admission
// instead, the first queued job took what was left and the rest were
// refused memory_budget.
func TestStoresLeaveRoomForAdmission(t *testing.T) {
	size := JobSize{NumBF: 60, Fixed: 1 << 20, StoreIndex: 1 << 20, StoreValues: 40 << 20}
	full := size.StoreIndex + size.StoreValues
	const capacity, maxQueue = 2, 8
	for _, tc := range []struct {
		stores int64
		shares [2]int64 // the two running jobs' store shares
	}{{2, [2]int64{size.StoreValues, size.StoreValues}}, {1, [2]int64{size.StoreValues, 0}}} {
		g := newGate()
		budget := (capacity+maxQueue)*size.Fixed + tc.stores*full
		s, err := NewServer(Config{Capacity: capacity, MaxQueue: maxQueue, MemBudget: budget, Runner: g,
			Estimate: func(JobSpec) (JobSize, error) { return size, nil }})
		if err != nil {
			t.Fatal(err)
		}
		var jobs []*Job
		for i := 0; i < capacity+maxQueue; i++ {
			j, err := s.Submit(JobSpec{Molecule: "C2H6"})
			if err != nil {
				t.Fatalf("%d stores: job %d refused: %v", tc.stores, i, err)
			}
			jobs = append(jobs, j)
		}
		if got := [2]int64{jobs[0].Store, jobs[1].Store}; got != tc.shares {
			t.Fatalf("%d stores: running jobs' shares %v, want %v", tc.stores, got, tc.shares)
		}
		held := (capacity+maxQueue)*size.Fixed + size.storeCharge(tc.shares[0]) + size.storeCharge(tc.shares[1])
		if used := s.MemUsed(); used != held || used > budget {
			t.Fatalf("%d stores: %d bytes held, want %d within %d", tc.stores, used, held, budget)
		}
		close(g.release)
		for _, j := range jobs {
			waitState(t, j, StateDone)
		}
		if used := s.MemUsed(); used != 0 {
			t.Fatalf("%d stores: %d bytes held after every job finished", tc.stores, used)
		}
	}
}

// Every finished job stays queryable over HTTP with the status it
// finished with. Past its owner's last keepHistory a job is the
// registry's alone: the owner and a second peer of the registry answer
// the same body, with the submit time the registry stamped and the
// retries of a done job, and its event stream ends with its terminal
// event.
func TestFinishedJobsKeepStatus(t *testing.T) {
	var runs atomic.Int64
	run := RunnerFunc(func(_ context.Context, j *Job) (*JobResult, error) {
		switch runs.Add(1) % 3 {
		case 0:
			return nil, errors.New("stub: shard lost")
		case 2:
			j.mu.Lock()
			j.retries = 2
			j.mu.Unlock()
		}
		return &JobResult{Converged: true, Energy: -1}, nil
	})
	regSrv := httptest.NewServer((&RegistryAPI{Reg: NewRegistry(RegistryConfig{LeaseTTL: time.Minute})}).Handler())
	t.Cleanup(regSrv.Close)
	cfg := Config{Capacity: 1, Runner: run, Estimate: stubEstimate}
	p, owner := newTestPeer(t, regSrv.URL, "peer-a", 10*time.Millisecond, cfg)
	_, other := newTestPeer(t, regSrv.URL, "peer-b", 10*time.Millisecond, cfg)
	s := p.Server()
	const old = 3 // done, done after 2 retries, failed
	var jobs []*Job
	var before []time.Time
	for i := 0; i < keepHistory+old; i++ {
		before = append(before, time.Now())
		j, err := p.Submit(JobSpec{Molecule: "H2"})
		if err != nil {
			t.Fatal(err)
		}
		j.Wait()
		jobs = append(jobs, j)
	}
	// A job is published before the scheduler keeps it; a drain returns
	// once every published job is kept.
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	get := func(url string) []byte {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s %v", url, resp.StatusCode, body, err)
		}
		return body
	}
	for i, orig := range jobs {
		want, path := orig.Status(), "/v1/jobs/"+orig.ID
		if kept := s.Job(orig.ID) != nil; kept != (i >= old) {
			t.Fatalf("job %d: kept by its owner = %v", i, kept)
		}
		body := get(owner.URL + path)
		var got Status
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.ID != want.ID || got.State != want.State || got.Error != want.Error || got.NumBF != want.NumBF ||
			!reflect.DeepEqual(got.Result, want.Result) || want.State == "done" && got.Retries != want.Retries {
			t.Fatalf("job %d: status %+v, want %+v", i, got, want)
		}
		if i < old {
			if got.Submitted.Before(before[i]) || got.Submitted.After(want.Submitted) {
				t.Fatalf("job %d: submitted %v, want within [%v, %v]", i, got.Submitted, before[i], want.Submitted)
			}
			if second := get(other.URL + path); !bytes.Equal(second, body) {
				t.Fatalf("job %d: second peer answers %s, owner %s", i, second, body)
			}
		} else if !got.Submitted.Equal(want.Submitted) {
			t.Fatalf("job %d: submitted %v, want %v", i, got.Submitted, want.Submitted)
		}
		lines := bytes.Split(bytes.TrimSpace(get(owner.URL+path+"/events")), []byte("\n"))
		var last Event
		if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
			t.Fatal(err)
		}
		if last.Type != want.State || last.Msg != want.Error || want.State == "done" && last.Energy != -1 {
			t.Fatalf("job %d: last event %+v, want the terminal one of %+v", i, last, want)
		}
	}
	if s.MemUsed() != 0 {
		t.Fatalf("charge %d held after every job finished", s.MemUsed())
	}
}

// A finished job's terminal event is the one its owner published, seq
// and time included, wherever it is read: from the owner while it holds
// the job, and from the registry's record once it is past the owner's
// last keepHistory, through the owner and through a second peer. Its time
// is the registry's, the clock of the job's submit time, so a client
// timing the job from the two reads a positive span.
func TestRecordedTerminalEventIsTheOwners(t *testing.T) {
	run := RunnerFunc(func(context.Context, *Job) (*JobResult, error) {
		return &JobResult{Converged: true, Energy: -1, Iterations: 7}, nil
	})
	regSrv := httptest.NewServer((&RegistryAPI{Reg: NewRegistry(RegistryConfig{LeaseTTL: time.Minute})}).Handler())
	t.Cleanup(regSrv.Close)
	cfg := Config{Capacity: 1, Runner: run, Estimate: stubEstimate}
	p, owner := newTestPeer(t, regSrv.URL, "peer-a", 10*time.Millisecond, cfg)
	_, other := newTestPeer(t, regSrv.URL, "peer-b", 10*time.Millisecond, cfg)
	last := func(url string) []byte {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s %v", url, resp.StatusCode, body, err)
		}
		lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
		return lines[len(lines)-1]
	}
	first, err := p.Submit(JobSpec{Molecule: "H2"})
	if err != nil {
		t.Fatal(err)
	}
	first.Wait()
	path := "/v1/jobs/" + first.ID + "/events"
	held := last(owner.URL + path)
	var ev Event
	if err := json.Unmarshal(held, &ev); err != nil {
		t.Fatal(err)
	}
	evs, _ := first.EventsSince(0)
	if ev.Type != "done" || ev.Seq != len(evs)-1 || ev.Energy != -1 || ev.Iter != 7 ||
		ev.Time < first.Status().Submitted.UnixNano() {
		t.Fatalf("owner's terminal event %s: want done, seq %d, energy -1, 7 iterations, not before the submit time %v",
			held, len(evs)-1, first.Status().Submitted)
	}
	for i := 0; i < keepHistory; i++ {
		j, err := p.Submit(JobSpec{Molecule: "H2"})
		if err != nil {
			t.Fatal(err)
		}
		j.Wait()
	}
	// A job is published before the scheduler keeps it; a drain returns
	// once every published job is kept.
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if p.Server().Job(first.ID) != nil {
		t.Fatalf("job %s still held by its owner past keepHistory", first.ID)
	}
	for _, api := range []*httptest.Server{owner, other} {
		if got := last(api.URL + path); !bytes.Equal(got, held) {
			t.Fatalf("recorded terminal event %s, the owner published %s", got, held)
		}
	}
}

// POST /v1/jobs/{id}/cancel answers the job's Status on both of its
// paths: a job the scheduler holds, and one past its owner's last
// keepHistory that only the registry's record answers for.
func TestCancelAnswersStatus(t *testing.T) {
	var runs atomic.Int64
	run := RunnerFunc(func(ctx context.Context, _ *Job) (*JobResult, error) {
		if runs.Add(1) <= keepHistory+1 {
			return &JobResult{Converged: true, Energy: -1}, nil
		}
		<-ctx.Done()
		return nil, context.Cause(ctx)
	})
	p, api := newLonePeer(t, Config{Capacity: 1, Runner: run, Estimate: stubEstimate})
	var first *Job
	for i := 0; i < keepHistory+1; i++ {
		j, err := p.Submit(JobSpec{Molecule: "H2"})
		if err != nil {
			t.Fatal(err)
		}
		j.Wait()
		if i == 0 {
			first = j
		}
	}
	live, err := p.Submit(JobSpec{Molecule: "H2"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, live, StateRunning)
	// A finished job is published before the scheduler keeps it, and the
	// 257th keep evicts the first.
	for deadline := time.Now().Add(5 * time.Second); p.Server().Job(first.ID) != nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("job %s still held by its owner past keepHistory", first.ID)
		}
	}
	for _, tc := range []struct {
		j     *Job
		state string
	}{{live, ""}, {first, "done"}} {
		resp, err := http.Post(api.URL+"/v1/jobs/"+tc.j.ID+"/cancel", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		var got Status
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel %s: %d %v", tc.j.ID, resp.StatusCode, err)
		}
		if got.ID != tc.j.ID || got.Molecule != "H2" || got.State == "" || tc.state != "" && got.State != tc.state {
			t.Fatalf("cancel %s answered %+v, want its Status", tc.j.ID, got)
		}
	}
	waitState(t, live, StateCanceled)
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
