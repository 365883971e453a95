package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gtfock/internal/chem"
	"gtfock/internal/metrics"
	"gtfock/internal/scf"
)

// iterationEvents returns j's `iteration` events in stream order.
func iterationEvents(j *Job) []Event {
	evs, _ := j.EventsSince(0)
	var its []Event
	for _, ev := range evs {
		if ev.Type == "iteration" {
			its = append(its, ev)
		}
	}
	return its
}

// TestCheckpointDurableBeforeAdvertised pins the order the background
// checkpoint writer keeps: the registry hears UpdateCkpt(iter) only once
// the job's checkpoint file holds iteration iter — never for an
// iteration newer than the file an adopter would load. The fake registry
// is the real one behind a handler that checks every update against the
// disk, and sits on the first one until the solver is two iterations
// further on: the writer (the push is part of its cycle) is busy, the
// cadence holds snapshots back, and a push made from the SCF goroutine
// at hand-off time would name a file not yet written. The job converges,
// so its last iterations are never written: the registry's terminal
// record, not the file, carries its result.
func TestCheckpointDurableBeforeAdvertised(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet e2e in short mode")
	}
	addrs, _ := startShards(t)
	ckptDir := t.TempDir()

	reg := NewRegistry(RegistryConfig{LeaseTTL: time.Minute})
	inner := (&RegistryAPI{Reg: reg}).Handler()
	var mu sync.Mutex
	var pushed []int
	var early []string
	fileEnergy := map[int]float64{} // by iteration, as the file held it at each push
	var job atomic.Pointer[Job]
	regSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/reg/v1/update" {
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			var req regReq
			if err := json.Unmarshal(body, &req); err != nil {
				t.Errorf("update body: %v", err)
			}
			ck, err := scf.LoadCheckpoint(filepath.Join(ckptDir, req.ID+".ckpt"))
			mu.Lock()
			pushed = append(pushed, req.CkptIter)
			first := len(pushed) == 1
			if err != nil || ck.Iter < req.CkptIter {
				early = append(early, fmt.Sprintf("UpdateCkpt(%d) arrived before its file (%+v, %v)", req.CkptIter, ck, err))
			} else {
				fileEnergy[ck.Iter] = ck.Energy
			}
			mu.Unlock()
			for deadline := time.Now().Add(10 * time.Second); first && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				if j := job.Load(); j != nil && len(iterationEvents(j)) >= req.CkptIter+2 {
					break
				}
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(regSrv.Close)

	sm := metrics.NewServe()
	runner := NewFleetRunner(addrs, ckptDir)
	runner.Prow, runner.Pcol = 1, 2
	runner.Serve = sm
	p, err := NewPeer(PeerConfig{
		ID: "peer-a", Addr: "127.0.0.1:1",
		Registry:       NewRegistryClient(regSrv.URL, 2*time.Second),
		CheckpointDir:  ckptDir,
		Server:         Config{Capacity: 1, Runner: runner, Metrics: sm},
		HeartbeatEvery: time.Hour, ScanEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)

	j, err := p.Submit(JobSpec{Molecule: "CH4", Basis: "sto-3g", MaxIter: 40, ConvTol: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	job.Store(j)
	res, err := j.Wait()
	if err != nil || !res.Converged {
		t.Fatalf("job: %+v, %v", res, err)
	}

	mu.Lock()
	defer mu.Unlock()
	for _, v := range early {
		t.Error(v)
	}
	if len(pushed) == 0 || pushed[0] != 1 || pushed[len(pushed)-1] >= res.Iterations {
		t.Fatalf("pushes %v: want iteration 1 first and never the converged iteration %d", pushed, res.Iterations)
	}
	for i := 1; i < len(pushed); i++ {
		if pushed[i] <= pushed[i-1] {
			t.Fatalf("pushes %v not increasing", pushed)
		}
	}
	// The client has seen `done`, so the attempt — and with it the
	// writer's last push — is over: the registry's pointer names the
	// file's iteration, the file holds that completed iteration, and the
	// terminal record carries the result. (The job is done, so its files
	// are gone: what they held was checked as each push arrived.)
	rec, _ := reg.Get(j.ID)
	if rec.CkptIter != pushed[len(pushed)-1] || rec.State != RecDone || rec.Result == nil || rec.Result.Energy != res.Energy {
		t.Fatalf("after done: registry record %+v; last push %d, result %+v", rec, pushed[len(pushed)-1], res)
	}
	for _, ev := range iterationEvents(j) {
		if ev.Iter == rec.CkptIter && ev.Energy != fileEnergy[rec.CkptIter] {
			t.Fatalf("the file held iteration %d at E=%v, its event says %v", ev.Iter, fileEnergy[ev.Iter], ev.Energy)
		}
	}
	// Every iteration was either written or skipped by the cadence, and
	// those behind the held push were skipped.
	snap := sm.Snapshot()
	if int(snap.CkptWritten) != len(pushed) || snap.CkptCoalesced == 0 ||
		int(snap.CkptWritten+snap.CkptCoalesced) != res.Iterations || snap.CkptWriteNS.Count != snap.CkptWritten {
		t.Fatalf("ckpt_written %d, ckpt_coalesced %d, ckpt_write_ns.count %d; %d pushes, %d iterations",
			snap.CkptWritten, snap.CkptCoalesced, snap.CkptWriteNS.Count, len(pushed), res.Iterations)
	}
}

// TestPreemptionResumesFromSlowCheckpoint parks one job three times
// while its checkpoint writer trails the solver (a slow OnCheckpoint
// keeps the writer busy, as a slow disk would). Each park must flush the
// last completed iteration before the attempt returns: the next attempt
// starts at exactly the following iteration — none lost, none run twice —
// the `running` event's resume cursor names that same iteration, and the
// energy is the solo one.
func TestPreemptionResumesFromSlowCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet e2e in short mode")
	}
	const convTol = 1e-12
	mol, err := chem.ParseSpec("alkane:2")
	if err != nil {
		t.Fatal(err)
	}
	solo, err := scf.RunHF(mol, scf.Options{BasisName: "sto-3g", MaxIter: 80, ConvTol: convTol})
	if err != nil || !solo.Converged {
		t.Fatalf("solo reference: %v", err)
	}

	addrs, _ := startShards(t)
	sm := metrics.NewServe()
	runner := NewFleetRunner(addrs, t.TempDir())
	runner.Prow, runner.Pcol = 1, 2
	runner.Serve = sm
	runner.OnCheckpoint = func(*Job, int) { time.Sleep(10 * time.Millisecond) }
	s, err := NewServer(Config{Capacity: 1, Preempt: true, Runner: runner, Metrics: sm})
	if err != nil {
		t.Fatal(err)
	}
	lo, err := s.Submit(JobSpec{Molecule: "alkane:2", Basis: "sto-3g", MaxIter: 80, ConvTol: convTol})
	if err != nil {
		t.Fatal(err)
	}
	const parks = 3
	deadline := time.Now().Add(2 * time.Minute)
	iterations := 0 // of every job that fed sm
	for k := 0; k < parks; k++ {
		evs, _ := lo.EventsSince(0)
		if !waitIteration(t, lo, len(evs), 60*time.Second) {
			t.Fatalf("job finished or stalled before park %d", k+1)
		}
		hi, err := s.Submit(JobSpec{Molecule: "H2", Basis: "sto-3g", Priority: 5})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := waitDone(t, hi, deadline); err != nil {
			t.Fatalf("preempting job %d: %v", k+1, err)
		}
		iterations += len(iterationEvents(hi))
	}
	res, err := waitDone(t, lo, deadline)
	if err != nil || !res.Converged {
		t.Fatalf("parked job: %+v, %v", res, err)
	}
	if d := math.Abs(res.Energy - solo.Energy); d > 1e-9 {
		t.Errorf("energy off the solo reference by %g", d)
	}

	evs, _ := lo.EventsSince(0)
	next, attempts := 1, 0
	for _, ev := range evs {
		switch ev.Type {
		case "running":
			attempts++
			if want := next; attempts > 1 && ev.Iter != want {
				t.Errorf("attempt %d: running event's resume cursor is %d, the attempt starts at iteration %d", attempts, ev.Iter, want)
			}
		case "iteration":
			if ev.Iter != next {
				t.Fatalf("iteration event %d where %d was due: a park lost or repeated work", ev.Iter, next)
			}
			next++
		}
	}
	if attempts != parks+1 {
		t.Fatalf("%d attempts, want %d", attempts, parks+1)
	}
	// Every hand-off was written or overwritten by a newer one: a park
	// leaves none behind in the mailbox.
	iterations += len(iterationEvents(lo))
	snap := sm.Snapshot()
	if snap.Parked != parks || int(snap.CkptWritten+snap.CkptCoalesced) != iterations {
		t.Fatalf("parked %d; ckpt_written %d + ckpt_coalesced %d, %d iterations",
			snap.Parked, snap.CkptWritten, snap.CkptCoalesced, iterations)
	}
}
