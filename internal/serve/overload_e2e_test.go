package serve

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/metrics"
	netga "gtfock/internal/net"
	"gtfock/internal/scf"
)

// TestOverloadEndToEnd is the acceptance criterion of the HF service:
// with executor capacity K, a burst of 4x the admission capacity sees
//
//   - every ACCEPTED job complete with an energy matching a solo
//     in-process run to 1e-9,
//   - every rejected job get an explicit 503-style error within 100ms,
//   - a job disrupted by a shard kill+restart injected mid-SCF retry
//     under a fresh session and still land on the solo energy,
//   - the queue depth stay bounded and the daemon's heap stay bounded
//     (admission control, not OOM, absorbs the overload).
//
// It runs under -race with the rest of the suite in `make race`
// (`go test -race ./internal/serve/` alone, ≈ 9 s on a 2-CPU box), and
// 20 times over in `make e2e-flake`.
func TestOverloadEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("overload e2e in short mode")
	}
	const (
		capacity = 2
		maxQueue = 8
		nburst   = 4 * (capacity + maxQueue) // 4x admission capacity
		// Both the solo references and the jobs converge far below the
		// 1e-9 gate: at the default 1e-8 a job resumed from a checkpoint
		// (the shard kill disrupts burst jobs too) may legitimately stop
		// one iteration apart from its reference and miss the gate by a
		// few 1e-9 — a flake of about 1 run in 100 on a loaded box.
		convTol = 1e-11
	)

	addrs, servers := startShards(t)

	// Solo references: same molecules, same SCF options, no service. And
	// the store entries one attempt records, one per task SymmetryCheck
	// keeps.
	refs := map[string]float64{}
	tasksOf := map[string]int64{}
	for _, m := range []string{"H2", "CH4"} {
		mol, err := chem.ParseSpec(m)
		if err != nil {
			t.Fatal(err)
		}
		bs, err := basis.Build(mol, "sto-3g")
		if err != nil {
			t.Fatal(err)
		}
		ns := int64(bs.NumShells())
		tasksOf[m] = ns * (ns + 1) / 2
		res, err := scf.RunHF(mol, scf.Options{BasisName: "sto-3g", MaxIter: 40, ConvTol: convTol})
		if err != nil || !res.Converged {
			t.Fatalf("solo reference %s: %v", m, err)
		}
		refs[m] = res.Energy
	}

	sm := metrics.NewServe()
	runner := NewFleetRunner(addrs, t.TempDir())
	runner.Prow, runner.Pcol = 1, 2 // proc 0 -> shard 0, proc 1 -> shard 1
	runner.RetryMax = 6
	runner.RPC = &metrics.RPC{}
	runner.Serve = sm
	s, err := NewServer(Config{
		Capacity: capacity, MaxQueue: maxQueue, MemBudget: 64 << 20,
		Tenants: map[string]TenantConfig{"A": {Weight: 3}, "B": {Weight: 1}},
		Runner:  runner, Metrics: sm,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The burst: 4x admission capacity across two tenants, all at one
	// priority so the shed ladder stays out of play — accepted means
	// "will complete", full means an explicit immediate rejection.
	type submitted struct {
		j        *Job
		rejected bool
		rejectMs float64
	}
	results := make([]submitted, nburst)
	var wg sync.WaitGroup
	for i := 0; i < nburst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := JobSpec{
				Tenant:   map[bool]string{true: "A", false: "B"}[i%4 != 0],
				Molecule: map[bool]string{true: "H2", false: "CH4"}[i%3 != 0],
				Basis:    "sto-3g",
				MaxIter:  40,
				ConvTol:  convTol,
			}
			t0 := time.Now()
			j, err := s.Submit(spec)
			lat := float64(time.Since(t0).Nanoseconds()) / 1e6
			if err != nil {
				if !IsReject(err) {
					t.Errorf("submit %d: non-reject error %v", i, err)
				}
				results[i] = submitted{rejected: true, rejectMs: lat}
				return
			}
			results[i] = submitted{j: j}
		}(i)
	}
	wg.Wait()

	// Chaos: a dedicated CH4 job, admitted as soon as the queue has room.
	// The moment its first SCF iteration streams (it is mid-run, its shard
	// sessions live, many iterations to go), kill shard 0 and restart it
	// on the same address: the restarted shard has forgotten the session,
	// the job's next build fails deterministically, and the job must
	// retry from its checkpoint under a fresh session — and still land on
	// the solo energy.
	var chaos *Job
	for {
		chaos, err = s.Submit(JobSpec{Tenant: "A", Molecule: "CH4", Basis: "sto-3g", MaxIter: 40, ConvTol: convTol})
		if err == nil {
			break
		}
		if !IsReject(err) {
			t.Fatalf("chaos submit: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !waitIteration(t, chaos, 0, 60*time.Second) {
		t.Fatal("chaos job finished or stalled before its first iteration event")
	}
	servers[0].Kill()
	ms, err := netga.NewMultiServer(2, 0, 256, 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ms.Start(addrs[0]); err != nil {
		t.Fatalf("restart shard 0: %v", err)
	}
	servers[0] = ms

	deadline := time.Now().Add(4 * time.Minute)
	chaosRes, err := waitDone(t, chaos, deadline)
	if err != nil {
		t.Fatalf("chaos job: %v", err)
	}
	if chaosRes.Retries == 0 {
		t.Error("chaos job finished with 0 retries; the shard kill disrupted nothing")
	}
	if d := math.Abs(chaosRes.Energy - refs["CH4"]); d > 1e-9 {
		t.Errorf("chaos job energy off solo reference by %g after retry", d)
	}

	// Every accepted burst job must reach Done with the right energy —
	// no losses, no hangs, kill or no kill.
	accepted, rejected := 0, 0
	for i, r := range results {
		if r.rejected {
			rejected++
			if r.rejectMs > 100 {
				t.Errorf("rejection %d took %.1fms, want < 100ms", i, r.rejectMs)
			}
			continue
		}
		accepted++
		res, jerr := waitDone(t, r.j, deadline)
		if jerr != nil {
			t.Errorf("accepted job %s (%s): %v", r.j.ID, r.j.Spec.Molecule, jerr)
			continue
		}
		if !res.Converged {
			t.Errorf("job %s did not converge", r.j.ID)
		}
		if d := math.Abs(res.Energy - refs[r.j.Spec.Molecule]); d > 1e-9 {
			t.Errorf("job %s (%s): energy off solo reference by %g", r.j.ID, r.j.Spec.Molecule, d)
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("burst split accepted=%d rejected=%d; want both nonzero", accepted, rejected)
	}

	// Every attempt runs with its own store (64 MB holds every store bound
	// beside a full queue's fixed charges):
	// a completed attempt — the chaos job's is its retry, on a fresh
	// session — recorded each of its tasks at least once before replaying.
	var recorded int64
	for _, r := range append(results, submitted{j: chaos}) {
		if r.rejected {
			continue
		}
		if r.j.State() == StateDone {
			recorded += tasksOf[r.j.Spec.Molecule]
		}
	}
	if c := runner.Cache.Snapshot(); c.TaskMisses < recorded || c.TaskHits == 0 {
		t.Errorf("stored-ERI totals %+v: want >= %d recording misses and replays", c, recorded)
	}

	snap := sm.Snapshot()
	if snap.QueueHighWater > maxQueue {
		t.Errorf("queue high water %d exceeded bound %d", snap.QueueHighWater, maxQueue)
	}
	if got := s.MemUsed(); got != 0 {
		t.Errorf("memory charge %d after all jobs terminal, want 0", got)
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	if mem.HeapAlloc > 1<<30 {
		t.Errorf("heap %d bytes after overload burst; admission failed to bound memory", mem.HeapAlloc)
	}
	t.Logf("burst %d: accepted %d, rejected %d, chaos-job retries %d, queue high water %d, heap %.1f MB",
		nburst, accepted, rejected, chaosRes.Retries, snap.QueueHighWater, float64(mem.HeapAlloc)/(1<<20))
}

// startShards starts the shared fleet: two multi-session shards on
// loopback. Whatever the returned slice holds at the end of the test is
// closed, so a test may kill and replace an entry.
func startShards(t *testing.T) ([]string, []*netga.Server) {
	t.Helper()
	addrs := make([]string, 2)
	servers := make([]*netga.Server, 2)
	for i := range servers {
		ms, err := netga.NewMultiServer(2, i, 256, 256<<20)
		if err != nil {
			t.Fatal(err)
		}
		addr, err := ms.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i], servers[i] = addr, ms
	}
	t.Cleanup(func() {
		for _, ms := range servers {
			ms.Close()
		}
	})
	return addrs, servers
}

// A parked attempt ended on its own context, not on a transport failure:
// it must say Bye like a finished one, or every park leaves one session
// resident on every healthy shard until the shard restarts. One job is
// preempted three times; afterwards no shard holds a session.
func TestParkedAttemptsReleaseShardSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet e2e in short mode")
	}
	addrs, servers := startShards(t)
	sm := metrics.NewServe()
	runner := NewFleetRunner(addrs, t.TempDir())
	runner.Prow, runner.Pcol = 1, 2
	s, err := NewServer(Config{Capacity: 1, Preempt: true, Runner: runner, Metrics: sm})
	if err != nil {
		t.Fatal(err)
	}
	// Tight enough that the job outlives three parks, each taken once the
	// current attempt has streamed an iteration (its sessions are live).
	lo, err := s.Submit(JobSpec{Molecule: "alkane:2", Basis: "sto-3g", MaxIter: 80, ConvTol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	const parks = 3
	deadline := time.Now().Add(2 * time.Minute)
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
	}
	if res, err := waitDone(t, lo, deadline); err != nil || !res.Converged {
		t.Fatalf("parked job: %+v, %v", res, err)
	}
	if snap := sm.Snapshot(); snap.Parked != parks {
		t.Fatalf("parked = %d, want %d", snap.Parked, parks)
	}
	for i, ms := range servers {
		st := ms.Stats()
		if st.SessionsOpen != 0 || st.SessionsClosed != st.Sessions {
			t.Errorf("shard %d: %d sessions opened, %d closed, %d still open",
				i, st.Sessions, st.SessionsClosed, st.SessionsOpen)
		}
	}
}

// waitIteration blocks until j streams a per-iteration progress event at
// index from or later; false if j went terminal (or the timeout expired)
// first.
func waitIteration(t *testing.T, j *Job, from int, d time.Duration) bool {
	t.Helper()
	found := make(chan bool, 1)
	go func() {
		for {
			evs, ok := j.EventsSince(from)
			for _, ev := range evs {
				if ev.Type == "iteration" {
					found <- true
					return
				}
			}
			from += len(evs)
			if !ok {
				found <- false
				return
			}
		}
	}()
	select {
	case v := <-found:
		return v
	case <-time.After(d):
		return false
	}
}

func waitDone(t *testing.T, j *Job, deadline time.Time) (*JobResult, error) {
	t.Helper()
	for time.Now().Before(deadline) {
		if st := j.State(); st.Terminal() {
			return j.Result()
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s not terminal before deadline (state %s)", j.ID, j.State())
	return nil, nil
}
