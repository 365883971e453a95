package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gtfock/internal/chem"
	"gtfock/internal/core"
	"gtfock/internal/fault"
	"gtfock/internal/metrics"
	netga "gtfock/internal/net"
	"gtfock/internal/scf"
)

// TestHAEndToEnd is the acceptance criterion of the HA service tier:
// three hfd peers share one job registry and one 2-shard fleet; a burst
// of jobs lands round-robin across the peers; one peer is SIGKILLed
// mid-burst (deterministic daemon-kill plan, triggered by SCF-iteration
// progress so running jobs have real checkpoints) while it holds
// running AND queued work. Afterwards:
//
//   - every accepted job reaches done in the registry, with an energy
//     matching a solo in-process run to 1e-9 — adopted or not,
//   - the killed peer's jobs were adopted (serve_jobs_adopted > 0,
//     lease expiries > 0) and resumed from checkpoint under fresh
//     sessions, so double accumulation is structurally impossible,
//   - every redirect-following client keeps its event stream across
//     the adoption with at most ONE retriable error episode — a job is
//     never lost from the client's point of view.
//
// It runs under -race with the rest of the suite in `make race`
// (`go test -race ./internal/serve/` alone, ≈ 9 s on a 2-CPU box), and
// 20 times over in `make e2e-flake`.
func TestHAEndToEnd(t *testing.T) {
	// An adopted job resumes from a checkpoint with a fresh DIIS history,
	// so it reaches convergence along a different path than the solo run.
	// Two runs stopped at the default |ΔE| < 1e-8 agree only to about that;
	// asserting 1e-9 needs both converged well below it.
	const haConvTol = 1e-11

	if testing.Short() {
		t.Skip("HA e2e in short mode")
	}
	const (
		npeers = 3
		nburst = 18
	)

	// Shared fleet: two multi-session shards on loopback.
	addrs := make([]string, 2)
	shards := make([]*netga.Server, 2)
	for i := range shards {
		ms, err := netga.NewMultiServer(2, i, 256, 256<<20)
		if err != nil {
			t.Fatal(err)
		}
		addr, err := ms.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i], shards[i] = addr, ms
	}
	defer func() {
		for _, ms := range shards {
			ms.Close()
		}
	}()

	// Solo references.
	refs := map[string]float64{}
	for _, m := range []string{"H2", "CH4"} {
		mol, err := chem.ParseSpec(m)
		if err != nil {
			t.Fatal(err)
		}
		res, err := scf.RunHF(mol, scf.Options{BasisName: "sto-3g", MaxIter: 40, ConvTol: haConvTol})
		if err != nil || !res.Converged {
			t.Fatalf("solo reference %s: %v", m, err)
		}
		refs[m] = res.Energy
	}

	// Shared registry (TTL 1s: five heartbeats of slack, so only a dead
	// peer expires) and the fleet-shared checkpoint directory.
	reg := NewRegistry(RegistryConfig{LeaseTTL: time.Second})
	regSrv := httptest.NewServer((&RegistryAPI{Reg: reg}).Handler())
	defer regSrv.Close()
	ckptDir := t.TempDir()

	// Three peers: own scheduler + FleetRunner each, same fleet, same
	// registry, same checkpoint dir.
	peers := make([]*Peer, npeers)
	apis := make([]*httptest.Server, npeers)
	mets := make([]*metrics.Serve, npeers)
	// Chaos: SIGKILL peer 0 once its jobs have run 5 SCF iterations —
	// running mid-SCF with checkpoints on disk, queue non-empty. The
	// schedule ticks in peer 0's Fock builds, so the kill fires in the
	// iteration that reaches its count. A tick runs on one of the peer's
	// own job goroutines, which the kill cancels, so the teardown runs on
	// a goroutine of its own that the test waits out.
	plan := fault.Plan(42, []fault.Event{{Target: 0}}, 5, 6)
	var (
		killMu   sync.Mutex // guards killed: nil once the test tears down
		killed   = make([]bool, npeers)
		killDone = make(chan struct{})
	)
	sched := fault.NewSchedule(plan, func(e fault.Event) {
		killMu.Lock()
		defer killMu.Unlock()
		if killed == nil {
			return // the test is tearing the peers down itself
		}
		killed[e.Target] = true
		t.Logf("killing peer %d at %d iterations", e.Target, e.At)
		go func() {
			defer close(killDone)
			// Abrupt teardown, SIGKILL semantics: the listener and every
			// client connection sever first (no goodbye, no terminal
			// events observable), nothing is reported to the registry,
			// leases are left to expire. No apis[e.Target].Close(): it would
			// wait for event-stream handlers parked on jobs the killed
			// scheduler will never advance — exactly what a real SIGKILL
			// does not do. The handler goroutines leak until the test
			// process exits, like the dead daemon's threads would.
			apis[e.Target].Listener.Close()
			apis[e.Target].CloseClientConnections()
			peers[e.Target].Kill()
		}()
	})
	for i := 0; i < npeers; i++ {
		sm := metrics.NewServe()
		runner := NewFleetRunner(addrs, ckptDir)
		runner.Prow, runner.Pcol = 1, 2
		runner.RetryMax = 6
		runner.RPC = &metrics.RPC{}
		runner.Serve = sm
		// Tick the chaos schedule on the kill target's SCF progress: one
		// tick per iteration's Fock build.
		if i == plan[0].Target {
			runner.TuneCore = func(*core.Options) { sched.Tick() }
		}
		api := httptest.NewUnstartedServer(nil)
		p, err := NewPeer(PeerConfig{
			ID:            api.Listener.Addr().String(),
			Addr:          api.Listener.Addr().String(),
			Registry:      NewRegistryClient(regSrv.URL, 2*time.Second),
			CheckpointDir: ckptDir,
			Server: Config{
				Capacity: 2, MaxQueue: 8, MemBudget: 64 << 20,
				Tenants: map[string]TenantConfig{"A": {Weight: 3}, "B": {Weight: 1}},
				Preempt: true,
				Runner:  runner, Metrics: sm,
			},
			HeartbeatEvery: 200 * time.Millisecond,
			ScanEvery:      150 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		api.Config.Handler = (&API{Server: p.Server(), Peer: p, RPC: runner.RPC}).Handler()
		api.Start()
		peers[i], apis[i], mets[i] = p, api, sm
	}
	defer func() {
		// A kill under way finishes before the peers close: the rest
		// close here, and none is killed from now on.
		killMu.Lock()
		dead := killed
		killed = nil
		killMu.Unlock()
		if slices.Contains(dead, true) {
			select {
			case <-killDone:
			case <-time.After(time.Minute):
				t.Error("the peer kill never returned")
			}
		}
		for i := range peers {
			if !dead[i] {
				peers[i].Close()
				apis[i].Close()
			}
		}
	}()
	endpoints := make([]string, npeers)
	for i, api := range apis {
		endpoints[i] = api.URL
	}

	// The burst: 18 jobs round-robin over the peers, mixed molecules,
	// tenants and priorities (priorities arm the preemption ladder, so
	// the killed peer can hold parked work next to running and queued).
	results := make([]clientStreamResult, nburst)
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
				ConvTol:  haConvTol,
				Priority: i % 3,
			}
			home := i % npeers
			id, err := submitHA(endpoints, home, spec)
			if err != nil {
				results[i] = clientStreamResult{err: "submit: " + err.Error()}
				return
			}
			r := streamHA(t, endpoints, home, id)
			r.molecule = spec.Molecule
			results[i] = r
		}(i)
	}

	wg.Wait()
	select {
	case <-killDone:
	case <-time.After(time.Minute):
		t.Fatal("kill plan never fired")
	}

	// Client-side: no job lost, at most one retriable error episode per
	// client, every terminal outcome is done.
	accepted := 0
	for i, r := range results {
		if r.err != "" {
			t.Errorf("client %d: %s", i, r.err)
			continue
		}
		accepted++
		if r.terminal != "done" {
			t.Errorf("client %d (job %s): terminal %q, want done", i, r.id, r.terminal)
		}
		if r.episodes > 1 {
			t.Errorf("client %d (job %s): %d retriable error episodes, want <= 1", i, r.id, r.episodes)
		}
	}
	if accepted != nburst {
		t.Errorf("accepted %d of %d submissions", accepted, nburst)
	}

	// Registry-side: every accepted job is done with the solo energy.
	recs := reg.List()
	doneJobs := 0
	for _, rec := range recs {
		if rec.State == RecRejected {
			continue
		}
		if rec.State != RecDone {
			t.Errorf("job %s: registry state %s, want done", rec.ID, rec.State)
			continue
		}
		doneJobs++
		if rec.Result == nil || !rec.Result.Converged {
			t.Errorf("job %s: no converged result", rec.ID)
			continue
		}
		if d := math.Abs(rec.Result.Energy - refs[rec.Spec.Molecule]); d > 1e-9 {
			t.Errorf("job %s (%s, adoptions %d): energy off solo reference by %g",
				rec.ID, rec.Spec.Molecule, rec.Adoptions, d)
		}
	}
	if doneJobs != accepted {
		t.Errorf("registry has %d done jobs, clients saw %d accepted", doneJobs, accepted)
	}

	// The kill actually exercised the HA path.
	adopted := int64(0)
	for i := 1; i < npeers; i++ {
		adopted += mets[i].Snapshot().Adopted
	}
	st := reg.Stats()
	if adopted == 0 || st.Expiries == 0 {
		t.Errorf("adopted=%d registry lease expiries=%d; the kill exercised nothing", adopted, st.Expiries)
	}
	if st.Active != 0 {
		t.Errorf("%d jobs still active in the registry after the burst", st.Active)
	}
	t.Logf("burst %d: done %d, adopted %d, lease expiries %d, fence rejects %d",
		nburst, doneJobs, adopted, st.Expiries, st.FenceRejects)
}

// submitHA posts a job, failing over across endpoints (dead peer,
// overload reject) with a short backoff — the loadgen client behavior.
func submitHA(endpoints []string, home int, spec JobSpec) (string, error) {
	body, _ := json.Marshal(spec)
	var lastErr error
	for attempt := 0; attempt < 3*len(endpoints); attempt++ {
		ep := endpoints[(home+attempt)%len(endpoints)]
		resp, err := http.Post(ep+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			lastErr = err
			time.Sleep(50 * time.Millisecond)
			continue
		}
		var out struct {
			ID    string `json:"id"`
			Error string `json:"error"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode == http.StatusAccepted && derr == nil {
			return out.ID, nil
		}
		lastErr = &RejectError{Msg: out.Error}
		time.Sleep(50 * time.Millisecond)
	}
	return "", lastErr
}

// streamHA follows a job's event stream to its terminal event, across
// owner death: a broken stream or failed connect starts ONE error
// episode, within which the client rotates endpoints (following 307s to
// the current owner) until the stream re-attaches and events flow
// again. Terminal events caused by the kill itself (lease lost, peer
// killed) are retriable — the job lives on under its adopter.
func streamHA(t *testing.T, endpoints []string, home int, id string) clientStreamResult {
	t.Helper()
	hc := &http.Client{} // follows redirects, no timeout: streams block
	res := clientStreamResult{id: id}
	ep := home
	inFailure := false
	deadline := time.Now().Add(4 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(endpoints[ep%len(endpoints)] + "/v1/jobs/" + id + "/events")
		if err != nil || resp.StatusCode != http.StatusOK {
			if resp != nil {
				resp.Body.Close()
			}
			if !inFailure {
				inFailure = true
				res.episodes++
			}
			ep++
			time.Sleep(50 * time.Millisecond)
			continue
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var ev Event
			if json.Unmarshal(sc.Bytes(), &ev) != nil {
				continue
			}
			inFailure = false // events are flowing: the episode is over
			switch ev.Type {
			case "done", "failed", "canceled", "shed":
				if ev.Type != "done" && retriableTerminal(ev.Msg) {
					// The owner died under the job; its adopter will
					// finish it. Not a client-visible terminal.
					continue
				}
				res.terminal = ev.Type
				resp.Body.Close()
				return res
			}
		}
		resp.Body.Close()
		// Stream broke before a terminal event: the owner died mid-run.
		if !inFailure {
			inFailure = true
			res.episodes++
		}
		ep++
		time.Sleep(50 * time.Millisecond)
	}
	res.err = "stream: no terminal event before deadline"
	return res
}

type clientStreamResult struct {
	id       string
	molecule string
	episodes int
	terminal string
	err      string
}

func retriableTerminal(msg string) bool {
	return strings.Contains(msg, "lease lost") || strings.Contains(msg, "peer killed")
}
