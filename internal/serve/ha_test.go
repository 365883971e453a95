package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gtfock/internal/metrics"
)

// haRig is one peer wired to a shared in-memory registry over real
// HTTP, with a gate runner so tests control execution.
type haRig struct {
	peer *Peer
	api  *httptest.Server
	gate *gate
	met  *metrics.Serve
}

func newHARig(t *testing.T, regURL, id string) *haRig {
	return newHARigEvery(t, regURL, id, 10*time.Millisecond)
}

// newHARigEvery is newHARig with the peer's heartbeat and scan cadence.
func newHARigEvery(t *testing.T, regURL, id string, every time.Duration) *haRig {
	t.Helper()
	g := newGate()
	sm := metrics.NewServe()
	p, api := newTestPeer(t, regURL, id, every, Config{
		Capacity: 2, Runner: g, Estimate: stubEstimate, Metrics: sm,
	})
	return &haRig{peer: p, api: api, gate: g, met: sm}
}

// newTestPeer starts a peer of the registry at regURL running cfg's
// scheduler, and its job API on a pre-bound listener so the advertised
// address is real before the peer's loops start — redirects issued by
// other peers are followable from the first scan.
func newTestPeer(t *testing.T, regURL, id string, every time.Duration, cfg Config) (*Peer, *httptest.Server) {
	t.Helper()
	api := httptest.NewUnstartedServer(nil)
	p, err := NewPeer(PeerConfig{
		ID:             id,
		Addr:           api.Listener.Addr().String(),
		Registry:       NewRegistryClient(regURL, time.Second),
		CheckpointDir:  t.TempDir(),
		Server:         cfg,
		HeartbeatEvery: every,
		ScanEvery:      every,
	})
	if err != nil {
		t.Fatal(err)
	}
	api.Config.Handler = (&API{Server: p.Server(), Peer: p}).Handler()
	api.Start()
	t.Cleanup(api.Close)
	t.Cleanup(p.Close)
	return p, api
}

// newLonePeer is what a lone hfd runs: the one peer of an in-memory
// registry.
func newLonePeer(t *testing.T, cfg Config) (*Peer, *httptest.Server) {
	t.Helper()
	regSrv := httptest.NewServer((&RegistryAPI{Reg: NewRegistry(RegistryConfig{LeaseTTL: time.Minute})}).Handler())
	t.Cleanup(regSrv.Close)
	return newTestPeer(t, regSrv.URL, "peer-a", 10*time.Millisecond, cfg)
}

func newTestRegistryServer(t *testing.T) (*Registry, *httptest.Server) {
	t.Helper()
	reg := NewRegistry(RegistryConfig{LeaseTTL: 100 * time.Millisecond})
	srv := httptest.NewServer((&RegistryAPI{Reg: reg}).Handler())
	t.Cleanup(srv.Close)
	return reg, srv
}

// oversize is a JSON object one byte past maxBody.
func oversize() string {
	return `{"molecule":"` + strings.Repeat("x", maxBody-14) + `"}`
}

// A submission body past maxBody is refused with 413 before it is
// decoded: no job is registered or admitted.
func TestAPIRefusesOversizeBody(t *testing.T) {
	p, api := newLonePeer(t, Config{Capacity: 1, Runner: newGate(), Estimate: stubEstimate})
	body := oversize()
	if len(body) != maxBody+1 {
		t.Fatalf("body is %d bytes, want %d", len(body), maxBody+1)
	}
	resp, err := http.Post(api.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize submit: HTTP %d, want 413", resp.StatusCode)
	}
	if p.Server().Job("j-000001") != nil {
		t.Fatal("the oversize submission was admitted")
	}
}

// TestPeerDerivesHeartbeatFromRegistryTTL: with no explicit cadence a
// peer must heartbeat at a third of the TTL the registry ADVERTISES, not
// of whatever TTL its own flags claim — a joining peer configured with a
// longer -lease-ttl than the registry host's would otherwise heartbeat
// too slowly and falsely expire its own leases.
func TestPeerDerivesHeartbeatFromRegistryTTL(t *testing.T) {
	reg := NewRegistry(RegistryConfig{LeaseTTL: 900 * time.Millisecond})
	srv := httptest.NewServer((&RegistryAPI{Reg: reg}).Handler())
	t.Cleanup(srv.Close)
	if ttl := reg.Stats().LeaseTTL; ttl != 900*time.Millisecond {
		t.Fatalf("advertised TTL = %s, want 900ms", ttl)
	}
	p, err := NewPeer(PeerConfig{
		ID: "peer-a", Addr: "127.0.0.1:1",
		Registry:      NewRegistryClient(srv.URL, time.Second),
		CheckpointDir: t.TempDir(),
		Server:        Config{Capacity: 1, Runner: newGate(), Estimate: stubEstimate},
		ScanEvery:     time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	if got := p.cfg.HeartbeatEvery; got != 300*time.Millisecond {
		t.Fatalf("derived HeartbeatEvery = %s, want TTL/3 = 300ms", got)
	}
}

func readyz(t *testing.T, api *httptest.Server) (int, string) {
	t.Helper()
	resp, err := http.Get(api.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body.Reason
}

// TestReadyzDrainTransition walks /readyz through the peer lifecycle:
// not ready before the first registry sync, ready while serving, not
// ready from the moment a drain starts — and never ready again.
func TestReadyzDrainTransition(t *testing.T) {
	_, regSrv := newTestRegistryServer(t)

	// Until a registry round-trip succeeds the peer must not take
	// traffic: it cannot see orphans or record outcomes yet. A peer whose
	// registry is unreachable (a closed server's URL; explicit cadences,
	// so NewPeer does not retry a TTL fetch) stays unsynced.
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	cold := newHARigEvery(t, gone.URL, "peer-cold", time.Hour)
	for i := 0; i < 3; i++ {
		if code, reason := readyz(t, cold.api); code != http.StatusServiceUnavailable || reason != "registry sync pending" {
			t.Fatalf("/readyz with the registry unreachable: %d %q, want 503 pending", code, reason)
		}
		time.Sleep(5 * time.Millisecond)
	}

	rig := newHARig(t, regSrv.URL, "peer-a")
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _ := readyz(t, rig.api)
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never became ready after registry sync")
		}
		time.Sleep(2 * time.Millisecond)
	}

	j, err := rig.peer.Submit(JobSpec{Molecule: "H2"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, j, StateRunning)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- rig.peer.Drain(ctx)
	}()
	// The readiness flip must happen when the drain STARTS, not when it
	// finishes — that is the window the load balancer needs.
	deadline = time.Now().Add(5 * time.Second)
	for {
		if code, reason := readyz(t, rig.api); code == http.StatusServiceUnavailable && reason == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz stayed ready after drain started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if code, reason := readyz(t, rig.api); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after drain: %d %q, want 503 draining", code, reason)
	}
	// The drained peer released its lease: the parked job is adoptable
	// immediately, no TTL wait.
	orphans, err := rig.peer.reg.Orphans()
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != 1 || orphans[0].ID != j.ID {
		t.Fatalf("orphans after drain = %v, want [%s]", orphans, j.ID)
	}
}

// TestPeerReadyWithoutTick: the first registry sync is the round trip
// NewPeer makes before it returns, not the first scan (which runs on its
// own goroutine and races the first probe) nor one ScanEvery later — with
// both cadences an hour, /readyz answers 200 on the very first GET after
// NewPeer, every time.
func TestPeerReadyWithoutTick(t *testing.T) {
	_, regSrv := newTestRegistryServer(t)
	for i := 0; i < 50; i++ {
		rig := newHARigEvery(t, regSrv.URL, fmt.Sprintf("peer-%d", i), time.Hour)
		if code, reason := readyz(t, rig.api); code != http.StatusOK {
			t.Fatalf("start %d: first /readyz after NewPeer = %d %q, want 200", i, code, reason)
		}
		rig.api.Close()
		rig.peer.Close()
	}
}

// TestPeerAdoptsOrphanOnStart: a peer that starts while the registry
// already holds an orphan — released by a drained owner, or expired
// under a dead one — adopts it on its first scan, with no tick (ScanEvery
// is an hour). The registry clock is frozen, so the expired lease is the
// only expiry in play and the adopter's own lease never lapses.
func TestPeerAdoptsOrphanOnStart(t *testing.T) {
	for _, how := range []string{"released", "expired"} {
		t.Run(how, func(t *testing.T) {
			var now atomic.Int64
			reg := NewRegistry(RegistryConfig{LeaseTTL: time.Second,
				Clock: func() time.Time { return time.Unix(0, now.Load()) }})
			regSrv := httptest.NewServer((&RegistryAPI{Reg: reg}).Handler())
			t.Cleanup(regSrv.Close)
			id, _, err := reg.Create(JobSpec{Molecule: "H2"}, "peer-dead", "127.0.0.1:1", 1, "")
			if err != nil {
				t.Fatal(err)
			}
			if how == "released" {
				reg.Release("peer-dead", 1, nil)
			} else {
				now.Add(int64(2 * time.Second))
			}

			rig := newHARigEvery(t, regSrv.URL, "peer-b", time.Hour)
			for deadline := time.Now().Add(5 * time.Second); rig.met.Snapshot().Adopted == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("peer never adopted the orphan present at its start")
				}
			}
			if n := rig.met.Snapshot().Adopted; n != 1 {
				t.Fatalf("adopted = %d, want 1", n)
			}
			j := rig.peer.Server().Job(id)
			if j == nil {
				t.Fatalf("adopted job %s is not on the peer's server", id)
			}
			close(rig.gate.release)
			waitState(t, j, StateDone)
			// Done was visible, so the adopter's outcome is recorded — under
			// the fence of exactly one acquisition after the creator's.
			if rec, _ := reg.Get(id); rec.State != RecDone || rec.Fence != 2 {
				t.Fatalf("record = %+v, want done under fence 2", rec)
			}
		})
	}
}

// TestPeerAdoptsOnlyWhatItWouldAdmit: the adoption scanner prices an
// orphan with the charge admission refuses on. A peer whose budget is one
// byte short of the job's fixed charge refuses it at submit and leaves it
// orphaned scan after scan; at exactly the fixed charge it admits and
// adopts it.
func TestPeerAdoptsOnlyWhatItWouldAdmit(t *testing.T) {
	for _, tc := range []struct {
		budget int64
		adopts bool
	}{{stubSize.Fixed - 1, false}, {stubSize.Fixed, true}} {
		reg, regSrv := newTestRegistryServer(t)
		id, _, err := reg.Create(JobSpec{Molecule: "H2"}, "peer-dead", "127.0.0.1:1", 1, "")
		if err != nil {
			t.Fatal(err)
		}
		reg.Release("peer-dead", 1, nil)
		sm := metrics.NewServe()
		p, err := NewPeer(PeerConfig{
			ID: "peer-b", Addr: "127.0.0.1:1",
			Registry:      NewRegistryClient(regSrv.URL, time.Second),
			CheckpointDir: t.TempDir(),
			Server: Config{Capacity: 1, MemBudget: tc.budget, Runner: newGate(),
				Estimate: stubEstimate, Metrics: sm},
			HeartbeatEvery: 10 * time.Millisecond,
			ScanEvery:      5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		if tc.adopts {
			for deadline := time.Now().Add(5 * time.Second); sm.Snapshot().Adopted == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("budget %d: the orphan was never adopted", tc.budget)
				}
			}
			if j, used := p.Server().Job(id), p.Server().MemUsed(); j == nil || j.Size != stubSize || used != stubSize.Fixed {
				t.Fatalf("budget %d: adopted job %+v holding %d, want charge %d", tc.budget, j, used, stubSize.Fixed)
			}
			continue
		}
		var re *RejectError
		if _, err := p.Server().Submit(JobSpec{Molecule: "H2"}); !errors.As(err, &re) || re.Cause != RejectMemory {
			t.Fatalf("budget %d: submit %v, want a memory rejection", tc.budget, err)
		}
		time.Sleep(50 * time.Millisecond) // ten scans
		if rec, _ := reg.Get(id); sm.Snapshot().Adopted != 0 || rec.Owner != "" {
			t.Fatalf("budget %d: adopted %d, owner %q; want the orphan left alone", tc.budget, sm.Snapshot().Adopted, rec.Owner)
		}
	}
}

// TestOwnerRedirect covers the fix for cross-peer status queries: a job
// owned by peer A, asked about on peer B, answers 307 to A — and a
// redirect-following client transparently gets the real status.
func TestOwnerRedirect(t *testing.T) {
	_, regSrv := newTestRegistryServer(t)
	a := newHARig(t, regSrv.URL, "peer-a")
	b := newHARig(t, regSrv.URL, "peer-b")

	j, err := a.peer.Submit(JobSpec{Molecule: "H2"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, j, StateRunning)

	// Raw client: observe the 307 itself.
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := noFollow.Get(b.api.URL + "/v1/jobs/" + j.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("cross-peer status = %d, want 307", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	if !strings.Contains(loc, a.peer.cfg.Addr) || !strings.HasSuffix(loc, "/v1/jobs/"+j.ID) {
		t.Fatalf("redirect Location = %q, want owner %s", loc, a.peer.cfg.Addr)
	}
	if b.met.Snapshot().OwnerRedirects == 0 {
		t.Fatal("serve.owner_redirects not counted")
	}

	// Default client follows the redirect: the stream and status work
	// against EITHER peer, which is what keeps clients owner-agnostic.
	resp, err = http.Get(b.api.URL + "/v1/jobs/" + j.ID)
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.ID != j.ID || st.State != "running" {
		t.Fatalf("followed status = %+v, want running %s", st, j.ID)
	}

	// Truly unknown ids are still a 404, not a redirect loop.
	resp, err = http.Get(b.api.URL + "/v1/jobs/j-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id = %d, want 404", resp.StatusCode)
	}

	// Terminal outcome outlives the owning peer's memory: finish the
	// job, then ask the OTHER peer after the owner forgot it.
	close(a.gate.release)
	if _, err := j.Wait(); err != nil {
		t.Fatalf("job failed: %v", err)
	}
	// Finish-then-publish: done was visible, so the record is terminal now.
	if rec, ok, err := b.peer.reg.Get(j.ID); err != nil || !ok || !rec.Terminal() {
		t.Fatalf("registry record after a visible done = %+v ok=%v err=%v, want terminal", rec, ok, err)
	}
}

// TestKilledPeerLosesLeasesAndSurvivorAdopts is the in-process seam the
// chaos e2e builds on: Kill() severs the registry first, so the dead
// peer reports nothing; its lease expires; the survivor's scanner
// adopts and re-executes from the shared checkpoint dir.
func TestKilledPeerLosesLeasesAndSurvivorAdopts(t *testing.T) {
	_, regSrv := newTestRegistryServer(t)
	a := newHARig(t, regSrv.URL, "peer-a")
	b := newHARig(t, regSrv.URL, "peer-b")

	j, err := a.peer.Submit(JobSpec{Molecule: "H2"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, j, StateRunning)

	a.peer.Kill()
	if code, reason := readyz(t, a.api); code != http.StatusServiceUnavailable || reason != "peer killed" {
		t.Fatalf("/readyz on killed peer = %d %q", code, reason)
	}

	// Survivor adopts once the lease expires (TTL 100ms, scan 10ms).
	var adopted *Job
	deadline := time.Now().Add(5 * time.Second)
	for adopted == nil {
		if adopted = b.peer.Server().Job(j.ID); adopted != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("survivor never adopted the orphan")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if b.met.Snapshot().Adopted == 0 {
		t.Fatal("serve.adopted not counted")
	}
	close(b.gate.release)
	waitState(t, adopted, StateDone)

	// The registry records the SURVIVOR's outcome; the dead peer's
	// session could not have written anything. No wait: done was visible.
	rec, ok, err := b.peer.reg.Get(j.ID)
	if err != nil || !ok || rec.State != RecDone {
		t.Fatalf("adopted job's record = %+v ok=%v err=%v, want done", rec, ok, err)
	}
	if rec.Adoptions != 1 {
		t.Fatalf("adoptions = %d, want 1", rec.Adoptions)
	}
}

// TestPeerSubmitPreparesOnce: an HA submission is normalised and sized
// once — Peer.Submit's prepareJob result is what the scheduler admits —
// so Estimate (a full basis build in production) runs exactly once per
// accepted job, the registry holds the defaulted spec an adopter will
// run, and a malformed spec is refused before it reaches the registry,
// as a plain error (HTTP 400), not a RejectError (503).
func TestPeerSubmitPreparesOnce(t *testing.T) {
	reg, regSrv := newTestRegistryServer(t)
	var estimates atomic.Int64
	g := newGate()
	p, err := NewPeer(PeerConfig{
		ID: "peer-a", Addr: "127.0.0.1:1",
		Registry:      NewRegistryClient(regSrv.URL, time.Second),
		CheckpointDir: t.TempDir(),
		Server: Config{Capacity: 2, Runner: g, Estimate: func(spec JobSpec) (JobSize, error) {
			estimates.Add(1)
			if spec.Molecule == "" {
				return JobSize{}, errors.New("empty molecule")
			}
			return stubSize, nil
		}},
		HeartbeatEvery: 10 * time.Millisecond,
		ScanEvery:      10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)

	_, err = p.Submit(JobSpec{})
	var rej *RejectError
	if err == nil || errors.As(err, &rej) {
		t.Fatalf("malformed spec: err = %v, want a plain error", err)
	}
	if recs := reg.List(); len(recs) != 0 {
		t.Fatalf("malformed spec left %d registry records", len(recs))
	}

	estimates.Store(0)
	j, err := p.Submit(JobSpec{Molecule: "H2"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if n := estimates.Load(); n != 1 {
		t.Fatalf("Estimate ran %d times for one accepted submission, want 1", n)
	}
	want := JobSpec{Tenant: "default", Molecule: "H2", Basis: "sto-3g", MaxIter: 30}
	if rec, ok := reg.Get(j.ID); !ok || rec.Spec != want || j.Spec != want {
		t.Fatalf("registry spec = %+v (ok=%v), job spec = %+v, want %+v", rec.Spec, ok, j.Spec, want)
	}
	close(g.release)
	waitState(t, j, StateDone)
}

// gatedFinishRegistry serves reg over HTTP but holds every Finish until
// release is called; arrived closes when the first one is waiting.
func gatedFinishRegistry(t *testing.T, reg *Registry) (srv *httptest.Server, arrived chan struct{}, release func()) {
	arrived = make(chan struct{})
	proceed := make(chan struct{})
	var arriveOnce, proceedOnce sync.Once // a timed-out Finish is retried
	release = func() { proceedOnce.Do(func() { close(proceed) }) }
	inner := (&RegistryAPI{Reg: reg}).Handler()
	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/reg/v1/finish" {
			arriveOnce.Do(func() { close(arrived) })
			<-proceed
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	t.Cleanup(release) // runs first: a failed assertion must not wedge Close
	return srv, arrived, release
}

// TestFinishThenPublish pins the HA job-lifecycle contract: on a Peer a
// terminal state or event becomes client-visible only after the
// registry has answered Finish, so a client that has seen `done` finds a
// terminal registry record without waiting — and when the registry
// refuses the outcome (the lease moved), the client sees a retriable
// lease-lost failure, never a `done` nothing durable backs.
func TestFinishThenPublish(t *testing.T) {
	t.Run("done implies a terminal record", func(t *testing.T) {
		reg := NewRegistry(RegistryConfig{LeaseTTL: time.Minute})
		regSrv, arrived, release := gatedFinishRegistry(t, reg)
		rig := newHARig(t, regSrv.URL, "peer-a")

		j, err := rig.peer.Submit(JobSpec{Molecule: "H2"})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		terminal := make(chan Event, 1)
		go func() {
			resp, err := http.Get(rig.api.URL + "/v1/jobs/" + j.ID + "/events")
			if err != nil {
				close(terminal) // the test fails on the zero Event
				return
			}
			defer resp.Body.Close()
			var last Event
			for dec := json.NewDecoder(resp.Body); dec.Decode(&last) == nil; {
			}
			terminal <- last
		}()
		close(rig.gate.release)

		<-arrived // the run is over and its outcome is at the registry, unanswered
		if st := j.State(); st.Terminal() {
			t.Fatalf("job visibly %s while the registry has not recorded the outcome", st)
		}
		select {
		case ev := <-terminal:
			t.Fatalf("event stream ended with %+v before the registry answered Finish", ev)
		default:
		}
		release()

		if ev := <-terminal; ev.Type != "done" {
			t.Fatalf("terminal event = %+v, want done", ev)
		}
		if rec, ok := reg.Get(j.ID); !ok || rec.State != RecDone || rec.Result == nil || rec.Result.Energy != -1 {
			t.Fatalf("registry record after the client saw done = %+v ok=%v, want done with the result", rec, ok)
		}
	})

	t.Run("drain waits for an outcome being recorded", func(t *testing.T) {
		reg := NewRegistry(RegistryConfig{LeaseTTL: time.Minute})
		regSrv, arrived, release := gatedFinishRegistry(t, reg)
		rig := newHARig(t, regSrv.URL, "peer-a")
		j, err := rig.peer.Submit(JobSpec{Molecule: "H2"})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		close(rig.gate.release)
		<-arrived

		drained := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			drained <- rig.peer.Drain(ctx)
		}()
		for deadline := time.Now().Add(5 * time.Second); !rig.peer.Server().Draining(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("drain never started")
			}
		}
		release()
		if err := <-drained; err != nil {
			t.Fatalf("Drain: %v", err)
		}
		// Had the drain released the lease first, Finish would have been
		// fenced out and the finished job handed back for re-execution.
		if rec, _ := reg.Get(j.ID); rec.State != RecDone {
			t.Fatalf("record after drain = %+v, want the finished job recorded done", rec)
		}
	})

	t.Run("fenced-out outcome is published as lease lost", func(t *testing.T) {
		reg, regSrv := newTestRegistryServer(t)
		// Heartbeats never tick, so only Finish can discover the lost fence.
		rig := newHARigEvery(t, regSrv.URL, "peer-a", time.Hour)
		j, err := rig.peer.Submit(JobSpec{Molecule: "H2"})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		waitState(t, j, StateRunning)
		reg.Release("peer-a", rig.peer.Incarnation(), nil)
		if _, err := reg.Acquire(j.ID, "peer-b", "peer-b:80", 2); err != nil {
			t.Fatalf("Acquire: %v", err)
		}
		close(rig.gate.release)

		if _, err := j.Wait(); !errors.Is(err, ErrLeaseLost) {
			t.Fatalf("fenced-out job's visible error = %v, want ErrLeaseLost", err)
		}
		if st := j.State(); st != StateFailed {
			t.Fatalf("fenced-out job's visible state = %s, want failed", st)
		}
		if rec, _ := reg.Get(j.ID); rec.Terminal() || rec.Owner != "peer-b" {
			t.Fatalf("registry record = %+v, want still active under peer-b", rec)
		}
	})
}

// TestHeartbeatLeaseLossCancels: a lease a heartbeat reports lost cancels
// the job it covers, running or queued. Both are published failed with
// ErrLeaseLost, a run sees its context canceled with that cause, and the
// registry keeps both active under the peer that took them.
func TestHeartbeatLeaseLossCancels(t *testing.T) {
	reg := NewRegistry(RegistryConfig{LeaseTTL: time.Minute})
	regSrv := httptest.NewServer((&RegistryAPI{Reg: reg}).Handler())
	t.Cleanup(regSrv.Close)
	g := newGate()
	var mu sync.Mutex
	causes := map[string]error{}
	run := RunnerFunc(func(ctx context.Context, j *Job) (*JobResult, error) {
		res, err := g.Run(ctx, j)
		mu.Lock()
		causes[j.ID] = context.Cause(ctx)
		mu.Unlock()
		return res, err
	})
	p, _ := newTestPeer(t, regSrv.URL, "peer-a", 10*time.Millisecond,
		Config{Capacity: 1, Runner: run, Estimate: stubEstimate})
	running, err := p.Submit(JobSpec{Molecule: "H2"})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := p.Submit(JobSpec{Molecule: "H2"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning)
	if st := queued.State(); st != StateQueued {
		t.Fatalf("second job %s, want queued behind the first", st)
	}

	ids := []string{running.ID, queued.ID}
	reg.Release("peer-a", p.Incarnation(), ids)
	for _, id := range ids {
		if _, err := reg.Acquire(id, "peer-b", "peer-b:80", 2); err != nil {
			t.Fatalf("Acquire %s: %v", id, err)
		}
	}
	for _, j := range []*Job{running, queued} {
		if _, err := j.Wait(); !errors.Is(err, ErrLeaseLost) || j.State() != StateFailed {
			t.Fatalf("job %s: %s with %v, want failed with ErrLeaseLost", j.ID, j.State(), err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if cause, ran := causes[running.ID]; !ran || !errors.Is(cause, ErrLeaseLost) {
		t.Fatalf("running job's run ended with cause %v (ran %v), want ErrLeaseLost", cause, ran)
	}
	if cause, ran := causes[queued.ID]; ran && !errors.Is(cause, ErrLeaseLost) {
		t.Fatalf("queued job ran and ended with cause %v, want ErrLeaseLost", cause)
	}
	for _, id := range ids {
		if rec, _ := reg.Get(id); rec.Terminal() || rec.Owner != "peer-b" {
			t.Fatalf("registry record = %+v, want still active under peer-b", rec)
		}
	}
}
