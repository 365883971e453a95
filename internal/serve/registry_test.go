package serve

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gtfock/internal/wal"
)

// regClock is the deterministic time source the lease suite drives,
// mirroring fleet_test.go's fakeClock: expiry happens exactly when the
// test advances past the TTL, never because the wall clock moved.
type regClock struct {
	mu sync.Mutex
	t  time.Time
}

func newRegClock() *regClock { return &regClock{t: time.Unix(1000, 0)} }

func (c *regClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *regClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

const ttl = time.Second

func newTestRegistry() (*Registry, *regClock) {
	clk := newRegClock()
	return NewRegistry(RegistryConfig{LeaseTTL: ttl, Clock: clk.Now}), clk
}

func mustCreate(t *testing.T, r *Registry, owner string, inc uint64) (string, uint64) {
	t.Helper()
	id, fence, err := r.Create(JobSpec{Molecule: "H2"}, owner, owner+":80", inc, "/ckpt")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return id, fence
}

func TestLeaseAcquireRenewExpiry(t *testing.T) {
	r, clk := newTestRegistry()
	id, fence := mustCreate(t, r, "p1", 1)
	if fence != 1 {
		t.Fatalf("initial fence = %d, want 1", fence)
	}
	if rec, _ := r.Get(id); rec.Ckpt != "/ckpt/"+id+".ckpt" || !rec.Submitted.Equal(clk.Now()) {
		t.Fatalf("record = %+v, want the FleetRunner's ckpt path, submitted at %v", rec, clk.Now())
	}

	// Held lease: not an orphan, not acquirable.
	if o := r.Orphans(); len(o) != 0 {
		t.Fatalf("fresh lease listed as orphan: %v", o)
	}
	if _, err := r.Acquire(id, "p2", "p2:80", 2); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("Acquire on live lease: err = %v, want ErrLeaseHeld", err)
	}

	// Renewals keep it alive indefinitely: advance close to expiry,
	// heartbeat, repeat — total elapsed far beyond one TTL.
	for i := 0; i < 5; i++ {
		clk.Advance(ttl - time.Millisecond)
		if lost := r.Heartbeat("p1", 1, map[string]uint64{id: fence}); len(lost) != 0 {
			t.Fatalf("heartbeat %d lost lease: %v", i, lost)
		}
	}
	if o := r.Orphans(); len(o) != 0 {
		t.Fatalf("renewed lease listed as orphan")
	}

	// No heartbeat past the TTL: deterministically expired.
	clk.Advance(ttl + time.Millisecond)
	o := r.Orphans()
	if len(o) != 1 || o[0].ID != id {
		t.Fatalf("expired lease not orphaned: %v", o)
	}
}

func TestIncarnationFencing(t *testing.T) {
	r, clk := newTestRegistry()
	id, f1 := mustCreate(t, r, "p1", 100)

	clk.Advance(ttl + time.Millisecond)
	rec, err := r.Acquire(id, "p2", "p2:80", 200)
	if err != nil {
		t.Fatalf("adopt expired: %v", err)
	}
	if rec.Fence != f1+1 {
		t.Fatalf("adoption fence = %d, want %d", rec.Fence, f1+1)
	}
	if rec.Adoptions != 1 {
		t.Fatalf("adoptions = %d, want 1", rec.Adoptions)
	}

	// The superseded session is fenced out of every write path.
	if err := r.Finish(id, "p1", 100, f1, RecDone, &JobResult{Energy: -1}, ""); !errors.Is(err, ErrFenceLost) {
		t.Fatalf("stale Finish: err = %v, want ErrFenceLost", err)
	}
	if lost := r.Heartbeat("p1", 100, map[string]uint64{id: f1}); len(lost) != 1 || lost[0] != id {
		t.Fatalf("stale heartbeat lost = %v, want [%s]", lost, id)
	}
	// Same peer id, NEW incarnation (restarted process) is equally fenced:
	// identity does not carry ownership across restarts.
	if err := r.Finish(id, "p1", 101, f1, RecDone, nil, ""); !errors.Is(err, ErrFenceLost) {
		t.Fatalf("restarted-incarnation Finish: err = %v, want ErrFenceLost", err)
	}

	// The adopter's session works.
	if err := r.Finish(id, "p2", 200, rec.Fence, RecDone, &JobResult{Converged: true, Energy: -2}, ""); err != nil {
		t.Fatalf("adopter Finish: %v", err)
	}
	got, _ := r.Get(id)
	if got.State != RecDone || got.Result == nil || got.Result.Energy != -2 {
		t.Fatalf("final record = %+v, want p2's outcome", got)
	}
	// Terminal records reject further acquisition and finishing.
	if _, err := r.Acquire(id, "p3", "p3:80", 300); !errors.Is(err, ErrTerminal) {
		t.Fatalf("Acquire terminal: err = %v, want ErrTerminal", err)
	}
}

// TestDoubleAdoptOneWinner is the lease-safety acceptance test: two
// peers race to adopt the same expired job; exactly one wins the lease,
// and the incarnation fence rejects the loser's entire session — its
// renewal and its outcome — so exactly one execution can ever land.
func TestDoubleAdoptOneWinner(t *testing.T) {
	r, clk := newTestRegistry()
	id, _ := mustCreate(t, r, "p0", 1)
	clk.Advance(ttl + time.Millisecond)

	type attempt struct {
		rec JobRecord
		err error
	}
	results := make([]attempt, 2)
	start := make(chan struct{})
	var wg sync.WaitGroup
	peers := []struct {
		name string
		inc  uint64
	}{{"p1", 11}, {"p2", 22}}
	for i, p := range peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rec, err := r.Acquire(id, p.name, p.name+":80", p.inc)
			results[i] = attempt{rec, err}
		}()
	}
	close(start)
	wg.Wait()

	winners := 0
	win, lose := -1, -1
	for i, a := range results {
		if a.err == nil {
			winners++
			win = i
		} else if errors.Is(a.err, ErrLeaseHeld) {
			lose = i
		} else {
			t.Fatalf("peer %d: unexpected error %v", i, a.err)
		}
	}
	if winners != 1 || lose == -1 {
		t.Fatalf("adoption race: %d winners (want exactly 1); results %+v", winners, results)
	}

	// The loser retries its Finish with the fence it WOULD have had (the
	// winner's fence is the only valid one; anything the loser can know
	// is stale) — fenced out, so its execution can never be recorded.
	loser := peers[lose]
	for f := uint64(0); f <= results[win].rec.Fence+1; f++ {
		if err := r.Finish(id, loser.name, loser.inc, f, RecDone, &JobResult{Energy: -99}, ""); err == nil {
			t.Fatalf("loser finished the job at fence %d", f)
		}
	}
	winner := peers[win]
	if err := r.Finish(id, winner.name, winner.inc, results[win].rec.Fence, RecDone, &JobResult{Converged: true, Energy: -1}, ""); err != nil {
		t.Fatalf("winner Finish: %v", err)
	}
	got, _ := r.Get(id)
	if got.Result == nil || got.Result.Energy != -1 {
		t.Fatalf("recorded outcome %+v, want the winner's", got.Result)
	}
	st := r.Stats()
	if st.FenceRejects == 0 {
		t.Fatalf("fence rejects = 0, want > 0")
	}
	if st.Expiries != 1 {
		t.Fatalf("lease expiries = %d, want 1", st.Expiries)
	}
}

func TestReleaseMakesImmediatelyAdoptable(t *testing.T) {
	r, _ := newTestRegistry()
	id1, _ := mustCreate(t, r, "p1", 1)
	id2, _ := mustCreate(t, r, "p1", 1)
	mustCreate(t, r, "p2", 2)

	// nil ids = everything (p1, 1) holds; p2's job is untouched.
	released := r.Release("p1", 1, nil)
	if len(released) != 2 || released[0] != id1 || released[1] != id2 {
		t.Fatalf("released = %v, want [%s %s]", released, id1, id2)
	}
	if o := r.Orphans(); len(o) != 2 {
		t.Fatalf("orphans after release = %v, want both of p1's", o)
	}
	// No expiry elapsed: adoption works NOW (graceful drain handoff).
	if _, err := r.Acquire(id1, "p3", "p3:80", 3); err != nil {
		t.Fatalf("adopt released: %v", err)
	}
	if st := r.Stats(); st.Expiries != 0 {
		t.Fatalf("release counted as expiry: %d", st.Expiries)
	}
}

// TestRegistryRecovery proves what survives a registry crash (specs,
// states, fence sequence) and what deliberately does not (leases).
func TestRegistryRecovery(t *testing.T) {
	dir := t.TempDir()
	clk := newRegClock()
	cfg := RegistryConfig{LeaseTTL: ttl, Clock: clk.Now, NoSync: true, SnapshotEvery: 3}

	r, err := OpenRegistry(dir, cfg)
	if err != nil {
		t.Fatalf("OpenRegistry: %v", err)
	}
	idLive, fence := mustCreate(t, r, "p1", 1)
	idDone, fdone := mustCreate(t, r, "p1", 1)
	if err := r.Finish(idDone, "p1", 1, fdone, RecDone, &JobResult{Converged: true, Energy: -7}, ""); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	// Crash: no Close, the WAL tail is whatever was appended.

	r2, err := OpenRegistry(dir, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r2.Close()
	rec, ok := r2.Get(idDone)
	if !ok || rec.State != RecDone || rec.Result == nil || rec.Result.Energy != -7 {
		t.Fatalf("terminal outcome lost across restart: %+v", rec)
	}
	live, ok := r2.Get(idLive)
	if !ok || live.State != RecActive {
		t.Fatalf("active record lost across restart: %+v", live)
	}
	if live.Fence != fence {
		t.Fatalf("fence across restart = %d, want %d", live.Fence, fence)
	}
	// Leases are not durable: the live job is immediately adoptable even
	// though its pre-crash TTL has not elapsed by the clock.
	o := r2.Orphans()
	if len(o) != 1 || o[0].ID != idLive {
		t.Fatalf("recovered lease not expired: %v", o)
	}
	// And the old owner's session stays fenced after recovery too.
	adopted, err := r2.Acquire(idLive, "p2", "p2:80", 2)
	if err != nil {
		t.Fatalf("adopt after recovery: %v", err)
	}
	if adopted.Fence != fence+1 {
		t.Fatalf("fence monotonicity broken across restart: %d, want %d", adopted.Fence, fence+1)
	}
	if err := r2.Finish(idLive, "p1", 1, fence, RecDone, nil, ""); !errors.Is(err, ErrFenceLost) {
		t.Fatalf("pre-crash owner Finish after recovery: err = %v, want ErrFenceLost", err)
	}
	// New ids never collide with pre-crash ones.
	id3, _ := mustCreate(t, r2, "p2", 2)
	if id3 == idLive || id3 == idDone {
		t.Fatalf("id allocator reused %s after restart", id3)
	}
}

// TestSnapshotBoundaryKeepsAcknowledgedRecords: with SnapshotEvery=1 every
// append is the one that triggers snapshot + log reset. The snapshot must
// be taken after the mutation is installed — a Create snapshotted before
// its record entered the job table is in neither file afterwards. Each
// step crashes (no Close) and recovers through the real OpenRegistry path.
func TestSnapshotBoundaryKeepsAcknowledgedRecords(t *testing.T) {
	dir := t.TempDir()
	clk := newRegClock()
	cfg := RegistryConfig{LeaseTTL: ttl, Clock: clk.Now, NoSync: true, SnapshotEvery: 1}
	reopen := func() *Registry {
		t.Helper()
		r, err := OpenRegistry(dir, cfg)
		if err != nil {
			t.Fatalf("OpenRegistry: %v", err)
		}
		return r
	}

	id, fence := mustCreate(t, reopen(), "p1", 1)
	r := reopen()
	rec, ok := r.Get(id)
	if !ok || rec.State != RecActive || rec.Fence != fence {
		t.Fatalf("Create acknowledged at the snapshot boundary lost across a crash: %+v ok=%v", rec, ok)
	}

	adopted, err := r.Acquire(id, "p2", "p2:80", 2)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	r = reopen()
	if rec, _ := r.Get(id); rec.Fence != adopted.Fence || rec.Owner != "p2" || rec.Adoptions != adopted.Adoptions {
		t.Fatalf("Acquire at the snapshot boundary lost: %+v, want owner p2 fence %d", rec, adopted.Fence)
	}

	// The recovered lease is expired, so p3 adopts, then finishes.
	adopted, err = r.Acquire(id, "p3", "p3:80", 3)
	if err != nil {
		t.Fatalf("re-adopt after recovery: %v", err)
	}
	if err := r.Finish(id, "p3", 3, adopted.Fence, RecDone, &JobResult{Converged: true, Energy: -3}, ""); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	r = reopen()
	defer r.Close()
	if rec, _ := r.Get(id); rec.State != RecDone || rec.Result == nil || rec.Result.Energy != -3 {
		t.Fatalf("Finish at the snapshot boundary lost: %+v", rec)
	}
	if id2, _ := mustCreate(t, r, "p1", 1); id2 == id {
		t.Fatalf("id allocator reused %s after boundary crashes", id)
	}
}

// TestRegistryGoldenBytes pins the on-disk format: this is a registry.wal
// written before internal/wal existed — [4B len][4B crc32][walRec JSON]
// per record: create j-000001, finish it, create j-000002 — and it must
// still replay to the same records.
func TestRegistryGoldenBytes(t *testing.T) {
	const golden = "\xb7\x00\x00\x00}R\xf0\xbd{\"rec\":{\"id\":\"j-000001\",\"spec\":{\"molecule\":\"H2\",\"basis\":\"sto-3g\"},\"ckpt\":\"/ckpt/j-000001.ckpt\",\"state\":\"active\",\"owner\":\"p1\",\"owner_addr\":\"p1:80\",\"owner_inc\":1,\"fence\":1},\"next_id\":1}" +
		"\xcc\x00\x00\x00l\xddl!{\"rec\":{\"id\":\"j-000001\",\"spec\":{\"molecule\":\"H2\",\"basis\":\"sto-3g\"},\"ckpt\":\"/ckpt/j-000001.ckpt\",\"state\":\"done\",\"fence\":1,\"result\":{\"converged\":true,\"energy\":-1.125,\"iterations\":7,\"retries\":0}},\"next_id\":1}" +
		"\x8a\x00\x00\x00&6\xc0/{\"rec\":{\"id\":\"j-000002\",\"spec\":{\"molecule\":\"CH4\"},\"state\":\"active\",\"owner\":\"p2\",\"owner_addr\":\"p2:80\",\"owner_inc\":2,\"fence\":1},\"next_id\":2}"
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, regWALFile), []byte(golden), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenRegistry(dir, RegistryConfig{LeaseTTL: ttl, NoSync: true})
	if err != nil {
		t.Fatalf("OpenRegistry over golden WAL: %v", err)
	}
	defer r.Close()
	done, ok := r.Get("j-000001")
	if !ok || done.State != RecDone || done.Result == nil || done.Result.Energy != -1.125 ||
		done.Result.Iterations != 7 || done.Ckpt != "/ckpt/j-000001.ckpt" || done.Spec.Basis != "sto-3g" {
		t.Fatalf("j-000001 = %+v ok=%v, want the finished H2 job", done, ok)
	}
	if !done.Submitted.IsZero() {
		t.Fatalf("j-000001 submitted %v, want zero in a record written without it", done.Submitted)
	}
	live, ok := r.Get("j-000002")
	if !ok || live.State != RecActive || live.Owner != "p2" || live.OwnerInc != 2 || live.Fence != 1 || live.Spec.Molecule != "CH4" {
		t.Fatalf("j-000002 = %+v ok=%v, want p2's active CH4 job", live, ok)
	}
	if id, _ := mustCreate(t, r, "p3", 3); id != "j-000003" {
		t.Fatalf("next id after golden replay = %s, want j-000003", id)
	}
}

// A registry request body past maxBody is refused with 413 before it is
// decoded, and the client reports the refusal as an error.
func TestRegistryRefusesOversizeBody(t *testing.T) {
	r, _ := newTestRegistry()
	srv := httptest.NewServer((&RegistryAPI{Reg: r}).Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/reg/v1/heartbeat", "application/json", strings.NewReader(oversize()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize heartbeat: HTTP %d, want 413", resp.StatusCode)
	}
	spec := JobSpec{Molecule: strings.Repeat("x", maxBody)}
	if _, _, err := NewRegistryClient(srv.URL, time.Second).Create(spec, "p1", "p1:80", 1, ""); err == nil {
		t.Fatal("oversize Create succeeded")
	}
	if st := r.Stats(); st.Jobs != 0 {
		t.Fatalf("%d jobs registered from oversize bodies", st.Jobs)
	}
}

// TestRegistryHTTPNonLeaseErrorIs500: a WAL/disk failure inside a fenced
// endpoint must surface as a 500 carrying its cause, not as
// 200 {ok:false, reason:""} — a client cannot be left unable to tell a
// disk failure from a lease race.
func TestRegistryHTTPNonLeaseErrorIs500(t *testing.T) {
	r, err := OpenRegistry(t.TempDir(), RegistryConfig{LeaseTTL: ttl, NoSync: true})
	if err != nil {
		t.Fatalf("OpenRegistry: %v", err)
	}
	defer r.Close()
	id, fence := mustCreate(t, r, "p1", 1)
	// The disk goes away: swap in a log whose file is closed, so the next
	// append fails, cannot be rolled back, and marks the journal damaged.
	dead, err := wal.Open(filepath.Join(t.TempDir(), regWALFile), true, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	dead.Close()
	r.mu.Lock()
	good := r.log
	r.log = dead
	r.mu.Unlock()

	srv := httptest.NewServer((&RegistryAPI{Reg: r}).Handler())
	defer srv.Close()
	c := NewRegistryClient(srv.URL, time.Second)

	if err := c.Finish(id, "p1", 1, fence, RecDone, nil, ""); err == nil || !strings.Contains(err.Error(), "HTTP 500") {
		t.Fatalf("Finish on a dead disk: err = %v, want HTTP 500", err)
	}
	err = c.Finish(id, "p1", 1, fence, RecDone, nil, "")
	if err == nil {
		t.Fatal("Finish over a damaged journal succeeded")
	}
	for _, sentinel := range []error{ErrUnknownJob, ErrLeaseHeld, ErrFenceLost, ErrTerminal} {
		if errors.Is(err, sentinel) {
			t.Fatalf("disk failure mapped to lease sentinel %v", sentinel)
		}
	}
	if !strings.Contains(err.Error(), "HTTP 500") || !strings.Contains(err.Error(), "damaged") {
		t.Fatalf("err = %v, want HTTP 500 carrying the journal-damage cause", err)
	}

	r.mu.Lock()
	r.log = good
	r.mu.Unlock()
	if err := c.Finish(id, "p1", 1, fence, RecDone, nil, ""); err != nil {
		t.Fatalf("Finish after repair: %v", err)
	}
}

// RegistryClient.Get reads a record only from a 200: a 404 is an unknown
// job, and any other status is an error, whatever its body — an
// overloaded registry's JSON error is not a record, and a terminal one
// least of all.
func TestRegistryClientGetRefusesNon200(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		code := http.StatusServiceUnavailable
		if strings.HasSuffix(r.URL.Path, "/gone") {
			code = http.StatusNotFound
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		w.Write([]byte(`{"error":"overloaded"}`))
	}))
	defer srv.Close()
	c := NewRegistryClient(srv.URL, time.Second)
	if rec, ok, err := c.Get("j-000001"); err == nil || ok {
		t.Fatalf("Get on a 503: rec %+v ok=%v err=%v, want an error", rec, ok, err)
	}
	if _, ok, err := c.Get("gone"); err != nil || ok {
		t.Fatalf("Get on a 404: ok=%v err=%v, want an unknown job", ok, err)
	}
}
