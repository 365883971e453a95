package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gtfock/internal/dist"
)

// Peer is what every hfd runs: one front end of the service tier (a lone
// hfd is a one-peer tier over a registry it hosts itself). N peers share
// one shard fleet and one job registry; each runs the scheduler locally,
// but a job is executed only under a registry lease that the peer
// acquired at submission (or by adoption) and renews by heartbeat.
// When a peer dies — SIGKILL, no drain — its heartbeats stop, its
// leases expire, and the surviving peers' adoption scanners acquire the
// orphaned jobs and resume them from their last SCF checkpoint through
// the FleetRunner's fresh-session path, so a dead attempt's accumulates
// can never merge with a live one (DESIGN.md §13).
//
// At-most-once execution does not depend on the failure detector being
// right: a falsely-expired owner keeps executing only until its next
// heartbeat, whose response lists the job as lost (the fence moved), at
// which point the peer cancels the run; and every registry write the
// superseded session attempts — renewal, terminal outcome — is rejected
// by the incarnation fence.
type Peer struct {
	cfg   PeerConfig
	reg   *RegistryClient
	srv   *Server
	inner Runner

	mu    sync.Mutex
	owned map[string]uint64 // job id -> lease fence

	synced atomic.Bool // first successful registry round-trip done
	dead   atomic.Bool // simulated SIGKILL: sever everything, report nothing

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// PeerConfig parameterizes a Peer.
type PeerConfig struct {
	// ID is the peer's stable identity in the registry (e.g. its job-API
	// host:port). Required.
	ID string
	// Incarnation fences this process lifetime; 0 derives one from the
	// clock, so a restarted peer never writes under its dead self's
	// incarnation.
	Incarnation uint64
	// Addr is the advertised job-API address other peers redirect
	// status/event queries to. Required.
	Addr string
	// Registry is the shared job registry. Required.
	Registry *RegistryClient
	// CheckpointDir is the directory the runner checkpoints into, recorded
	// in each job's registry record (JobRecord.Ckpt). What makes adoption
	// a resume instead of a recompute is that every peer's runner uses the
	// same directory, on storage they all read.
	CheckpointDir string
	// Server is the local scheduler's config. Runner must be set (the
	// FleetRunner); the Peer wraps it with its lease check and records
	// every terminal outcome in the registry before it is published.
	Server Config
	// HeartbeatEvery is the lease-renewal cadence. Zero derives a third
	// of the registry's ADVERTISED LeaseTTL (fetched from its stats, the
	// round trip NewPeer makes either way) —
	// never a locally-configured TTL, which on a joining peer can
	// disagree with the registry host's and make the peer heartbeat so
	// slowly its own leases falsely expire. Falls back to 500ms when the
	// registry cannot be reached at construction.
	HeartbeatEvery time.Duration
	// ScanEvery is the adoption scanner's cadence (default 1s). The first
	// scan does not wait for it: it runs as the peer starts.
	ScanEvery time.Duration
}

// NewPeer builds a peer and starts its heartbeat and adoption loops.
func NewPeer(cfg PeerConfig) (*Peer, error) {
	if cfg.ID == "" || cfg.Addr == "" {
		return nil, errors.New("serve: PeerConfig.ID and Addr are required")
	}
	if cfg.Registry == nil {
		return nil, errors.New("serve: PeerConfig.Registry is required")
	}
	if cfg.Server.Runner == nil {
		return nil, errors.New("serve: PeerConfig.Server.Runner is required")
	}
	if cfg.Incarnation == 0 {
		cfg.Incarnation = uint64(time.Now().UnixNano())
	}
	// One registry round trip before the peer exists: its success is the
	// first sync, so /readyz answers 200 from the first request after
	// NewPeer returns instead of racing the first scan. It also carries
	// the advertised lease TTL a derived cadence needs; the registry may
	// still be binding its listener (same-process startup), so that fetch
	// gets a few tries before falling back. With a cadence given, one try:
	// the scan loop syncs later if it failed.
	synced := false
	derive := cfg.HeartbeatEvery <= 0
	for attempt := 0; attempt < 5; attempt++ {
		st, err := cfg.Registry.Stats()
		if err == nil {
			synced = true
			if derive && st.LeaseTTL > 0 {
				cfg.HeartbeatEvery = st.LeaseTTL / 3
			}
			break
		}
		if !derive {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 500 * time.Millisecond
	}
	if cfg.ScanEvery <= 0 {
		cfg.ScanEvery = time.Second
	}
	p := &Peer{
		cfg:   cfg,
		reg:   cfg.Registry,
		inner: cfg.Server.Runner,
		owned: map[string]uint64{},
		stop:  make(chan struct{}),
	}
	p.synced.Store(synced)
	srv, err := NewServer(cfg.Server)
	if err != nil {
		return nil, err
	}
	// The server runs every job leased; it holds no job yet.
	srv.cfg.Runner = RunnerFunc(p.runLeased)
	srv.onTerminal = p.onTerminal
	p.srv = srv
	p.wg.Add(2)
	go p.heartbeatLoop()
	go p.scanLoop()
	return p, nil
}

// Server exposes the peer's local scheduler (HTTP API, stats).
func (p *Peer) Server() *Server { return p.srv }

// ID and Incarnation identify the peer in the registry.
func (p *Peer) ID() string          { return p.cfg.ID }
func (p *Peer) Incarnation() uint64 { return p.cfg.Incarnation }

// Ready implements the /readyz contract: true once a registry round-trip
// has succeeded (normally NewPeer's own, before it returns) and
// until the peer starts draining (or dies), so
// an external load balancer stops routing to a dying peer before its
// jobs are gone.
func (p *Peer) Ready() (bool, string) {
	switch {
	case p.dead.Load():
		return false, "peer killed"
	case !p.synced.Load():
		return false, "registry sync pending"
	case p.srv.Draining():
		return false, "draining"
	}
	return true, "ok"
}

// Submit registers the job in the shared registry (taking its lease),
// then admits it into the local scheduler. Registration-first means an
// accepted job is adoptable from the instant the client hears 202; a
// job the local scheduler then refuses is finished in the registry as
// rejected, so nothing dangles.
func (p *Peer) Submit(spec JobSpec) (*Job, error) {
	// Validate before registering: a malformed spec must not litter the
	// registry. The registry gets the normalised spec, so an adopter
	// defaults nothing differently.
	pj, err := p.srv.prepareJob(spec)
	if err != nil {
		return nil, fmt.Errorf("serve: bad job spec: %w", err)
	}
	id, fence, err := p.reg.Create(pj.spec, p.cfg.ID, p.cfg.Addr, p.cfg.Incarnation, p.cfg.CheckpointDir)
	if err != nil {
		return nil, &RejectError{Cause: RejectQueueFull,
			Msg: "serve: job registry unavailable: " + err.Error()}
	}
	p.mu.Lock()
	p.owned[id] = fence
	p.mu.Unlock()
	atomic.AddInt64(&p.srv.met.Submitted, 1)
	j, err := p.srv.admit(id, pj)
	if err != nil {
		p.mu.Lock()
		delete(p.owned, id)
		p.mu.Unlock()
		_, _ = p.reg.Finish(id, p.cfg.ID, p.cfg.Incarnation, fence, RecRejected, nil, err.Error(), 0)
		return nil, err
	}
	return j, nil
}

// runLeased wraps the inner runner: a job starts only while its lease is
// held. The heartbeat loop cancels the run through the scheduler the
// moment the registry says the lease moved, and onTerminal's fence check
// publishes whatever the run then returns as lost.
func (p *Peer) runLeased(ctx context.Context, j *Job) (*JobResult, error) {
	p.mu.Lock()
	_, held := p.owned[j.ID]
	p.mu.Unlock()
	if !held {
		return nil, fmt.Errorf("serve: job %s: %w", j.ID, ErrLeaseLost)
	}
	return p.inner.Run(ctx, j)
}

// onTerminal is the finish half of finish-then-publish: it records the
// job's terminal outcome in the registry, with seq, the seq of the
// terminal event, and drops the lease; the scheduler publishes the
// outcome to clients only after it returns, its terminal event stamped
// with the returned time: the registry's, so that the event a client
// reads from this peer is the one the record gives once no peer holds
// the job (API.recorded). nil means the registry holds a terminal record
// for the job (ours, or one it already had) — or no record at all, which
// only a non-durable registry that restarted can say, and then the local
// outcome is all there is (and the returned time zero).
// Otherwise — peer killed, fence lost (another peer owns the truth now
// and this outcome is correctly discarded), or the registry unreachable
// through the retry budget while the heartbeat kept the lease alive — the
// error wraps ErrLeaseLost (ErrKilled for a dead peer): clients see a
// retriable failure and follow the job to its adopter, never a terminal
// state nothing durable backs.
func (p *Peer) onTerminal(j *Job, state JobState, res *JobResult, jerr error, seq int) (time.Time, error) {
	if p.dead.Load() {
		return time.Time{}, fmt.Errorf("serve: job %s: %w", j.ID, ErrKilled)
	}
	p.mu.Lock()
	fence, held := p.owned[j.ID]
	p.mu.Unlock()
	if !held {
		return time.Time{}, fmt.Errorf("serve: job %s: %w", j.ID, ErrLeaseLost)
	}
	msg := ""
	if jerr != nil {
		msg = jerr.Error()
	}
	var at time.Time
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		// Terminal job states and registry states share their names.
		at, err = p.reg.Finish(j.ID, p.cfg.ID, p.cfg.Incarnation, fence, state.String(), res, msg, seq)
		if err == nil || errors.Is(err, ErrFenceLost) || errors.Is(err, ErrTerminal) || errors.Is(err, ErrUnknownJob) {
			break
		}
		select {
		case <-p.stop:
			return time.Time{}, fmt.Errorf("serve: job %s: peer stopping: %w", j.ID, ErrLeaseLost)
		case <-time.After(dist.Jitter(200 * time.Millisecond << uint(attempt))):
		}
	}
	p.mu.Lock()
	delete(p.owned, j.ID)
	p.mu.Unlock()
	if errors.Is(err, ErrTerminal) {
		// An earlier attempt landed with its reply lost, or another
		// session's outcome did: the record's stamp is this event's only
		// if the record is this outcome.
		if rec, ok, gerr := p.reg.Get(j.ID); gerr == nil && ok && rec.State == state.String() && rec.EventSeq == seq {
			at = rec.Finished
		}
		return at, nil
	}
	if err == nil || errors.Is(err, ErrUnknownJob) {
		return at, nil
	}
	return time.Time{}, fmt.Errorf("serve: job %s: outcome not recorded (%v): %w", j.ID, err, ErrLeaseLost)
}

// heartbeatLoop renews every held lease in one batch. Jobs the registry
// reports lost are canceled locally with ErrLeaseLost, running or
// queued: their fence moved, so continuing would only waste the executor
// — nothing they write can land anywhere.
func (p *Peer) heartbeatLoop() {
	defer p.wg.Done()
	t := time.NewTicker(p.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
		if p.dead.Load() {
			return
		}
		p.mu.Lock()
		held := make(map[string]uint64, len(p.owned))
		for id, fence := range p.owned {
			held[id] = fence
		}
		p.mu.Unlock()
		if len(held) == 0 {
			continue
		}
		lost, err := p.reg.Heartbeat(p.cfg.ID, p.cfg.Incarnation, held)
		if err != nil {
			continue // registry blip; next tick retries
		}
		p.synced.Store(true)
		p.mu.Lock()
		for _, id := range lost {
			delete(p.owned, id)
		}
		p.mu.Unlock()
		for _, id := range lost {
			p.srv.cancelJob(id, ErrLeaseLost)
		}
	}
}

// scanLoop is the adoption scanner. A pass leads each ScanEvery wait, so
// the first one runs as the peer starts: the peer is ready one registry
// round trip after NewPeer, and a restarted peer adopts orphans that
// have already expired without waiting out a tick.
func (p *Peer) scanLoop() {
	defer p.wg.Done()
	t := time.NewTicker(p.cfg.ScanEvery)
	defer t.Stop()
	for !p.dead.Load() {
		p.scan()
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
	}
}

// scan is one adoption pass: it polls the registry for orphaned jobs
// (lease expired or released) and adopts what fits locally. The headroom
// check happens BEFORE acquiring, so a peer never takes a lease it would
// immediately have to give back.
func (p *Peer) scan() {
	orphans, err := p.reg.Orphans()
	if err != nil {
		return
	}
	p.synced.Store(true)
	if p.srv.Draining() {
		return
	}
	for _, rec := range orphans {
		p.mu.Lock()
		_, mine := p.owned[rec.ID]
		p.mu.Unlock()
		if mine || p.srv.Job(rec.ID) != nil {
			continue
		}
		// The charge admission would refuse at submit, priced the same way.
		pj, err := p.srv.prepareJob(rec.Spec)
		if err != nil || !p.srv.fits(pj.size) {
			continue // no headroom; another peer or a later scan takes it
		}
		got, err := p.reg.Acquire(rec.ID, p.cfg.ID, p.cfg.Addr, p.cfg.Incarnation)
		if err != nil {
			continue // lost the race, or the job finished meanwhile
		}
		p.mu.Lock()
		p.owned[rec.ID] = got.Fence
		p.mu.Unlock()
		if _, err := p.srv.adopt(rec.ID, pj); err != nil {
			p.mu.Lock()
			delete(p.owned, rec.ID)
			p.mu.Unlock()
			p.reg.Release(p.cfg.ID, p.cfg.Incarnation, []string{rec.ID})
			continue
		}
		atomic.AddInt64(&p.srv.met.Adopted, 1)
	}
}

// Lookup resolves a job the local scheduler does not know, for the HTTP
// layer's redirect/proxy path: the owner's address for a 307, the
// registry record for a terminal job, or pending=true when the job is
// between owners (adoption in flight — the client should retry).
func (p *Peer) Lookup(id string) (ownerAddr string, rec *JobRecord, pending bool, err error) {
	got, ok, err := p.reg.Get(id)
	if err != nil {
		return "", nil, false, err
	}
	if !ok {
		return "", nil, false, nil
	}
	if got.Terminal() {
		return "", &got, false, nil
	}
	if got.Owner != "" && got.Owner != p.cfg.ID {
		return got.OwnerAddr, &got, false, nil
	}
	// Unowned (adoption pending), or owned by us but not yet visible
	// locally (submission in flight): retriable either way.
	return "", &got, true, nil
}

// Drain gracefully hands the peer's work back: the local scheduler
// checkpoints and parks everything, then every held lease is released so
// the surviving peers adopt the parked jobs on their next scan (within
// ScanEvery) instead of waiting out an expiry.
func (p *Peer) Drain(ctx context.Context) error {
	err := p.srv.Drain(ctx)
	p.mu.Lock()
	p.owned = map[string]uint64{}
	p.mu.Unlock()
	if _, rerr := p.reg.Release(p.cfg.ID, p.cfg.Incarnation, nil); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// Kill simulates SIGKILL for chaos runs: all registry traffic is severed
// FIRST (a dead process reports nothing — no finishes, no releases, no
// parks), then local execution is torn down abruptly. Recovery happens
// entirely on the other side: the leases expire and the survivors adopt.
func (p *Peer) Kill() {
	p.dead.Store(true)
	p.stopOnce.Do(func() { close(p.stop) })
	p.srv.Kill()
	p.wg.Wait()
}

// Close stops the peer's background loops without the drama (test
// teardown of surviving peers).
func (p *Peer) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
}
