package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"gtfock/internal/metrics"
	"gtfock/internal/wal"
)

// Registry is the HA service tier's durable job registry: the single
// source of truth for every job's spec, tenant, priority, checkpoint
// path, ownership lease and terminal outcome, shared by N hfd front-end
// peers (DESIGN.md §13).
//
// Ownership is a heartbeat-refreshed, incarnation-fenced lease modeled
// on the shard fleet's membership leases (internal/net/fleet.go): every
// ownership change bumps the record's fence, and every owner-side write
// (renew, finish) must present the owner id, incarnation AND fence it
// acquired under. A peer that lost its lease — because it crashed and
// was adopted, or because it stalled long enough for the failure
// detector to act — therefore cannot renew, cannot finish, and cannot
// resurrect: the fence rejects the loser's session.
//
// Expiry is deterministic: a lease is orphaned only once its expiry has
// passed by the registry's clock (injectable, so the unit suite drives
// it like fleet_test.go drives the fleet's), never on a missed packet.
//
// Durability sits on internal/wal: ownership changes and terminal
// outcomes are appended — and fsynced — to the write-ahead log before
// they take effect, with periodic atomic snapshots truncating the log.
// Heartbeat renewals are in-memory only: on a registry restart every
// lease is conservatively expired, so the surviving peers re-adopt; what
// must never survive a crash wrongly is the fence sequence, and that is
// journaled. Like the PR 6 fleet coordinator, the registry is one
// process — its crash pauses adoption but loses nothing, and a restart
// recovers from snapshot + journal.
type Registry struct {
	cfg RegistryConfig

	mu        sync.Mutex
	jobs      map[string]*JobRecord
	nextID    uint64
	dir       string   // durability directory ("" with log == nil)
	log       *wal.Log // nil: in-memory registry
	sinceSnap int      // journaled records since the last snapshot

	st RegistryStats // the counters (under mu); Stats adds the gauges
}

// RegistryConfig tunes a Registry.
type RegistryConfig struct {
	// LeaseTTL is how long a job stays owned without a heartbeat
	// (default 1.5s). Peers heartbeat at TTL/3.
	LeaseTTL time.Duration
	// SnapshotEvery bounds journal growth: a snapshot is written and the
	// journal truncated every N appends (default 256).
	SnapshotEvery int
	// Clock is the lease failure detector's time source (default
	// time.Now); injectable so expiry tests are deterministic.
	Clock func() time.Time
	// NoSync skips the per-append fsync (tests only).
	NoSync bool
	// Metrics is not read: the registry counts its lease expiries once,
	// in RegistryStats. The field remains for callers that still set it.
	Metrics *metrics.Serve
}

// Registry job states. Live scheduling detail (queued vs running vs
// parked) belongs to the owning peer and is reached by redirect; the
// registry tracks only what must survive that peer: active vs terminal.
const (
	RecActive   = "active"
	RecDone     = "done"
	RecFailed   = "failed"
	RecCanceled = "canceled"
	RecShed     = "shed"
	RecRejected = "rejected" // registered, then refused by local admission
)

// JobRecord is one job's registry entry.
type JobRecord struct {
	ID   string  `json:"id"`
	Spec JobSpec `json:"spec"`
	// Ckpt is the job's checkpoint path in the fleet-shared checkpoint
	// directory. An adopter's runner derives the same path from the id.
	Ckpt string `json:"ckpt,omitempty"`

	State string `json:"state"`
	// Submitted is when the registry created the record, by its clock;
	// zero in a record written before the field existed.
	Submitted time.Time `json:"submitted"`

	// Ownership lease. Fence increments on every acquisition; Owner and
	// OwnerInc identify the holder's identity and process incarnation.
	// LeaseExpiry is unix-ns by the registry clock and deliberately NOT
	// durable: a restarted registry expires everything.
	Owner       string `json:"owner,omitempty"`
	OwnerAddr   string `json:"owner_addr,omitempty"`
	OwnerInc    uint64 `json:"owner_inc,omitempty"`
	Fence       uint64 `json:"fence"`
	LeaseExpiry int64  `json:"-"`

	Adoptions int `json:"adoptions,omitempty"` // ownership changes after the first

	Result *JobResult `json:"result,omitempty"`
	Error  string     `json:"error,omitempty"`
	// Finished is when the registry recorded the terminal outcome, by its
	// clock, and EventSeq the seq of the terminal event the owner
	// published with it (FinishEvent): together, with State, Error and
	// Result, the event API.recorded serves once no peer holds the job.
	// Zero in a record written before the fields existed.
	Finished time.Time `json:"finished"`
	EventSeq int       `json:"event_seq"`
}

// Terminal reports whether the record reached a terminal state.
func (r *JobRecord) Terminal() bool { return r.State != RecActive }

// Registry lease errors. The HTTP layer maps them to stable reason
// strings and the client maps them back, so errors.Is works end-to-end.
var (
	ErrUnknownJob = errors.New("serve: registry: unknown job")
	ErrLeaseHeld  = errors.New("serve: registry: lease held by another peer")
	ErrFenceLost  = errors.New("serve: registry: lease fence lost")
	ErrTerminal   = errors.New("serve: registry: job already terminal")
)

const (
	regWALFile  = "registry.wal"
	regSnapFile = "registry.snapshot.json"
)

// walRec is one journal record: a full-record upsert plus the id
// allocator, so replay is order-insensitive per job and idempotent.
type walRec struct {
	Rec    *JobRecord `json:"rec"`
	NextID uint64     `json:"next_id"`
}

type regSnapshot struct {
	NextID uint64       `json:"next_id"`
	Jobs   []*JobRecord `json:"jobs"`
}

// NewRegistry builds an in-memory registry (no journal, no snapshot):
// the deterministic substrate for the fake-clock lease unit suite, and
// for callers that accept losing the registry with the process.
func NewRegistry(cfg RegistryConfig) *Registry {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 1500 * time.Millisecond
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 256
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Registry{cfg: cfg, jobs: map[string]*JobRecord{}}
}

// OpenRegistry opens (creating if needed) a registry rooted at dir,
// recovering snapshot + journal state. Recovered leases are expired:
// whoever owned a job before the registry restarted must re-acquire it
// through the normal adoption path.
func OpenRegistry(dir string, cfg RegistryConfig) (*Registry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := NewRegistry(cfg)
	r.dir = dir
	blob, err := os.ReadFile(filepath.Join(dir, regSnapFile))
	if err == nil {
		var snap regSnapshot
		if err := json.Unmarshal(blob, &snap); err != nil {
			return nil, fmt.Errorf("serve: registry snapshot: %w", err)
		}
		r.nextID = snap.NextID
		for _, rec := range snap.Jobs {
			r.jobs[rec.ID] = rec
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	// Records are full-record upserts, so replaying ones the snapshot
	// already covers (a crash between snapshot and log reset) is harmless.
	r.log, err = wal.Open(filepath.Join(dir, regWALFile), r.cfg.NoSync, func(payload []byte) error {
		var rec walRec
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		if rec.Rec != nil {
			r.jobs[rec.Rec.ID] = rec.Rec
		}
		if rec.NextID > r.nextID {
			r.nextID = rec.NextID
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// commitLocked makes one mutation durable, then visible: rec — the job's
// complete post-mutation record — is journaled first, installed in the
// job table only once that append is on disk, and only after that may a
// snapshot truncate the log. The order is what keeps an acknowledged
// record in at least one of the two files: a snapshot taken before the
// install would miss the record and then cut the only copy. On error
// nothing changed. Caller holds r.mu.
func (r *Registry) commitLocked(rec *JobRecord) error {
	if r.log == nil { // in-memory registry
		r.jobs[rec.ID] = rec
		return nil
	}
	body, err := json.Marshal(walRec{Rec: rec, NextID: r.nextID})
	if err != nil {
		return err
	}
	if err := r.log.Append(body); err != nil {
		return fmt.Errorf("serve: registry journal: %w", err)
	}
	r.jobs[rec.ID] = rec
	if r.sinceSnap++; r.sinceSnap >= r.cfg.SnapshotEvery {
		// Best effort: a failed periodic snapshot leaves the log in place
		// (still the full truth) and the next append retries.
		_ = r.snapshotLocked()
	}
	return nil
}

// snapshotLocked replaces the snapshot with the full current state and
// resets the log it now covers. The log is the only copy of the state
// until the snapshot is durable, so it is cut only after wal.WriteFile
// has returned.
func (r *Registry) snapshotLocked() error {
	snap := regSnapshot{NextID: r.nextID, Jobs: make([]*JobRecord, 0, len(r.jobs))}
	for _, rec := range r.jobs {
		snap.Jobs = append(snap.Jobs, rec)
	}
	blob, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	err = wal.WriteFile(filepath.Join(r.dir, regSnapFile), r.cfg.NoSync, func(w io.Writer) error {
		_, err := w.Write(blob)
		return err
	})
	if err != nil {
		return err
	}
	r.sinceSnap = 0
	return r.log.Reset()
}

// Close snapshots and releases the journal. A failed final snapshot is
// reported (the log still holds everything, so nothing is lost, but the
// next open replays instead of loading).
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.log == nil {
		return nil
	}
	err := errors.Join(r.snapshotLocked(), r.log.Close())
	r.log = nil
	return err
}

// Create registers a new job owned by the submitting peer: the accepting
// front end takes the lease immediately, so a job is covered from the
// moment it is accepted — queued jobs on a crashed peer are adoptable
// exactly like running ones. ckptDir is the fleet-shared checkpoint
// directory; the record's checkpoint path follows the FleetRunner
// convention <ckptDir>/<id>.ckpt. Returns the global job id and the
// fence the owner must present on every subsequent write.
func (r *Registry) Create(spec JobSpec, owner, ownerAddr string, inc uint64, ckptDir string) (string, uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	id := fmt.Sprintf("j-%06d", r.nextID)
	ckpt := ""
	if ckptDir != "" {
		ckpt = filepath.Join(ckptDir, id+".ckpt")
	}
	now := r.cfg.Clock()
	rec := &JobRecord{
		ID: id, Spec: spec, Ckpt: ckpt, State: RecActive, Submitted: now,
		Owner: owner, OwnerAddr: ownerAddr, OwnerInc: inc, Fence: 1,
		LeaseExpiry: now.Add(r.cfg.LeaseTTL).UnixNano(),
	}
	if err := r.commitLocked(rec); err != nil {
		r.nextID--
		return "", 0, err
	}
	r.st.Creates++
	return id, 1, nil
}

// Heartbeat renews every lease in held (job id -> fence) that the
// (owner, inc) pair still holds, and returns the ids it no longer does —
// the peer must stop executing those: another peer adopted them, and the
// fence will reject any write from the superseded session.
func (r *Registry) Heartbeat(owner string, inc uint64, held map[string]uint64) (lost []string) {
	now := r.cfg.Clock()
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, fence := range held {
		rec := r.jobs[id]
		if rec == nil || rec.Terminal() ||
			rec.Owner != owner || rec.OwnerInc != inc || rec.Fence != fence {
			lost = append(lost, id)
			continue
		}
		rec.LeaseExpiry = now.Add(r.cfg.LeaseTTL).UnixNano()
	}
	sort.Strings(lost)
	return lost
}

// Acquire takes an expired (or never-held) lease. Exactly one of N
// racing peers wins: acquisitions are serialized under the registry
// lock, the winner bumps the fence, and every later attempt sees a fresh
// unexpired lease and fails with ErrLeaseHeld.
func (r *Registry) Acquire(id, owner, ownerAddr string, inc uint64) (JobRecord, error) {
	now := r.cfg.Clock()
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := r.jobs[id]
	if rec == nil {
		return JobRecord{}, ErrUnknownJob
	}
	if rec.Terminal() {
		return JobRecord{}, ErrTerminal
	}
	if rec.Owner != "" && rec.LeaseExpiry > now.UnixNano() {
		return JobRecord{}, fmt.Errorf("%w (owner %s)", ErrLeaseHeld, rec.Owner)
	}
	expired := rec.Owner != ""
	next := *rec
	next.Owner, next.OwnerAddr, next.OwnerInc = owner, ownerAddr, inc
	next.Fence++
	if expired {
		next.Adoptions++
	}
	next.LeaseExpiry = now.Add(r.cfg.LeaseTTL).UnixNano()
	if err := r.commitLocked(&next); err != nil {
		return JobRecord{}, err
	}
	r.st.Acquires++
	if expired {
		r.st.Expiries++
	}
	return next, nil
}

// Release gives up ownership without a terminal outcome (graceful drain:
// the peer parked the job with its checkpoint on disk). The job becomes
// immediately adoptable. ids == nil releases everything (owner, inc)
// holds. Returns the released ids.
func (r *Registry) Release(owner string, inc uint64, ids []string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var released []string
	match := func(rec *JobRecord) bool {
		return !rec.Terminal() && rec.Owner == owner && rec.OwnerInc == inc
	}
	if ids == nil {
		for id, rec := range r.jobs {
			if match(rec) {
				ids = append(ids, id)
			}
		}
	}
	for _, id := range ids {
		rec := r.jobs[id]
		if rec == nil || !match(rec) {
			continue
		}
		next := *rec
		next.Owner, next.OwnerAddr, next.OwnerInc, next.LeaseExpiry = "", "", 0, 0
		if err := r.commitLocked(&next); err != nil {
			continue
		}
		released = append(released, id)
	}
	sort.Strings(released)
	return released
}

// Finish is FinishEvent for a caller that publishes no terminal event:
// the record's EventSeq is 0.
func (r *Registry) Finish(id, owner string, inc, fence uint64, state string, res *JobResult, errMsg string) error {
	_, err := r.FinishEvent(id, owner, inc, fence, state, res, errMsg, 0)
	return err
}

// FinishEvent records a terminal outcome, with seq, the seq of the
// terminal event its owner publishes, and returns the time it stamps the
// record with (Finished, by the registry clock), the time that event
// carries. Fence-checked: only the current lease holder's session may
// finish the job, so the loser of an adoption race cannot overwrite the
// winner's result — at-most-once outcome recording, on top of the
// fresh-session exactly-once accumulation.
func (r *Registry) FinishEvent(id, owner string, inc, fence uint64, state string, res *JobResult, errMsg string, seq int) (time.Time, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := r.jobs[id]
	if rec == nil {
		return time.Time{}, ErrUnknownJob
	}
	if rec.Terminal() {
		return time.Time{}, ErrTerminal
	}
	if rec.Owner != owner || rec.OwnerInc != inc || rec.Fence != fence {
		r.st.FenceRejects++
		return time.Time{}, ErrFenceLost
	}
	next := *rec
	next.State = state
	next.Result, next.Error = res, errMsg
	next.Finished, next.EventSeq = r.cfg.Clock(), seq
	next.Owner, next.OwnerAddr, next.OwnerInc, next.LeaseExpiry = "", "", 0, 0
	if err := r.commitLocked(&next); err != nil {
		return time.Time{}, err
	}
	r.st.Finishes++
	return next.Finished, nil
}

// Orphans lists active jobs with no live lease — unowned, or expired by
// the registry clock. This is what each peer's adoption scanner polls.
func (r *Registry) Orphans() []JobRecord {
	now := r.cfg.Clock().UnixNano()
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []JobRecord
	for _, rec := range r.jobs {
		if !rec.Terminal() && (rec.Owner == "" || rec.LeaseExpiry <= now) {
			out = append(out, *rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Get returns a copy of one record.
func (r *Registry) Get(id string) (JobRecord, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := r.jobs[id]
	if rec == nil {
		return JobRecord{}, false
	}
	return *rec, true
}

// List returns copies of all records, id-sorted.
func (r *Registry) List() []JobRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]JobRecord, 0, len(r.jobs))
	for _, rec := range r.jobs {
		out = append(out, *rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RegistryStats is the registry's counter set; Stats fills the gauges
// (jobs, active, owned) from its records. LeaseTTL advertises the
// registry's actual TTL so joining peers derive their heartbeat cadence
// from it instead of trusting their own flags.
type RegistryStats struct {
	Jobs         int           `json:"serve.registry_jobs"`
	Active       int           `json:"serve.registry_active"`
	Owned        int           `json:"serve.registry_owned"`
	Creates      int64         `json:"serve.registry_creates"`
	Acquires     int64         `json:"serve.registry_acquires"`
	Expiries     int64         `json:"serve.registry_lease_expiries"` // acquisitions that took over an expired lease
	Finishes     int64         `json:"serve.registry_finishes"`
	FenceRejects int64         `json:"serve.registry_fence_rejects"`
	LeaseTTL     time.Duration `json:"serve.registry_lease_ttl_ns"`
}

// Stats snapshots the registry.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.st
	st.Jobs, st.LeaseTTL = len(r.jobs), r.cfg.LeaseTTL
	for _, rec := range r.jobs {
		if !rec.Terminal() {
			st.Active++
			if rec.Owner != "" {
				st.Owned++
			}
		}
	}
	return st
}
