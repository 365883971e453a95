package netga

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gtfock/internal/dist"
	"gtfock/internal/metrics"
	"gtfock/internal/wal"
)

// session is the unit of shard state: one build's D and F arrays over one
// grid, the procs of it this shard hosts, both dedup generations, and the
// spill blobs. The arrays cover the full matrix for indexing simplicity;
// only hosted patches are ever addressed (requests for other owners are
// rejected, catching routing bugs instead of serving zeros). The owning
// Server's mu guards everything but the arrays; the patch locks, those.
type session struct {
	id   uint64 // 0: a pinned table before its first Hello
	grid *dist.Grid2D

	// Mutable on a pinned table: the fleet installs and drops blocks via
	// opMigrate/opSetGen, and a frozen block refuses writes (statusRetry)
	// while its state is in flight to a new owner.
	hosts  map[int]bool
	frozen map[int]bool

	arrays [numArrays][]float64
	locks  []sync.Mutex // per-proc patch locks

	seenCur  map[uint64]bool // applied Acc tokens since the last checkpoint
	seenPrev map[uint64]bool // tokens of the previous checkpoint generation
	ckptGen  uint64          // dedup eviction generation counter

	// Stored-ERI spill blobs: immutable cache legs keyed by Token, first
	// write wins. Deliberately volatile — not journaled, snapshotted, or
	// replicated — a blob lost to a restart or failover is a client-side
	// recompute, never a wrong answer.
	blobs     map[uint64][]float64
	blobBytes int64
}

func newSession(id uint64, grid *dist.Grid2D, procs []int) *session {
	ss := &session{
		id:       id,
		grid:     grid,
		hosts:    setOf(procs),
		frozen:   map[int]bool{},
		locks:    make([]sync.Mutex, grid.NumProcs()),
		seenCur:  map[uint64]bool{},
		seenPrev: map[uint64]bool{},
		blobs:    map[uint64][]float64{},
	}
	for a := range ss.arrays {
		ss.arrays[a] = make([]float64, grid.Rows*grid.Cols)
	}
	return ss
}

// Server is one shard of the network-backed global arrays: a table of
// sessions (session.go has its two policies) behind one framed accept/serve
// loop, one request dispatch and one patch-apply path. It is deliberately
// fence-oblivious about *worker* epochs: that fencing is enforced
// client-side in the driver process, where the lease ledger lives; the
// server's job is idempotent application (token dedup) so at-least-once
// delivery from retrying clients becomes exactly-once accumulation.
//
// Two orthogonal robustness layers sit on top of a pinned session
// (DESIGN.md §9):
//
//   - Durability: with WithDurability, every applied mutation is
//     journaled (write-ahead, fsynced before ack) and periodically
//     snapshotted, so a killed-and-restarted server replays to the state
//     of its crash — same arrays, same session, same dedup sets — and
//     the existing session resumes instead of resetting.
//   - Failover: with WithStandby, the server runs as a hot standby of a
//     primary, applying its replication stream (semi-sync: the primary
//     acks a client only after the standby acked the record). The fleet
//     coordinator promotes the standby of a member whose lease expired
//     with an epoch-fenced opPromote; *shard* epochs travel on every
//     request so a superseded primary can never serve or double-apply
//     after the fence.
type Server struct {
	connLoop // its mu is also this server's state mutex

	// The session table (under mu); session.go has the two policies.
	pin   *session            // pinned table: its one session
	table map[uint64]*session // admitting table: live sessions by id

	// Admitting table: this shard's place in SplitProcs, the session cap,
	// the byte budget (0 = unlimited). memUsed: live arrays + blobs (under mu).
	nservers, index, maxSessions int
	memBudget, memUsed           int64

	// Role and shard fence epoch: written under mu, read lock-free. pgen
	// is the placement generation this shard serves at (0 = static
	// placement, no fencing); it moves only forward.
	epoch   atomic.Uint64
	pgen    atomic.Uint64
	standby atomic.Bool

	// Durability state (jr == nil: volatile server).
	dir           string
	snapshotEvery int
	nosync        bool
	jr            *wal.Log
	jbuf          []byte // reusable journal-record encode buffer (under mu)
	seq           uint64 // last assigned record sequence number (under mu)
	sinceSnap     int    // journaled records since the last snapshot (under mu)
	applyWG       sync.WaitGroup

	// Replication state.
	primaryAddr string      // non-empty: start as a standby of this primary
	sub         *subscriber // connected downstream standby (under mu)
	hadStandby  bool        // a standby has subscribed at least once (under mu)
	stdbyStop   chan struct{}
	stdbyConn   net.Conn // standby side: live subscription conn (under mu)

	// st holds the counters, updated with atomics where the event
	// happens; Stats adds the state-derived gauges.
	st ServerStats
}

// ServerOption configures a Server at construction.
type ServerOption func(*Server)

// WithDurability enables the write-ahead journal and periodic snapshots
// in dir (created if missing). snapshotEvery is the number of journaled
// records between snapshots; 0 picks a default, negative disables
// snapshots (journal-only).
func WithDurability(dir string, snapshotEvery int) ServerOption {
	return func(s *Server) {
		s.dir = dir
		if snapshotEvery == 0 {
			snapshotEvery = 4096
		}
		s.snapshotEvery = snapshotEvery
	}
}

// WithNoSync skips fsync on journal appends and snapshots. Only for
// tests: it trades crash-durability on a real power loss for speed, while
// keeping the in-process kill/restart semantics exact.
func WithNoSync() ServerOption {
	return func(s *Server) { s.nosync = true }
}

// WithStandby starts the server as a hot standby replicating from the
// primary at addr. A standby rejects client operations (statusRetry)
// until promoted by an epoch-fenced opPromote.
func WithStandby(addr string) ServerOption {
	return func(s *Server) {
		s.primaryAddr = addr
		s.standby.Store(true)
	}
}

// ServerStats is the shard's counter set. Stats fills the gauges
// (sessions open, memory, epoch, role, placement, hosted blocks, live
// tokens, blob bytes) from the server's state; the rest are counters.
type ServerStats struct {
	Requests   int64 `json:"net.requests"`
	AccApplied int64 `json:"net.acc_applied"`
	AccDups    int64 `json:"net.acc_dups"` // retried/duplicated Accs absorbed by token dedup
	Sessions   int64 `json:"net.sessions"` // sessions installed (pinned) or admitted
	Hellos     int64 `json:"net.hellos"`   // Hello requests answered, admitted or not
	Rejects    int64 `json:"net.rejects"`  // statusErr responses sent

	// Session table: sessions released by Bye, Hellos and blobs refused by
	// the session cap or the resident-memory budget, and the resident
	// array + blob bytes of live sessions against that budget.
	SessionsOpen   int   `json:"net.sessions_open,omitempty"`
	SessionsClosed int64 `json:"net.sessions_closed,omitempty"`
	SessionRejects int64 `json:"net.session_rejects,omitempty"`
	MemUsed        int64 `json:"net.mem_used,omitempty"`
	MemBudget      int64 `json:"net.mem_budget,omitempty"`

	Epoch   uint64 `json:"net.epoch"`             // shard fence epoch
	Standby bool   `json:"net.standby,omitempty"` // still a standby (not promoted)

	JournalRecords int64 `json:"net.journal_records,omitempty"` // records appended this incarnation
	Replayed       int64 `json:"net.replayed,omitempty"`        // records replayed at recovery
	Snapshots      int64 `json:"net.snapshots,omitempty"`
	Promotions     int64 `json:"net.promotions,omitempty"`
	Checkpoints    int64 `json:"net.checkpoints,omitempty"` // dedup eviction generations advanced
	TokensLive     int64 `json:"net.tokens_live"`           // dedup tokens currently held
	TokensEvicted  int64 `json:"net.tokens_evicted,omitempty"`
	FencedOps      int64 `json:"net.fenced_ops,omitempty"` // ops rejected by the shard-epoch fence
	ReplSent       int64 `json:"net.repl_sent,omitempty"`  // records forwarded to the standby
	ReplApplied    int64 `json:"net.repl_applied,omitempty"`

	PGen            uint64 `json:"net.pgen,omitempty"`             // placement generation (0 = static)
	HostedProcs     int    `json:"net.hosted_procs"`               // blocks currently hosted
	FrozenProcs     int    `json:"net.frozen_procs,omitempty"`     // blocks frozen for out-migration
	Freezes         int64  `json:"net.freezes,omitempty"`          // opFreeze cutovers started here
	BlocksIn        int64  `json:"net.blocks_in,omitempty"`        // blocks installed by opMigrate
	BlocksOut       int64  `json:"net.blocks_out,omitempty"`       // blocks dropped after cutover
	PlacementFenced int64  `json:"net.placement_fenced,omitempty"` // ops rejected by the placement-gen fence

	// Stored-ERI spill blob counters (cache tier; volatile by design).
	BlobsStored int64 `json:"net.blobs_stored,omitempty"`
	BlobBytes   int64 `json:"net.blob_bytes,omitempty"`
	BlobHits    int64 `json:"net.blob_hits,omitempty"`
	BlobMisses  int64 `json:"net.blob_misses,omitempty"`
}

func newServer(opts []ServerOption) *Server {
	s := &Server{}
	s.epoch.Store(1)
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// NewServer creates a server whose table is pinned to one session over
// grid, hosting the blocks of the given procs.
func NewServer(grid *dist.Grid2D, procs []int, opts ...ServerOption) *Server {
	s := newServer(opts)
	s.pin = newSession(0, grid, procs)
	s.memUsed = sessionBytes(grid)
	return s
}

// Start recovers durable state (if configured), listens on addr (e.g.
// "127.0.0.1:0"), and serves in background goroutines until Close,
// Shutdown or Kill. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	if s.dir != "" {
		if err := s.recover(); err != nil {
			return "", err
		}
	}
	bound, err := s.listen(addr, s.serve)
	if err != nil {
		if s.jr != nil {
			s.jr.Close()
			s.jr = nil
		}
		return "", err
	}
	if s.primaryAddr != "" {
		s.stdbyStop = make(chan struct{})
		s.wg.Add(1)
		go s.runStandby(s.stdbyStop)
	}
	return bound, nil
}

// recover loads the latest snapshot and replays the journal suffix,
// reconstructing the exact pre-crash state, then opens the journal for
// appending. Called by Start before the listener binds.
func (s *Server) recover() error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	snap, err := loadSnapshot(s.dir)
	if err != nil {
		return err
	}
	if snap != nil {
		// The snapshot records the true hosted/frozen sets at save time;
		// they supersede the constructor's static assignment.
		if err := s.restoreLocked(snap); err != nil {
			return err
		}
		s.standby.Store(snap.Standby && s.primaryAddr != "")
	}
	base := s.seq
	s.jr, err = wal.Open(filepath.Join(s.dir, journalFile), s.nosync, func(payload []byte) error {
		var req request
		seq, err := decodeRecord(payload, &req)
		if err != nil {
			return err
		}
		if seq <= base {
			return nil // covered by the snapshot
		}
		if err := s.applyRecord(&req); err != nil {
			return err
		}
		s.seq = seq
		atomic.AddInt64(&s.st.Replayed, 1)
		return nil
	})
	return err
}

// restoreLocked overwrites the pinned session, the fence state and the
// journal position with a snapshot's (a recovery, or a standby's state
// sync). Caller holds s.mu or is the only goroutine.
func (s *Server) restoreLocked(st *snapshotState) error {
	ss := s.pin
	if st.Rows != ss.grid.Rows || st.Cols != ss.grid.Cols {
		return fmt.Errorf("netga: snapshot geometry %dx%d, server grid %dx%d",
			st.Rows, st.Cols, ss.grid.Rows, ss.grid.Cols)
	}
	ss.id = st.Session
	s.epoch.Store(st.Epoch)
	s.pgen.Store(st.PGen)
	s.seq = st.Seq
	ss.ckptGen = st.Checkpoint
	ss.seenCur = setOf(st.SeenCur)
	ss.seenPrev = setOf(st.SeenPrev)
	ss.hosts = setOf(st.Hosts)
	ss.frozen = setOf(st.Frozen)
	for p := range ss.locks {
		ss.locks[p].Lock()
	}
	for a := range ss.arrays {
		copy(ss.arrays[a], st.Arrays[a])
	}
	for p := range ss.locks {
		ss.locks[p].Unlock()
	}
	return nil
}

// setOf and keysOf convert the proc and token sets between their in-memory
// map form and the slices snapshots and migrations carry.
func setOf[K comparable](keys []K) map[K]bool {
	m := make(map[K]bool, len(keys))
	for _, k := range keys {
		m[k] = true
	}
	return m
}

func keysOf[K comparable](m map[K]bool) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// applyRecord applies one journal/replication record to the pinned
// session. It does NOT journal (recovery replays existing records; the
// standby journals before applying). Token dedup is re-checked so replay
// across a snapshot boundary and duplicated stream delivery stay
// exactly-once.
func (s *Server) applyRecord(req *request) error {
	ss := s.pin
	switch req.Op {
	case opPut, opAcc:
		p, err := ss.patch(req)
		if err != nil {
			return err
		}
		if req.Op == opAcc && req.Token != 0 {
			s.mu.Lock()
			dup := ss.seen(req.Token)
			if !dup {
				ss.seenCur[req.Token] = true
			}
			s.mu.Unlock()
			if dup {
				return nil
			}
		}
		ss.apply(req, p)
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch req.Op {
	case opHello:
		s.resetLocked(ss, req.Session)
	case opCheckpoint:
		s.rotateDedupLocked(ss)
	case opPromote:
		s.epoch.Store(req.SEpoch)
		s.standby.Store(false)
	case opFreeze:
		if p := int(req.Proc); p >= 0 && ss.hosts[p] {
			ss.frozen[p] = true
		}
	case opMigrate:
		s.applyMigrateLocked(req)
	case opSetGen:
		s.applySetGenLocked(req)
	}
	return nil
}

// resetLocked makes ss the empty state of session id: arrays zeroed, dedup
// generations and spill blobs dropped (a new session is a new build; its
// store re-spills). The hosted and frozen sets stay: placement outlives a
// build. Caller holds s.mu; the patch locks are taken so a concurrent Get
// never sees a torn reset.
func (s *Server) resetLocked(ss *session, id uint64) {
	ss.id = id
	ss.seenCur = map[uint64]bool{}
	ss.seenPrev = map[uint64]bool{}
	for p := range ss.locks {
		ss.locks[p].Lock()
	}
	for a := range ss.arrays {
		clear(ss.arrays[a])
	}
	for p := range ss.locks {
		ss.locks[p].Unlock()
	}
	s.memUsed -= ss.blobBytes
	ss.blobs = map[uint64][]float64{}
	ss.blobBytes = 0
}

// seen reports whether an Acc token is in either dedup generation. Caller
// holds the server's mu.
func (ss *session) seen(token uint64) bool {
	return ss.seenCur[token] || ss.seenPrev[token]
}

// rotateDedupLocked advances a session's dedup eviction generation: the
// previous generation's tokens are evicted, the current one becomes
// previous. Tokens are therefore only dropped after a full checkpoint
// interval — never mid-epoch — so any retry of an op that completed
// before the checkpoint still hits its token.
func (s *Server) rotateDedupLocked(ss *session) {
	atomic.AddInt64(&s.st.TokensEvicted, int64(len(ss.seenPrev)))
	ss.seenPrev = ss.seenCur
	ss.seenCur = map[uint64]bool{}
	ss.ckptGen++
	atomic.AddInt64(&s.st.Checkpoints, 1)
}

// patch validates the patch of a Get/Put/Acc against the session's grid
// and returns it with its owning proc. The client decomposes regions per
// owner, so a request patch must lie within exactly one block.
func (ss *session) patch(req *request) (dist.Patch, error) {
	if int(req.Array) >= numArrays {
		return dist.Patch{}, fmt.Errorf("netga: bad array id %d", req.Array)
	}
	g := ss.grid
	r0, r1, c0, c1 := int(req.R0), int(req.R1), int(req.C0), int(req.C1)
	if r0 < 0 || r1 > g.Rows || c0 < 0 || c1 > g.Cols || r0 >= r1 || c0 >= c1 {
		return dist.Patch{}, fmt.Errorf("netga: bad patch [%d,%d)x[%d,%d)", r0, r1, c0, c1)
	}
	ps := g.Patches(r0, r1, c0, c1)
	if len(ps) != 1 {
		return dist.Patch{}, fmt.Errorf("netga: patch spans %d owners, want 1", len(ps))
	}
	if op := req.Op; (op == opPut || op == opAcc) && len(req.Data) != ps[0].Elems() {
		return dist.Patch{}, fmt.Errorf("netga: payload %d values, want %d", len(req.Data), ps[0].Elems())
	}
	return ps[0], nil
}

// read copies a validated patch out under its owner's patch lock.
func (ss *session) read(array uint8, p dist.Patch) []float64 {
	w, cols := p.C1-p.C0, ss.grid.Cols
	data := make([]float64, p.Elems())
	ss.locks[p.Proc].Lock()
	for r := p.R0; r < p.R1; r++ {
		copy(data[(r-p.R0)*w:(r-p.R0)*w+w], ss.arrays[array][r*cols+p.C0:r*cols+p.C1])
	}
	ss.locks[p.Proc].Unlock()
	return data
}

// apply lands one validated Put/Acc payload in the arrays under its
// owner's patch lock.
func (ss *session) apply(req *request, p dist.Patch) {
	w, cols := p.C1-p.C0, ss.grid.Cols
	ss.locks[p.Proc].Lock()
	defer ss.locks[p.Proc].Unlock()
	for r := p.R0; r < p.R1; r++ {
		dst := ss.arrays[req.Array][r*cols+p.C0 : r*cols+p.C1]
		row := req.Data[(r-p.R0)*w : (r-p.R0)*w+w]
		if req.Op == opPut {
			copy(dst, row)
		} else {
			for i := range dst {
				dst[i] += req.Alpha * row[i]
			}
		}
	}
}

// errReplLost marks a mutation that could not be confirmed on the
// standby: either the semi-sync forward failed, or the subscriber is gone
// and has not re-attached. The op must NOT be acknowledged statusOK —
// if the disconnect was really a promotion (stall, partial partition),
// an ack here would be an accumulation that exists only on this
// superseded primary, silently missing from the shard the build reads.
// Callers answer statusRetry instead: the record (if journaled) is
// idempotent under its token, so the client retrying against whichever
// server the router now points at is safe in every interleaving.
var errReplLost = errors.New("netga: standby replication lost")

// persistLocked makes one mutation durable and replicated: it assigns the
// next sequence number, appends to the journal (fsynced), and — when
// replicate is set and a standby is subscribed — forwards the record and
// waits for the standby's ack (semi-sync). Caller holds s.mu, which is
// what serializes the journal and the stream into one total order. A
// journal failure rejects the op (never applied, never acked). A
// replication failure drops the subscriber and fails with errReplLost;
// once a standby has ever been attached, the primary keeps refusing
// replicated ops (statusRetry, before journaling anything) until a
// subscriber re-attaches, because it cannot distinguish a crashed standby
// from having been superseded by an epoch-fenced promotion it never saw.
// This is the availability price of the failover option: a primary whose
// standby is gone for good blocks writes instead of diverging. A server
// with neither journal nor standby (every admitting table) only counts.
func (s *Server) persistLocked(req *request, replicate bool) error {
	if replicate && s.hadStandby && s.sub == nil {
		return errReplLost
	}
	s.seq++
	if s.jr != nil {
		if err := s.journalLocked(s.seq, req); err != nil {
			s.seq--
			return fmt.Errorf("netga: journal append: %w", err)
		}
	}
	if replicate && s.sub != nil {
		if err := s.sub.forward(s.seq, req); err != nil {
			s.dropSubscriberLocked()
			return errReplLost
		}
		atomic.AddInt64(&s.st.ReplSent, 1)
	}
	return nil
}

// persistFailed answers a request whose mutation persistLocked refused:
// a lost standby is retryable (not acked, token not marked — the client
// retries the same token once the standby re-attaches or the router
// reroutes), a journal failure is not.
func persistFailed(reqID uint64, err error) response {
	if errors.Is(err, errReplLost) {
		return retryResp(reqID, "%v", err)
	}
	return errResp(reqID, "%v", err)
}

// journalLocked appends one record — sequence number, then the encoded
// request — to the journal; it is durable on return. Caller holds s.mu
// and has checked s.jr != nil.
func (s *Server) journalLocked(seq uint64, req *request) error {
	s.jbuf = encodeRecord(s.jbuf, seq, req)
	if err := s.jr.Append(s.jbuf); err != nil {
		return err
	}
	atomic.AddInt64(&s.st.JournalRecords, 1)
	s.sinceSnap++
	return nil
}

// maybeSnapshot takes a snapshot when enough records accumulated since
// the last one, then truncates the journal it covers.
func (s *Server) maybeSnapshot() {
	if s.jr == nil || s.snapshotEvery <= 0 {
		return
	}
	s.mu.Lock()
	if s.sinceSnap >= s.snapshotEvery {
		s.snapshotLocked()
	}
	s.mu.Unlock()
}

// snapshotLocked writes an atomic snapshot at the current journal
// position and truncates the journal. Caller holds s.mu; in-flight array
// applies are drained first so the arrays match the sequence number.
func (s *Server) snapshotLocked() {
	if s.jr == nil {
		return
	}
	s.applyWG.Wait()
	// A failed save keeps journaling (the next threshold retries). A
	// failed reset is tolerable here (unlike installState): every record
	// left behind has seq <= snapshot.Seq and replay skips it; the journal
	// marks itself damaged if it cannot be truncated safely.
	_ = s.checkpointLocked(s.snapshotStateLocked())
}

// checkpointLocked makes st the durable snapshot, then resets the
// journal it covers. Caller holds s.mu and has checked s.jr != nil.
func (s *Server) checkpointLocked(st *snapshotState) error {
	if err := saveSnapshot(s.dir, st, s.nosync); err != nil {
		return err
	}
	s.sinceSnap = 0
	atomic.AddInt64(&s.st.Snapshots, 1)
	return s.jr.Reset()
}

// snapshotStateLocked captures the pinned session and the shard's fence
// state. Caller holds s.mu and has drained applyWG.
func (s *Server) snapshotStateLocked() *snapshotState {
	ss := s.pin
	st := &snapshotState{
		Version: snapshotVersion,
		Session: ss.id,
		Epoch:   s.epoch.Load(),
		PGen:    s.pgen.Load(),
		Standby: s.standby.Load(),
		Rows:    ss.grid.Rows, Cols: ss.grid.Cols,
		Seq:        s.seq,
		SeenCur:    keysOf(ss.seenCur),
		SeenPrev:   keysOf(ss.seenPrev),
		Checkpoint: ss.ckptGen,
		Hosts:      keysOf(ss.hosts),
		Frozen:     keysOf(ss.frozen),
	}
	for a := range ss.arrays {
		st.Arrays[a] = append([]float64(nil), ss.arrays[a]...)
	}
	return st
}

// Close abruptly stops the server: listener and conns are torn down and
// goroutines joined, but no final snapshot is taken — exactly the state a
// SIGKILL leaves behind. A durable server recovers from the journal; any
// other forgets its sessions, so clients see "unknown session" after a
// restart and the serving layer retries jobs under fresh ones.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.closeLocked() {
		s.mu.Unlock()
		return
	}
	s.dropSubscriberLocked()
	if s.stdbyConn != nil {
		s.stdbyConn.Close()
	}
	stop := s.stdbyStop
	s.stdbyStop = nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
	}
	s.join()
	s.mu.Lock()
	if s.jr != nil {
		s.jr.Close()
		s.jr = nil
	}
	s.mu.Unlock()
}

// Kill is Close under its chaos-test name: a SIGKILL stand-in. Anything
// journaled survives; everything else is lost.
func (s *Server) Kill() { s.Close() }

// Shutdown is the graceful counterpart for rolling restarts: it stops
// accepting, drains in-flight requests (bounded by wait), flushes a final
// snapshot so the next start needs no journal replay, and closes every
// listener and conn. Safe to call from a signal handler.
func (s *Server) Shutdown(wait time.Duration) {
	if !s.drain(wait) {
		return
	}
	s.mu.Lock()
	s.snapshotLocked()
	s.mu.Unlock()
	s.Close()
}

// Stats snapshots the server counters and gauges.
func (s *Server) Stats() ServerStats {
	st := metrics.Load(&s.st)
	st.MemBudget = s.memBudget
	st.Epoch, st.Standby, st.PGen = s.epoch.Load(), s.standby.Load(), s.pgen.Load()
	add := func(ss *session) {
		if ss.id != 0 {
			st.SessionsOpen++
		}
		st.TokensLive += int64(len(ss.seenCur) + len(ss.seenPrev))
		st.HostedProcs += len(ss.hosts)
		st.FrozenProcs += len(ss.frozen)
		st.BlobBytes += ss.blobBytes
	}
	s.mu.Lock()
	st.MemUsed = s.memUsed
	if s.pin != nil {
		add(s.pin)
	}
	for _, ss := range s.table {
		add(ss)
	}
	s.mu.Unlock()
	return st
}

// serve answers one frame for the conn loop: a subscription hijacks the
// conn, everything else is dispatched by handle, and every answer carries
// the shard's fence epoch and placement generation.
func (s *Server) serve(fc *frameConn, req *request, bad error) (resp response, hijacked bool) {
	switch {
	case bad != nil:
		resp = errResp(0, "%v", bad)
	case req.Op == opSubscribe && s.pin != nil:
		// On success the conn becomes a replication stream owned by the
		// subscription; the loop hands it over.
		if resp, hijacked = s.serveSubscribe(fc, req); hijacked {
			return resp, true
		}
	default:
		resp = s.handle(req)
	}
	resp.SEpoch = s.epoch.Load()
	resp.PGen = s.pgen.Load()
	if resp.Status == statusErr {
		atomic.AddInt64(&s.st.Rejects, 1)
	}
	return resp, false
}

func errResp(reqID uint64, format string, args ...any) response {
	return response{Status: statusErr, ReqID: reqID, Msg: fmt.Sprintf(format, args...)}
}

// retryResp is a transient rejection: the client should resync its view
// (the response carries the server's shard epoch) and retry, not abort.
func retryResp(reqID uint64, format string, args ...any) response {
	return response{Status: statusRetry, ReqID: reqID, Msg: fmt.Sprintf(format, args...)}
}

// handle is the one request dispatch. Promotion and the fleet's placement
// ops act on the pinned session and are refused without one; a standby
// answers liveness probes, goodbyes and its promotion and nothing else;
// data ops pass the shard-epoch and placement-generation fences, then
// address one live session.
func (s *Server) handle(req *request) response {
	atomic.AddInt64(&s.st.Requests, 1)
	switch req.Op {
	case opPing:
		return response{ReqID: req.ReqID}
	case opBye:
		return s.bye(req)
	case opPromote, opSubscribe, opFreeze, opMigrate, opSetGen:
		if s.pin == nil {
			return errResp(req.ReqID, "netga: op %d not supported in multi-session mode", req.Op)
		}
	}
	if req.Op == opPromote {
		return s.promote(req)
	}
	if s.standby.Load() {
		return retryResp(req.ReqID, "netga: standby of %s: not promoted", s.primaryAddr)
	}
	switch req.Op {
	case opHello:
		atomic.AddInt64(&s.st.Hellos, 1)
		return s.hello(req)
	case opCheckpoint:
		return s.checkpoint(req)
	case opFreeze:
		return s.freezeBlock(req)
	case opMigrate:
		return s.migrateIn(req)
	case opSetGen:
		return s.setGen(req)
	}

	if cur := s.epoch.Load(); req.SEpoch != 0 && req.SEpoch != cur {
		atomic.AddInt64(&s.st.FencedOps, 1)
		if req.SEpoch > cur {
			return retryResp(req.ReqID, "netga: shard superseded (epoch %d > %d)", req.SEpoch, cur)
		}
		return retryResp(req.ReqID, "netga: stale shard epoch %d (now %d)", req.SEpoch, cur)
	}
	// Placement fence, adopt-forward: a request routed by a NEWER map than
	// this shard has seen proves that map exists (the fleet only hands out
	// published generations), so the shard adopts it; a request routed by a
	// SUPERSEDED map is refused so the client refetches the view. Requests
	// with PGen 0 come from static-placement clients and bypass the fence.
	if req.PGen != 0 {
		for {
			cur := s.pgen.Load()
			if req.PGen < cur {
				atomic.AddInt64(&s.st.PlacementFenced, 1)
				return retryResp(req.ReqID, "netga: stale placement gen %d (now %d)", req.PGen, cur)
			}
			if req.PGen == cur || s.pgen.CompareAndSwap(cur, req.PGen) {
				break
			}
		}
	}
	s.mu.Lock()
	ss := s.sessionLocked(req.Session)
	s.mu.Unlock()
	if ss == nil {
		// Deterministic rejection: a restarted volatile shard (or an ended
		// session) makes the client's build fail cleanly; the serving layer
		// retries the job from its checkpoint under a fresh session.
		return errResp(req.ReqID, "netga: unknown session %d", req.Session)
	}
	switch req.Op {
	case opPutBlob:
		return s.putBlob(req, ss)
	case opGetBlob:
		return s.getBlob(req, ss)
	case opGet, opPut, opAcc:
		p, err := ss.patch(req)
		if err != nil {
			return errResp(req.ReqID, "%v", err)
		}
		if req.Op != opGet {
			return s.applyOp(req, ss, p)
		}
		s.mu.Lock()
		hosted := ss.hosts[p.Proc]
		s.mu.Unlock()
		if !hosted {
			return s.notHostedResp(req, p.Proc)
		}
		return response{ReqID: req.ReqID, Data: ss.read(req.Array, p)}
	}
	return errResp(req.ReqID, "netga: unknown op %d", req.Op)
}

// putBlob stores a session's stored-ERI spill blob first-writer-wins:
// re-puts from re-executed tasks carry bit-identical data (the batch is
// deterministic in the geometry), so duplicates are dropped without
// comparison. Its bytes are charged to the memory budget (best effort:
// over budget the blob is refused and the client's store falls back to
// drop/recompute). The write path stays off the journal and the
// replication stream by design — blobs are cache legs, and losing them
// costs a recompute, not correctness (see DESIGN.md §11).
func (s *Server) putBlob(req *request, ss *session) response {
	if req.Token == 0 {
		return errResp(req.ReqID, "netga: blob key must be nonzero")
	}
	if len(req.Data) == 0 {
		return errResp(req.ReqID, "netga: empty blob")
	}
	add := int64(8 * len(req.Data))
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := ss.blobs[req.Token]; ok {
		return response{ReqID: req.ReqID}
	}
	if s.memBudget > 0 && s.memUsed+add > s.memBudget {
		atomic.AddInt64(&s.st.SessionRejects, 1)
		return errResp(req.ReqID, "netga: blob over memory budget")
	}
	ss.blobs[req.Token] = append([]float64(nil), req.Data...)
	ss.blobBytes += add
	s.memUsed += add
	atomic.AddInt64(&s.st.BlobsStored, 1)
	return response{ReqID: req.ReqID}
}

// getBlob serves a spill blob, or a statusErr tagged blobMissMsg the
// client maps to a cache miss. The returned slice is shared — blobs are
// immutable once stored, and the encoder only reads it.
func (s *Server) getBlob(req *request, ss *session) response {
	s.mu.Lock()
	data := ss.blobs[req.Token]
	s.mu.Unlock()
	if data == nil {
		atomic.AddInt64(&s.st.BlobMisses, 1)
		return errResp(req.ReqID, blobMissMsg)
	}
	atomic.AddInt64(&s.st.BlobHits, 1)
	return response{ReqID: req.ReqID, Data: data}
}

// notHostedResp answers a request for a block this shard does not host.
// Under elastic placement that is a routing race (the block moved, or the
// map the client routed by is mid-cutover) and retryable after a view
// refresh; under static placement it is a routing bug and fatal.
func (s *Server) notHostedResp(req *request, owner int) response {
	if s.pgen.Load() != 0 || req.PGen != 0 {
		atomic.AddInt64(&s.st.PlacementFenced, 1)
		return retryResp(req.ReqID, "netga: proc %d not hosted here (placement moved)", owner)
	}
	return errResp(req.ReqID, "netga: proc %d not hosted here", owner)
}

// applyOp is the one write path of Put and Acc: ownership, freeze and
// dedup checks, journal append and standby forward under s.mu
// (write-ahead: the record is durable and replicated before the token
// becomes visible or the client is acked), then the array mutation under
// the owner's patch lock.
func (s *Server) applyOp(req *request, ss *session, p dist.Patch) response {
	owner := p.Proc
	s.mu.Lock()
	// Ownership and the migration freeze are checked under mu: a cutover
	// must never let a write slip into a block that has been frozen or
	// handed off, or it would exist only on the superseded owner.
	if !ss.hosts[owner] {
		s.mu.Unlock()
		return s.notHostedResp(req, owner)
	}
	if ss.frozen[owner] {
		s.mu.Unlock()
		atomic.AddInt64(&s.st.PlacementFenced, 1)
		return retryResp(req.ReqID, "netga: proc %d frozen (migrating)", owner)
	}
	tokened := req.Op == opAcc && req.Token != 0
	if tokened && ss.seen(req.Token) {
		s.mu.Unlock()
		atomic.AddInt64(&s.st.AccDups, 1)
		return response{ReqID: req.ReqID, Dup: 1}
	}
	if err := s.persistLocked(req, true); err != nil {
		s.mu.Unlock()
		return persistFailed(req.ReqID, err)
	}
	if tokened {
		ss.seenCur[req.Token] = true
	}
	s.applyWG.Add(1)
	s.mu.Unlock()

	ss.apply(req, p)
	s.applyWG.Done()
	if req.Op == opAcc {
		atomic.AddInt64(&s.st.AccApplied, 1)
	}
	s.maybeSnapshot()
	return response{ReqID: req.ReqID}
}

// hello installs or validates a session; geometry travels in R0=Rows,
// C0=Cols and the cut layout in Msg. The layout must match the grid of
// the session it meets (the pinned one, or an admitted one with this id),
// so a driver started with another -reorder or -grid is refused here and
// not mid-build on a patch spanning two owners. A re-Hello with a live id
// (the F client after the D client, a reconnect, a rejoin of a recovered
// server) then changes nothing — which is what lets a restarted durable
// shard resume the build — and a new id is admitted, or replaces the
// pinned session.
func (s *Server) hello(req *request) response {
	if req.Session == 0 {
		return errResp(req.ReqID, "netga: session id must be nonzero")
	}
	grid, err := parseLayout(req.Msg, int(req.R0), int(req.C0))
	if err != nil {
		return errResp(req.ReqID, "%v", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ss := s.pin
	if ss == nil {
		if ss = s.table[req.Session]; ss == nil {
			return s.admitLocked(req, grid)
		}
	}
	if mine := layoutMsg(ss.grid); mine != layoutMsg(grid) {
		return errResp(req.ReqID, "netga: geometry mismatch: client grid %s, session grid %s", layoutMsg(grid), mine)
	}
	if ss.id != req.Session {
		return s.replacePinnedLocked(req)
	}
	return response{ReqID: req.ReqID}
}

// replacePinnedLocked installs a new session id on the pinned table: the
// arrays, the dedup state and the journal are reset (a new build), all of
// it journaled and replicated first. Caller holds s.mu.
func (s *Server) replacePinnedLocked(req *request) response {
	if s.hadStandby && s.sub == nil {
		// Refuse before the destructive journal reset: a session
		// install that cannot reach the standby must not be acked
		// (see persistLocked).
		return retryResp(req.ReqID, "%v", errReplLost)
	}
	s.applyWG.Wait()
	if s.jr != nil {
		// The old session's history is dead; the install record is the
		// first entry of the fresh journal (seq keeps increasing so a
		// stale snapshot plus the new journal still replays correctly).
		if err := s.jr.Reset(); err != nil {
			return errResp(req.ReqID, "netga: journal reset: %v", err)
		}
		s.sinceSnap = 0
	}
	rec := request{Op: opHello, Session: req.Session, R0: req.R0, C0: req.C0, SEpoch: s.epoch.Load()}
	if err := s.persistLocked(&rec, true); err != nil {
		return persistFailed(req.ReqID, err)
	}
	s.resetLocked(s.pin, req.Session)
	atomic.AddInt64(&s.st.Sessions, 1)
	// The journal reset above destroyed any journaled placement history
	// (the opMigrate/opSetGen records that tell an elastic shard which
	// blocks it hosts). Snapshot at the install point so a crash after
	// this hello recovers the current host set, frozen set and placement
	// generation instead of whatever an older snapshot remembered.
	s.snapshotLocked()
	return response{ReqID: req.ReqID}
}

// checkpoint advances a session's dedup eviction generation
// (driver-issued at a session checkpoint, e.g. an SCF iteration boundary
// — never mid-build): tokens that have survived one full generation are
// evicted, bounding the dedup table over long SCF runs.
func (s *Server) checkpoint(req *request) response {
	s.mu.Lock()
	defer s.mu.Unlock()
	ss := s.sessionLocked(req.Session)
	if ss == nil {
		return errResp(req.ReqID, "netga: unknown session %d", req.Session)
	}
	rec := request{Op: opCheckpoint, Session: req.Session}
	if err := s.persistLocked(&rec, true); err != nil {
		return persistFailed(req.ReqID, err)
	}
	s.rotateDedupLocked(ss)
	return response{ReqID: req.ReqID}
}

// promote handles the epoch-fenced role transition. A standby becomes the
// serving primary at the fence epoch; the same epoch retried is
// acknowledged idempotently; a stale epoch is rejected outright. The
// promotion is journaled before the role flips so a restarted promoted
// standby comes back as a primary, and the subscription to the (dead)
// old primary is severed so a zombie cannot stream into a promoted shard.
func (s *Server) promote(req *request) response {
	if req.SEpoch == 0 {
		return errResp(req.ReqID, "netga: promote requires a fence epoch")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.epoch.Load()
	if req.SEpoch < cur || (req.SEpoch == cur && s.standby.Load()) {
		return errResp(req.ReqID, "netga: stale promotion epoch %d (shard at %d)", req.SEpoch, cur)
	}
	if req.SEpoch == cur {
		return response{ReqID: req.ReqID} // idempotent retry of a done promotion
	}
	rec := request{Op: opPromote, SEpoch: req.SEpoch}
	if err := s.persistLocked(&rec, false); err != nil {
		return errResp(req.ReqID, "%v", err)
	}
	s.epoch.Store(req.SEpoch)
	wasStandby := s.standby.Load()
	s.standby.Store(false)
	if wasStandby && s.stdbyConn != nil {
		s.stdbyConn.Close() // sever the stream from the old primary
	}
	atomic.AddInt64(&s.st.Promotions, 1)
	return response{ReqID: req.ReqID}
}

// blockRows visits, under proc p's patch lock, the rows of its block in
// the D array and then the F array — the order a migrating block's state
// travels in.
func (ss *session) blockRows(p int, visit func(row []float64)) {
	i, j := ss.grid.Coords(p)
	c0, c1 := ss.grid.ColCuts[j], ss.grid.ColCuts[j+1]
	ss.locks[p].Lock()
	defer ss.locks[p].Unlock()
	for a := range ss.arrays {
		for r := ss.grid.RowCuts[i]; r < ss.grid.RowCuts[i+1]; r++ {
			visit(ss.arrays[a][r*ss.grid.Cols+c0 : r*ss.grid.Cols+c1])
		}
	}
}

// blockLen is the length of proc p's migrating state (see blockRows), or
// an error for a proc outside the grid.
func (ss *session) blockLen(p int) (int, error) {
	if p < 0 || p >= ss.grid.NumProcs() {
		return 0, fmt.Errorf("netga: bad proc %d", p)
	}
	i, j := ss.grid.Coords(p)
	return numArrays * (ss.grid.RowCuts[i+1] - ss.grid.RowCuts[i]) * (ss.grid.ColCuts[j+1] - ss.grid.ColCuts[j]), nil
}

// freezeBlock (opFreeze, fleet -> source shard) starts a block's
// migration: writes to proc p are durably refused from here on (the
// freeze is journaled and replicated, so neither a crash-restart nor a
// standby promotion un-freezes it), in-flight applies are drained, and
// the response carries the block's D and F state, the session's dedup
// tokens, and the session id (in Msg) for the new owner to adopt. The
// frozen copy is immutable, so a retried freeze returns identical state.
// Reads keep being served: until the cutover fences this shard, the
// frozen copy IS the block's current value.
func (s *Server) freezeBlock(req *request) response {
	ss, p := s.pin, int(req.Proc)
	n, err := ss.blockLen(p)
	if err != nil {
		return errResp(req.ReqID, "%v", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !ss.hosts[p] {
		return errResp(req.ReqID, "netga: proc %d not hosted here", p)
	}
	if !ss.frozen[p] {
		rec := request{Op: opFreeze, Session: ss.id, Proc: req.Proc}
		if err := s.persistLocked(&rec, true); err != nil {
			return persistFailed(req.ReqID, err)
		}
		ss.frozen[p] = true
		atomic.AddInt64(&s.st.Freezes, 1)
	}
	s.applyWG.Wait() // drain writes that passed the freeze check before it was set
	data := make([]float64, 0, n)
	ss.blockRows(p, func(row []float64) { data = append(data, row...) })
	tokens := keysOf(ss.seenCur)
	for t := range ss.seenPrev {
		if !ss.seenCur[t] {
			tokens = append(tokens, t)
		}
	}
	return response{ReqID: req.ReqID, Data: data, Tokens: tokens,
		Msg: fmt.Sprintf("%d", ss.id)}
}

// migrateIn (opMigrate, fleet -> destination shard) installs a migrated
// block: the build session is adopted (a fresh joiner resets to it), the
// source's dedup tokens are merged so a client retry of an Acc the source
// already acked stays a duplicate here, the block's D/F state lands under
// the patch lock, and the proc joins the hosted set. The whole install is
// journaled and replicated first, so it survives crash and failover.
// Pre-publish the install is idempotent (no client can route a write here
// until the fleet publishes the new map, and the fleet publishes only
// after the install is acked), so fleet-side retries are safe.
func (s *Server) migrateIn(req *request) response {
	n, err := s.pin.blockLen(int(req.Proc))
	if err != nil {
		return errResp(req.ReqID, "%v", err)
	}
	if len(req.Data) != 0 && len(req.Data) != n {
		return errResp(req.ReqID, "netga: migrate payload %d values, want %d", len(req.Data), n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.persistLocked(req, true); err != nil {
		return persistFailed(req.ReqID, err)
	}
	s.applyMigrateLocked(req)
	atomic.AddInt64(&s.st.BlocksIn, 1)
	return response{ReqID: req.ReqID}
}

// applyMigrateLocked lands an opMigrate record. Caller holds s.mu. Shared
// by the live handler, journal replay, and the replication stream.
func (s *Server) applyMigrateLocked(req *request) {
	ss, p := s.pin, int(req.Proc)
	if req.Session != 0 && req.Session != ss.id {
		// A fresh member adopts the running build's session wholesale.
		s.resetLocked(ss, req.Session)
		atomic.AddInt64(&s.st.Sessions, 1)
	}
	for _, t := range req.Tokens {
		ss.seenCur[t] = true
	}
	ss.hosts[p] = true
	delete(ss.frozen, p)
	if off := 0; len(req.Data) > 0 {
		ss.blockRows(p, func(row []float64) { off += copy(row, req.Data[off:]) })
	}
}

// setGen (opSetGen, fleet -> shard) finalizes a cutover leg: the shard
// adopts placement generation PGen (monotone), and when Proc >= 0 also
// drops that proc from its hosted set (the source's side of the cutover).
// The record is journaled and replicated, so a restarted or failed-over
// shard stays on the new map's side of the fence. The fleet orders the
// legs source-drop BEFORE publish, so once any client can route a write
// to the new owner, the old owner already refuses the block.
func (s *Server) setGen(req *request) response {
	if req.PGen == 0 {
		return errResp(req.ReqID, "netga: setgen requires a placement generation")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := request{Op: opSetGen, PGen: req.PGen, Proc: req.Proc}
	if err := s.persistLocked(&rec, true); err != nil {
		return persistFailed(req.ReqID, err)
	}
	s.applySetGenLocked(req)
	return response{ReqID: req.ReqID}
}

// applySetGenLocked lands an opSetGen record. Caller holds s.mu.
func (s *Server) applySetGenLocked(req *request) {
	for {
		cur := s.pgen.Load()
		if req.PGen <= cur || s.pgen.CompareAndSwap(cur, req.PGen) {
			break
		}
	}
	if p := int(req.Proc); p >= 0 {
		if s.pin.hosts[p] {
			atomic.AddInt64(&s.st.BlocksOut, 1)
		}
		delete(s.pin.hosts, p)
		delete(s.pin.frozen, p)
	}
}

// SplitProcs assigns nprocs grid blocks contiguously across nservers
// shard servers: assign[p] is the server index hosting proc p, and
// hosted[k] lists server k's procs. Clients and servers must use the
// same assignment; this is the one canonical scheme.
func SplitProcs(nprocs, nservers int) (assign []int, hosted [][]int) {
	assign = make([]int, nprocs)
	hosted = make([][]int, nservers)
	for p := 0; p < nprocs; p++ {
		k := p * nservers / nprocs
		assign[p] = k
		hosted[k] = append(hosted[k], p)
	}
	return assign, hosted
}
