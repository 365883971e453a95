package netga

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gtfock/internal/dist"
	"gtfock/internal/wal"
)

// Server hosts the D and F shards of a subset of the process grid's
// blocks and serves framed one-sided RPCs over TCP. It is deliberately
// fence-oblivious about *worker* epochs: that fencing is enforced
// client-side in the driver process, where the lease ledger lives; the
// server's job is idempotent application (token dedup) so at-least-once
// delivery from retrying clients becomes exactly-once accumulation.
//
// Two orthogonal robustness layers sit on top (DESIGN.md §9):
//
//   - Durability: with WithDurability, every applied mutation is
//     journaled (write-ahead, fsynced before ack) and periodically
//     snapshotted, so a killed-and-restarted server replays to the state
//     of its crash — same arrays, same session, same dedup sets — and
//     the existing session resumes instead of resetting.
//   - Failover: with WithStandby, the server runs as a hot standby of a
//     primary, applying its replication stream (semi-sync: the primary
//     acks a client only after the standby acked the record). A client
//     that loses the primary promotes the standby with an epoch-fenced
//     opPromote; *shard* epochs travel on every request so a superseded
//     primary can never serve or double-apply after the fence.
type Server struct {
	grid  *dist.Grid2D
	hosts map[int]bool

	mu       sync.Mutex
	session  uint64
	seenCur  map[uint64]bool // applied Acc tokens since the last checkpoint
	seenPrev map[uint64]bool // tokens of the previous checkpoint generation
	ckptGen  uint64          // dedup eviction generation counter
	arrays   [numArrays][]float64
	locks    []sync.Mutex // per-proc patch locks
	conns    map[net.Conn]bool
	closed   bool
	draining bool

	// Elastic placement state (under mu): frozen blocks reject writes
	// (statusRetry) while their state is in flight to a new owner. The
	// hosted-proc set is mutable — the fleet installs and drops blocks at
	// runtime via opMigrate/opSetGen.
	frozen map[int]bool

	// Stored-ERI spill blobs (under mu): session-scoped immutable cache
	// legs keyed by Token, first write wins. Deliberately volatile — not
	// journaled, snapshotted, or replicated — a blob lost to a restart or
	// failover is a client-side recompute, never a wrong answer.
	blobs     map[uint64][]float64
	blobBytes int64

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

	ln       net.Listener
	boundTo  string
	wg       sync.WaitGroup
	inflight atomic.Int64 // requests currently being handled (drain)

	requests, accApplied, accDups, sessions, rejects atomic.Int64
	journalRecords, replayed, snapshots              atomic.Int64
	promotions, checkpoints, tokensEvicted           atomic.Int64
	fencedOps, replSent, replApplied                 atomic.Int64
	freezes, blocksIn, blocksOut, placementFenced    atomic.Int64
	blobsStored, blobHits, blobMisses                atomic.Int64
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

// ServerStats is a point-in-time counter snapshot.
type ServerStats struct {
	Requests   int64 `json:"requests"`
	AccApplied int64 `json:"acc_applied"`
	AccDups    int64 `json:"acc_dups"` // retried/duplicated Accs absorbed by token dedup
	Sessions   int64 `json:"sessions"`
	Rejects    int64 `json:"rejects"` // statusErr responses sent

	Epoch   uint64 `json:"epoch"`             // shard fence epoch
	Standby bool   `json:"standby,omitempty"` // still a standby (not promoted)

	JournalRecords int64 `json:"journal_records,omitempty"` // records appended this incarnation
	Replayed       int64 `json:"replayed,omitempty"`        // records replayed at recovery
	Snapshots      int64 `json:"snapshots,omitempty"`
	Promotions     int64 `json:"promotions,omitempty"`
	Checkpoints    int64 `json:"checkpoints,omitempty"` // dedup eviction generations advanced
	TokensLive     int64 `json:"tokens_live"`           // dedup tokens currently held
	TokensEvicted  int64 `json:"tokens_evicted,omitempty"`
	FencedOps      int64 `json:"fenced_ops,omitempty"` // ops rejected by the shard-epoch fence
	ReplSent       int64 `json:"repl_sent,omitempty"`  // records forwarded to the standby
	ReplApplied    int64 `json:"repl_applied,omitempty"`

	PGen            uint64 `json:"pgen,omitempty"`             // placement generation (0 = static)
	HostedProcs     int    `json:"hosted_procs"`               // blocks currently hosted
	FrozenProcs     int    `json:"frozen_procs,omitempty"`     // blocks frozen for out-migration
	Freezes         int64  `json:"freezes,omitempty"`          // opFreeze cutovers started here
	BlocksIn        int64  `json:"blocks_in,omitempty"`        // blocks installed by opMigrate
	BlocksOut       int64  `json:"blocks_out,omitempty"`       // blocks dropped after cutover
	PlacementFenced int64  `json:"placement_fenced,omitempty"` // ops rejected by the placement-gen fence

	// Stored-ERI spill blob counters (cache tier; volatile by design).
	BlobsStored int64 `json:"blobs_stored,omitempty"`
	BlobBytes   int64 `json:"blob_bytes,omitempty"`
	BlobHits    int64 `json:"blob_hits,omitempty"`
	BlobMisses  int64 `json:"blob_misses,omitempty"`
}

// NewServer creates a server for the blocks of the given procs. The
// backing store covers the full matrix for indexing simplicity; only the
// hosted patches are ever addressed (requests for other owners are
// rejected, catching routing bugs instead of serving zeros).
func NewServer(grid *dist.Grid2D, procs []int, opts ...ServerOption) *Server {
	s := &Server{
		grid:     grid,
		hosts:    map[int]bool{},
		frozen:   map[int]bool{},
		seenCur:  map[uint64]bool{},
		seenPrev: map[uint64]bool{},
		blobs:    map[uint64][]float64{},
		locks:    make([]sync.Mutex, grid.NumProcs()),
		conns:    map[net.Conn]bool{},
	}
	s.epoch.Store(1)
	for _, p := range procs {
		s.hosts[p] = true
	}
	for a := range s.arrays {
		s.arrays[a] = make([]float64, grid.Rows*grid.Cols)
	}
	for _, opt := range opts {
		opt(s)
	}
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
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		if s.jr != nil {
			s.jr.Close()
			s.jr = nil
		}
		return "", err
	}
	s.ln = ln
	s.boundTo = ln.Addr().String()
	if s.primaryAddr != "" {
		s.stdbyStop = make(chan struct{})
		s.wg.Add(1)
		go s.runStandby(s.stdbyStop)
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			s.mu.Lock()
			if s.closed || s.draining {
				s.mu.Unlock()
				conn.Close()
				return
			}
			s.conns[conn] = true
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serveConn(conn)
			}()
		}
	}()
	return s.boundTo, nil
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
		if snap.Rows != s.grid.Rows || snap.Cols != s.grid.Cols {
			return fmt.Errorf("netga: snapshot geometry %dx%d, server grid %dx%d",
				snap.Rows, snap.Cols, s.grid.Rows, s.grid.Cols)
		}
		s.session = snap.Session
		s.epoch.Store(snap.Epoch)
		s.pgen.Store(snap.PGen)
		s.standby.Store(snap.Standby && s.primaryAddr != "")
		s.seq = snap.Seq
		s.ckptGen = snap.Checkpoint
		for a := range s.arrays {
			copy(s.arrays[a], snap.Arrays[a])
		}
		s.seenCur = tokenSet(snap.SeenCur)
		s.seenPrev = tokenSet(snap.SeenPrev)
		// The snapshot records the true hosted/frozen sets at save time;
		// they supersede the constructor's static assignment.
		s.hosts = map[int]bool{}
		for _, p := range snap.Hosts {
			s.hosts[p] = true
		}
		s.frozen = map[int]bool{}
		for _, p := range snap.Frozen {
			s.frozen[p] = true
		}
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
		s.applyRecord(&req)
		s.seq = seq
		s.replayed.Add(1)
		return nil
	})
	return err
}

func tokenSet(tokens []uint64) map[uint64]bool {
	m := make(map[uint64]bool, len(tokens))
	for _, t := range tokens {
		m[t] = true
	}
	return m
}

func tokenList(m map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(m))
	for t := range m {
		out = append(out, t)
	}
	return out
}

// applyRecord applies one journal/replication record to the in-memory
// state. It does NOT journal (recovery replays existing records; the
// standby journals before applying). Token dedup is re-checked so replay
// across a snapshot boundary and duplicated stream delivery stay
// exactly-once.
func (s *Server) applyRecord(req *request) {
	switch req.Op {
	case opHello:
		s.mu.Lock()
		s.session = req.Session
		s.seenCur = map[uint64]bool{}
		s.seenPrev = map[uint64]bool{}
		s.zeroArraysLocked()
		s.mu.Unlock()
	case opCheckpoint:
		s.mu.Lock()
		s.rotateDedupLocked()
		s.mu.Unlock()
	case opPromote:
		s.mu.Lock()
		s.epoch.Store(req.SEpoch)
		s.standby.Store(false)
		s.mu.Unlock()
	case opFreeze:
		s.mu.Lock()
		if p := int(req.Proc); p >= 0 && s.hosts[p] {
			s.frozen[p] = true
		}
		s.mu.Unlock()
	case opMigrate:
		s.mu.Lock()
		s.applyMigrateLocked(req)
		s.mu.Unlock()
	case opSetGen:
		s.mu.Lock()
		s.applySetGenLocked(req)
		s.mu.Unlock()
	case opPut:
		s.applyPatch(req)
	case opAcc:
		if req.Token != 0 {
			s.mu.Lock()
			if s.seenCur[req.Token] || s.seenPrev[req.Token] {
				s.mu.Unlock()
				return
			}
			s.seenCur[req.Token] = true
			s.mu.Unlock()
		}
		s.applyPatch(req)
	}
}

// zeroArraysLocked clears both shard arrays and drops the session's
// spill blobs (a new session is a new build; its store re-spills).
// Caller holds s.mu; the per-proc locks are taken so concurrent Gets
// never see a torn reset.
func (s *Server) zeroArraysLocked() {
	for p := range s.locks {
		s.locks[p].Lock()
	}
	for a := range s.arrays {
		arr := s.arrays[a]
		for i := range arr {
			arr[i] = 0
		}
	}
	for p := range s.locks {
		s.locks[p].Unlock()
	}
	s.blobs = map[uint64][]float64{}
	s.blobBytes = 0
}

// rotateDedupLocked advances the dedup eviction generation: the previous
// generation's tokens are evicted, the current one becomes previous.
// Tokens are therefore only dropped after a full checkpoint interval —
// never mid-epoch — so any retry of an op that completed before the
// checkpoint still hits its token.
func (s *Server) rotateDedupLocked() {
	s.tokensEvicted.Add(int64(len(s.seenPrev)))
	s.seenPrev = s.seenCur
	s.seenCur = map[uint64]bool{}
	s.ckptGen++
	s.checkpoints.Add(1)
}

// applyPatch lands one Put/Acc payload in the arrays under the owner's
// patch lock. The caller has validated geometry and ownership.
func (s *Server) applyPatch(req *request) {
	r0, r1, c0, c1 := int(req.R0), int(req.R1), int(req.C0), int(req.C1)
	w := c1 - c0
	owner := s.grid.Patches(r0, r1, c0, c1)[0].Proc
	s.locks[owner].Lock()
	defer s.locks[owner].Unlock()
	for r := r0; r < r1; r++ {
		dst := s.arrays[req.Array][r*s.grid.Cols+c0 : r*s.grid.Cols+c1]
		row := req.Data[(r-r0)*w : (r-r0)*w+w]
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
// standby is gone for good blocks writes instead of diverging.
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
		s.replSent.Add(1)
	}
	return nil
}

// journalLocked appends one record — sequence number, then the encoded
// request — to the journal; it is durable on return. Caller holds s.mu
// and has checked s.jr != nil.
func (s *Server) journalLocked(seq uint64, req *request) error {
	s.jbuf = encodeRecord(s.jbuf, seq, req)
	if err := s.jr.Append(s.jbuf); err != nil {
		return err
	}
	s.journalRecords.Add(1)
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
	s.snapshots.Add(1)
	return s.jr.Reset()
}

// snapshotStateLocked captures the current state. Caller holds s.mu and
// has drained applyWG.
func (s *Server) snapshotStateLocked() *snapshotState {
	st := &snapshotState{
		Version: snapshotVersion,
		Session: s.session,
		Epoch:   s.epoch.Load(),
		PGen:    s.pgen.Load(),
		Standby: s.standby.Load(),
		Rows:    s.grid.Rows, Cols: s.grid.Cols,
		Seq:        s.seq,
		SeenCur:    tokenList(s.seenCur),
		SeenPrev:   tokenList(s.seenPrev),
		Checkpoint: s.ckptGen,
	}
	for p := range s.hosts {
		st.Hosts = append(st.Hosts, p)
	}
	for p := range s.frozen {
		st.Frozen = append(st.Frozen, p)
	}
	for a := range s.arrays {
		st.Arrays[a] = append([]float64(nil), s.arrays[a]...)
	}
	return st
}

// Close abruptly stops the server: listener and conns are torn down and
// goroutines joined, but no final snapshot is taken — exactly the state a
// SIGKILL leaves behind. Durable servers recover from the journal; Kill
// is an alias that makes chaos-test intent explicit.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
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
	if s.ln != nil {
		s.ln.Close()
	}
	s.wg.Wait()
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
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	s.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
	}
	deadline := time.Now().Add(wait)
	for s.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.mu.Lock()
	if s.jr != nil {
		s.snapshotLocked()
	}
	s.mu.Unlock()
	s.Close()
}

// Stats snapshots the server counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	live := int64(len(s.seenCur) + len(s.seenPrev))
	hosted, frozen := len(s.hosts), len(s.frozen)
	blobBytes := s.blobBytes
	s.mu.Unlock()
	return ServerStats{
		Requests:   s.requests.Load(),
		AccApplied: s.accApplied.Load(),
		AccDups:    s.accDups.Load(),
		Sessions:   s.sessions.Load(),
		Rejects:    s.rejects.Load(),

		Epoch:   s.epoch.Load(),
		Standby: s.standby.Load(),

		JournalRecords: s.journalRecords.Load(),
		Replayed:       s.replayed.Load(),
		Snapshots:      s.snapshots.Load(),
		Promotions:     s.promotions.Load(),
		Checkpoints:    s.checkpoints.Load(),
		TokensLive:     live,
		TokensEvicted:  s.tokensEvicted.Load(),
		FencedOps:      s.fencedOps.Load(),
		ReplSent:       s.replSent.Load(),
		ReplApplied:    s.replApplied.Load(),

		PGen:            s.pgen.Load(),
		HostedProcs:     hosted,
		FrozenProcs:     frozen,
		Freezes:         s.freezes.Load(),
		BlocksIn:        s.blocksIn.Load(),
		BlocksOut:       s.blocksOut.Load(),
		PlacementFenced: s.placementFenced.Load(),

		BlobsStored: s.blobsStored.Load(),
		BlobBytes:   blobBytes,
		BlobHits:    s.blobHits.Load(),
		BlobMisses:  s.blobMisses.Load(),
	}
}

// Addr returns the bound address (valid after Start).
func (s *Server) Addr() string { return s.boundTo }

func (s *Server) serveConn(conn net.Conn) {
	hijacked := false
	defer func() {
		if !hijacked {
			conn.Close()
		}
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	var buf []byte
	for {
		body, err := readFrame(br)
		if err != nil {
			return // client closed, reset, or corrupt stream
		}
		var req request
		var resp response
		if err := decodeRequest(body, &req); err != nil {
			resp = response{Status: statusErr, Msg: err.Error()}
		} else if req.Op == opSubscribe {
			// The conn becomes a replication stream owned by the
			// subscription; this goroutine hands it over and exits.
			hijacked = s.serveSubscribe(conn, br, bw, &req)
			if hijacked {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}
			return
		} else {
			s.inflight.Add(1)
			resp = s.handle(&req)
			s.inflight.Add(-1)
		}
		resp.SEpoch = s.epoch.Load()
		resp.PGen = s.pgen.Load()
		if resp.Status == statusErr {
			s.rejects.Add(1)
		}
		buf = encodeResponse(buf, &resp)
		if err := writeFrame(bw, buf); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
		s.mu.Lock()
		drain := s.draining
		s.mu.Unlock()
		if drain {
			return
		}
	}
}

func errResp(reqID uint64, format string, args ...any) response {
	return response{Status: statusErr, ReqID: reqID, Msg: fmt.Sprintf(format, args...)}
}

// retryResp is a transient rejection: the client should resync its view
// (the response carries the server's shard epoch) and retry, not abort.
func retryResp(reqID uint64, format string, args ...any) response {
	return response{Status: statusRetry, ReqID: reqID, Msg: fmt.Sprintf(format, args...)}
}

func (s *Server) handle(req *request) response {
	s.requests.Add(1)
	switch req.Op {
	case opHello:
		return s.hello(req)
	case opPing:
		return response{ReqID: req.ReqID}
	case opPromote:
		return s.promote(req)
	case opCheckpoint:
		return s.checkpoint(req)
	case opFreeze:
		return s.freezeBlock(req)
	case opMigrate:
		return s.migrateIn(req)
	case opSetGen:
		return s.setGen(req)
	}

	// Data ops: role, shard-epoch fence, placement-generation fence, then
	// session.
	if s.standby.Load() {
		return retryResp(req.ReqID, "netga: standby of %s: not promoted", s.primaryAddr)
	}
	if cur := s.epoch.Load(); req.SEpoch != 0 && req.SEpoch != cur {
		s.fencedOps.Add(1)
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
				s.placementFenced.Add(1)
				return retryResp(req.ReqID, "netga: stale placement gen %d (now %d)", req.PGen, cur)
			}
			if req.PGen == cur || s.pgen.CompareAndSwap(cur, req.PGen) {
				break
			}
		}
	}
	s.mu.Lock()
	sessionOK := s.session != 0 && req.Session == s.session
	s.mu.Unlock()
	if !sessionOK {
		return errResp(req.ReqID, "netga: unknown session %d", req.Session)
	}
	// Spill blobs are keyed by Token, not patch coordinates, so they skip
	// the patch/owner validation below.
	switch req.Op {
	case opPutBlob:
		return s.putBlob(req)
	case opGetBlob:
		return s.getBlob(req)
	}
	if int(req.Array) >= numArrays {
		return errResp(req.ReqID, "netga: bad array id %d", req.Array)
	}
	r0, r1, c0, c1 := int(req.R0), int(req.R1), int(req.C0), int(req.C1)
	if r0 < 0 || r1 > s.grid.Rows || c0 < 0 || c1 > s.grid.Cols || r0 >= r1 || c0 >= c1 {
		return errResp(req.ReqID, "netga: bad patch [%d,%d)x[%d,%d)", r0, r1, c0, c1)
	}
	// The client decomposes regions per owner, so a request patch must
	// lie within exactly one block — and that block must be hosted here.
	ps := s.grid.Patches(r0, r1, c0, c1)
	if len(ps) != 1 {
		return errResp(req.ReqID, "netga: patch spans %d owners, want 1", len(ps))
	}
	owner := ps[0].Proc
	s.mu.Lock()
	hosted := s.hosts[owner]
	s.mu.Unlock()
	if !hosted {
		return s.notHostedResp(req, owner)
	}
	w := c1 - c0
	switch req.Op {
	case opGet:
		data := make([]float64, (r1-r0)*w)
		s.locks[owner].Lock()
		for r := r0; r < r1; r++ {
			copy(data[(r-r0)*w:(r-r0)*w+w], s.arrays[req.Array][r*s.grid.Cols+c0:r*s.grid.Cols+c1])
		}
		s.locks[owner].Unlock()
		return response{ReqID: req.ReqID, Data: data}
	case opPut, opAcc:
		if len(req.Data) != (r1-r0)*w {
			return errResp(req.ReqID, "netga: payload %d values, want %d", len(req.Data), (r1-r0)*w)
		}
		return s.applyOp(req, owner)
	}
	return errResp(req.ReqID, "netga: unknown op %d", req.Op)
}

// putBlob stores a stored-ERI spill blob first-writer-wins: re-puts from
// re-executed tasks carry bit-identical data (the batch is deterministic
// in the geometry), so duplicates are dropped without comparison. The
// write path stays off the journal and the replication stream by design
// — blobs are cache legs, and losing them costs a recompute, not
// correctness (see DESIGN.md §11).
func (s *Server) putBlob(req *request) response {
	if req.Token == 0 {
		return errResp(req.ReqID, "netga: blob key must be nonzero")
	}
	if len(req.Data) == 0 {
		return errResp(req.ReqID, "netga: empty blob")
	}
	s.mu.Lock()
	if _, ok := s.blobs[req.Token]; !ok {
		s.blobs[req.Token] = append([]float64(nil), req.Data...)
		s.blobBytes += int64(8 * len(req.Data))
		s.blobsStored.Add(1)
	}
	s.mu.Unlock()
	return response{ReqID: req.ReqID}
}

// getBlob serves a spill blob, or a statusErr tagged blobMissMsg the
// client maps to a cache miss. The returned slice is shared — blobs are
// immutable once stored, and the encoder only reads it.
func (s *Server) getBlob(req *request) response {
	s.mu.Lock()
	data := s.blobs[req.Token]
	s.mu.Unlock()
	if data == nil {
		s.blobMisses.Add(1)
		return errResp(req.ReqID, blobMissMsg)
	}
	s.blobHits.Add(1)
	return response{ReqID: req.ReqID, Data: data}
}

// notHostedResp answers a request for a block this shard does not host.
// Under elastic placement that is a routing race (the block moved, or the
// map the client routed by is mid-cutover) and retryable after a view
// refresh; under static placement it is a routing bug and fatal.
func (s *Server) notHostedResp(req *request, owner int) response {
	if s.pgen.Load() != 0 || req.PGen != 0 {
		s.placementFenced.Add(1)
		return retryResp(req.ReqID, "netga: proc %d not hosted here (placement moved)", owner)
	}
	return errResp(req.ReqID, "netga: proc %d not hosted here", owner)
}

// applyOp is the write path shared by Put and Acc: dedup check, journal
// append and standby forward under s.mu (write-ahead: the record is
// durable and replicated before the token becomes visible or the client
// is acked), then the array mutation under the owner's patch lock.
func (s *Server) applyOp(req *request, owner int) response {
	s.mu.Lock()
	// Re-check ownership and the migration freeze under mu: the early
	// checks in handle are advisory (a cutover can land between them and
	// here), this one is authoritative — a write must never slip into a
	// block that has been frozen or handed off, or it would exist only on
	// the superseded owner.
	if !s.hosts[owner] {
		s.mu.Unlock()
		return s.notHostedResp(req, owner)
	}
	if s.frozen[owner] {
		s.mu.Unlock()
		s.placementFenced.Add(1)
		return retryResp(req.ReqID, "netga: proc %d frozen (migrating)", owner)
	}
	if req.Op == opAcc && req.Token != 0 && (s.seenCur[req.Token] || s.seenPrev[req.Token]) {
		s.mu.Unlock()
		s.accDups.Add(1)
		return response{ReqID: req.ReqID, Dup: 1}
	}
	if err := s.persistLocked(req, true); err != nil {
		s.mu.Unlock()
		if errors.Is(err, errReplLost) {
			// Not acked, token not marked: the client retries the same
			// token once the standby re-attaches or the router reroutes.
			return retryResp(req.ReqID, "%v", err)
		}
		return errResp(req.ReqID, "%v", err)
	}
	if req.Op == opAcc && req.Token != 0 {
		s.seenCur[req.Token] = true
	}
	s.applyWG.Add(1)
	s.mu.Unlock()

	s.applyPatch(req)
	s.applyWG.Done()
	if req.Op == opAcc {
		s.accApplied.Add(1)
	}
	s.maybeSnapshot()
	return response{ReqID: req.ReqID}
}

// hello installs or validates a session. A session id the server has not
// seen resets the arrays, the dedup state and the journal (a new build);
// re-Hello with the current session — a reconnecting client, or one
// rejoining a recovered server — validates and changes nothing, which is
// what lets a restarted shard resume the build instead of restarting it.
// Geometry travels in R0=Rows, C0=Cols.
func (s *Server) hello(req *request) response {
	if int(req.R0) != s.grid.Rows || int(req.C0) != s.grid.Cols {
		return errResp(req.ReqID, "netga: geometry mismatch: client %dx%d, server %dx%d",
			req.R0, req.C0, s.grid.Rows, s.grid.Cols)
	}
	if req.Session == 0 {
		return errResp(req.ReqID, "netga: session id must be nonzero")
	}
	if s.standby.Load() {
		return retryResp(req.ReqID, "netga: standby of %s: not promoted", s.primaryAddr)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if req.Session != s.session {
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
			if errors.Is(err, errReplLost) {
				return retryResp(req.ReqID, "%v", err)
			}
			return errResp(req.ReqID, "%v", err)
		}
		s.session = req.Session
		s.seenCur = map[uint64]bool{}
		s.seenPrev = map[uint64]bool{}
		s.zeroArraysLocked()
		s.sessions.Add(1)
		// The journal reset above destroyed any journaled placement history
		// (the opMigrate/opSetGen records that tell an elastic shard which
		// blocks it hosts). Snapshot at the install point so a crash after
		// this hello recovers the current host set, frozen set and placement
		// generation instead of whatever an older snapshot remembered.
		s.snapshotLocked()
	}
	return response{ReqID: req.ReqID}
}

// checkpoint advances the dedup eviction generation (driver-issued at a
// session checkpoint, e.g. an SCF iteration boundary — never mid-build):
// tokens that have survived one full generation are evicted, bounding the
// dedup table over long SCF runs.
func (s *Server) checkpoint(req *request) response {
	if s.standby.Load() {
		return retryResp(req.ReqID, "netga: standby of %s: not promoted", s.primaryAddr)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.session == 0 || req.Session != s.session {
		return errResp(req.ReqID, "netga: unknown session %d", req.Session)
	}
	rec := request{Op: opCheckpoint, Session: req.Session}
	if err := s.persistLocked(&rec, true); err != nil {
		if errors.Is(err, errReplLost) {
			return retryResp(req.ReqID, "%v", err)
		}
		return errResp(req.ReqID, "%v", err)
	}
	s.rotateDedupLocked()
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
	s.promotions.Add(1)
	return response{ReqID: req.ReqID}
}

// blockBounds returns the matrix rectangle owned by grid proc p.
func (s *Server) blockBounds(p int) (r0, r1, c0, c1 int) {
	i, j := s.grid.Coords(p)
	return s.grid.RowCuts[i], s.grid.RowCuts[i+1], s.grid.ColCuts[j], s.grid.ColCuts[j+1]
}

// freezeBlock (opFreeze, fleet -> source shard) starts a block's
// migration: writes to proc p are durably refused from here on (the
// freeze is journaled and replicated, so neither a crash-restart nor a
// standby promotion un-freezes it), in-flight applies are drained, and
// the response carries the block's D and F state, the shard's dedup
// tokens, and the session (in Msg) for the new owner to adopt. The
// frozen copy is immutable, so a retried freeze returns identical state.
// Reads keep being served: until the cutover fences this shard, the
// frozen copy IS the block's current value.
func (s *Server) freezeBlock(req *request) response {
	if s.standby.Load() {
		return retryResp(req.ReqID, "netga: standby of %s: not promoted", s.primaryAddr)
	}
	p := int(req.Proc)
	if p < 0 || p >= s.grid.NumProcs() {
		return errResp(req.ReqID, "netga: bad proc %d", p)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.hosts[p] {
		return errResp(req.ReqID, "netga: proc %d not hosted here", p)
	}
	if !s.frozen[p] {
		rec := request{Op: opFreeze, Session: s.session, Proc: req.Proc}
		if err := s.persistLocked(&rec, true); err != nil {
			if errors.Is(err, errReplLost) {
				return retryResp(req.ReqID, "%v", err)
			}
			return errResp(req.ReqID, "%v", err)
		}
		s.frozen[p] = true
		s.freezes.Add(1)
	}
	s.applyWG.Wait() // drain writes that passed the freeze check before it was set
	r0, r1, c0, c1 := s.blockBounds(p)
	w := c1 - c0
	data := make([]float64, 0, numArrays*(r1-r0)*w)
	s.locks[p].Lock()
	for a := 0; a < numArrays; a++ {
		for r := r0; r < r1; r++ {
			data = append(data, s.arrays[a][r*s.grid.Cols+c0:r*s.grid.Cols+c1]...)
		}
	}
	s.locks[p].Unlock()
	tokens := make([]uint64, 0, len(s.seenCur)+len(s.seenPrev))
	tokens = append(tokens, tokenList(s.seenCur)...)
	for t := range s.seenPrev {
		if !s.seenCur[t] {
			tokens = append(tokens, t)
		}
	}
	return response{ReqID: req.ReqID, Data: data, Tokens: tokens,
		Msg: fmt.Sprintf("%d", s.session)}
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
	if s.standby.Load() {
		return retryResp(req.ReqID, "netga: standby of %s: not promoted", s.primaryAddr)
	}
	p := int(req.Proc)
	if p < 0 || p >= s.grid.NumProcs() {
		return errResp(req.ReqID, "netga: bad proc %d", p)
	}
	r0, r1, c0, c1 := s.blockBounds(p)
	if n := numArrays * (r1 - r0) * (c1 - c0); len(req.Data) != 0 && len(req.Data) != n {
		return errResp(req.ReqID, "netga: migrate payload %d values, want %d", len(req.Data), n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.persistLocked(req, true); err != nil {
		if errors.Is(err, errReplLost) {
			return retryResp(req.ReqID, "%v", err)
		}
		return errResp(req.ReqID, "%v", err)
	}
	s.applyMigrateLocked(req)
	s.blocksIn.Add(1)
	return response{ReqID: req.ReqID}
}

// applyMigrateLocked lands an opMigrate record. Caller holds s.mu. Shared
// by the live handler, journal replay, and the replication stream.
func (s *Server) applyMigrateLocked(req *request) {
	p := int(req.Proc)
	if req.Session != 0 && req.Session != s.session {
		// A fresh member adopts the running build's session wholesale.
		s.session = req.Session
		s.seenCur = map[uint64]bool{}
		s.seenPrev = map[uint64]bool{}
		s.zeroArraysLocked()
		s.sessions.Add(1)
	}
	for _, t := range req.Tokens {
		s.seenCur[t] = true
	}
	s.hosts[p] = true
	delete(s.frozen, p)
	if len(req.Data) > 0 {
		r0, r1, c0, c1 := s.blockBounds(p)
		w := c1 - c0
		s.locks[p].Lock()
		off := 0
		for a := 0; a < numArrays; a++ {
			for r := r0; r < r1; r++ {
				copy(s.arrays[a][r*s.grid.Cols+c0:r*s.grid.Cols+c1], req.Data[off:off+w])
				off += w
			}
		}
		s.locks[p].Unlock()
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
	if s.standby.Load() {
		return retryResp(req.ReqID, "netga: standby of %s: not promoted", s.primaryAddr)
	}
	if req.PGen == 0 {
		return errResp(req.ReqID, "netga: setgen requires a placement generation")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := request{Op: opSetGen, PGen: req.PGen, Proc: req.Proc}
	if err := s.persistLocked(&rec, true); err != nil {
		if errors.Is(err, errReplLost) {
			return retryResp(req.ReqID, "%v", err)
		}
		return errResp(req.ReqID, "%v", err)
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
		if s.hosts[p] {
			s.blocksOut.Add(1)
		}
		delete(s.hosts, p)
		delete(s.frozen, p)
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
