package netga

import (
	"errors"
	"sync"
	"sync/atomic"

	"gtfock/internal/dist"
	"gtfock/internal/metrics"
)

// Session is the driver side of one net session (DESIGN.md §7): the D and
// F clients over ONE shared Router — one conn pool and one hello per
// shard between them — dialed once and kept for every build.
// The clients mint the Acc idempotency tokens, so a pair re-dialed on a
// live session would replay token ranges and the shards' dedup would
// discard later builds' accumulates; held here, tokens are monotone for
// the session's life by construction. A Session is also its builds'
// stored-ERI spill integrals.BlobStore.
type Session struct {
	cfg       Config
	conns     *Conns // nil: the session's router keeps its own
	addrs     []string
	fleetAddr string

	mu       sync.Mutex
	d, f     *Client // nil before the first Backend call and after Close
	startGen uint64  // placement generation at dial
	closed   bool
}

// NewSession prepares a session routed by the elastic fleet coordinator
// at fleetAddr or, when that is empty, over the fixed shard servers addrs
// (procs split by SplitProcs). cfg carries the session id and both
// clients' OpTimeout, RPC and Fault; Array and Router are the session's
// to set. conns, when non-nil, is a pool that outlives
// the session: its RPCs run on conns idle there (a fresh session id needs
// a hello, not a dial) and return them there; nil keeps the session's
// conns its own, closed with it. Nothing is dialed before the first
// Backend.
func NewSession(cfg Config, conns *Conns, fleetAddr string, addrs []string) *Session {
	if cfg.RPC == nil {
		cfg.RPC = &metrics.RPC{}
	}
	return &Session{cfg: cfg, conns: conns, fleetAddr: fleetAddr, addrs: addrs}
}

// Backend has the core.Options.Backend signature. The first call dials the
// pair over grid; later calls return the same pair and refuse another
// grid. The cleanup is always nil: the pair outlives the build.
func (s *Session) Backend(grid *dist.Grid2D, stats *dist.RunStats) (dist.Backend, dist.Backend, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return nil, nil, nil, errors.New("netga: session is closed")
	case s.d == nil:
		cfg := s.cfg
		cfg.Router = NewRouter(s.addrs, cfg.OpTimeout, cfg.RPC)
		if s.fleetAddr != "" {
			cfg.Router = NewFleetRouter(s.fleetAddr, cfg.OpTimeout, cfg.RPC)
		}
		if s.conns != nil {
			cfg.Router.shareConns(s.conns)
		}
		cfg.Array = 0
		d, err := s.dial(grid, stats, cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		cfg.Array = 1
		f, err := s.dial(grid, stats, cfg)
		if err != nil {
			d.Close()
			return nil, nil, nil, err
		}
		s.d, s.f, s.startGen = d, f, cfg.Router.pgen()
	case layoutMsg(grid) != layoutMsg(s.d.grid):
		return nil, nil, nil, errors.New("netga: session was dialed over another grid: " + layoutMsg(s.d.grid))
	}
	return s.d, s.f, nil, nil
}

func (s *Session) dial(grid *dist.Grid2D, stats *dist.RunStats, cfg Config) (*Client, error) {
	if s.fleetAddr != "" {
		return DialFleet(grid, stats, s.fleetAddr, cfg)
	}
	if len(s.addrs) == 0 {
		return nil, errors.New("netga: session has neither shard servers nor a fleet")
	}
	assign, _ := SplitProcs(grid.NumProcs(), len(s.addrs))
	return Dial(grid, stats, s.addrs, assign, cfg)
}

// client returns the D client: it carries every driver-side op.
func (s *Session) client() (*Client, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.d == nil {
		return nil, errors.New("netga: session is not dialed")
	}
	return s.d, nil
}

// Checkpoint advances the shards' dedup-eviction generation (see
// Client.Checkpoint): call it wherever no accumulate can still be retrying
// (an SCF iteration boundary). A no-op on a session that is not dialed.
func (s *Session) Checkpoint() error {
	if c, err := s.client(); err == nil {
		return c.Checkpoint()
	}
	return nil
}

// PutBlob and GetBlob park spilled batches on the shards beside the
// session's arrays, for as long as it lives; undialed, both miss.
func (s *Session) PutBlob(key uint64, vals []float64) error {
	c, err := s.client()
	if err == nil {
		err = c.PutBlob(key, vals)
	}
	return err
}

func (s *Session) GetBlob(key uint64, dst []float64) ([]float64, error) {
	c, err := s.client()
	if err != nil {
		return nil, err
	}
	return c.GetBlob(key, dst)
}

// Close ends the session; Backend refuses it afterwards. A graceful end
// says Bye so admitting shards free its arrays, dedup state and blobs (the
// shard that failed a session would only time the Bye out). The placement
// generations published since dial, one per migrated block, are charged
// to the RPC counters as blocks migrated.
func (s *Session) Close(graceful bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.d == nil {
		return
	}
	if graceful {
		_ = s.d.Bye() // best effort: a dead shard freed the session by restarting
	}
	if moved := int64(s.d.router.pgen()) - int64(s.startGen); moved > 0 {
		atomic.AddInt64(&s.cfg.RPC.BlocksMigrated, moved)
	}
	s.d.Close()
	s.f.Close()
	s.d, s.f = nil, nil
}
