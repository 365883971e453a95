package netga

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync/atomic"

	"gtfock/internal/dist"
)

// layout is the grid geometry a client sends in its Hello Msg: an
// admitting table builds the session's arrays from it, a pinned table
// compares it to the grid it was constructed over.
type layout struct {
	Prow    int   `json:"prow"`
	Pcol    int   `json:"pcol"`
	RowCuts []int `json:"row_cuts"`
	ColCuts []int `json:"col_cuts"`
}

// layoutMsg serializes a grid's layout for the Hello handshake.
func layoutMsg(g *dist.Grid2D) string {
	b, _ := json.Marshal(layout{Prow: g.Prow, Pcol: g.Pcol, RowCuts: g.RowCuts, ColCuts: g.ColCuts})
	return string(b)
}

// parseLayout validates and reconstructs a client grid from a Hello.
// rows/cols are the matrix dimensions the client put in R0/C0, which the
// cut vectors must agree with.
func parseLayout(msg string, rows, cols int) (*dist.Grid2D, error) {
	if msg == "" {
		return nil, fmt.Errorf("netga: hello carries no grid layout")
	}
	var l layout
	if err := json.Unmarshal([]byte(msg), &l); err != nil {
		return nil, fmt.Errorf("netga: bad grid layout: %w", err)
	}
	if l.Prow <= 0 || l.Pcol <= 0 ||
		len(l.RowCuts) != l.Prow+1 || len(l.ColCuts) != l.Pcol+1 {
		return nil, fmt.Errorf("netga: grid layout %dx%d with %d/%d cuts", l.Prow, l.Pcol, len(l.RowCuts), len(l.ColCuts))
	}
	for _, cv := range [][]int{l.RowCuts, l.ColCuts} {
		if !sort.IntsAreSorted(cv) || cv[0] != 0 {
			return nil, fmt.Errorf("netga: grid cuts not monotone from zero")
		}
	}
	if l.RowCuts[l.Prow] != rows || l.ColCuts[l.Pcol] != cols {
		return nil, fmt.Errorf("netga: grid cuts end at %dx%d, geometry says %dx%d",
			l.RowCuts[l.Prow], l.ColCuts[l.Pcol], rows, cols)
	}
	return dist.NewGrid2D(l.Prow, l.Pcol, l.RowCuts, l.ColCuts), nil
}

// The session table has two policies, fixed at construction (DESIGN.md
// §7). A pinned table (NewServer) holds one session over the server's
// grid, replaced by a Hello with a new id; only it is journaled,
// replicated, promoted and migrated. An admitting table (NewMultiServer)
// holds many job-scoped sessions, each over the grid its first Hello
// carried, and is volatile: a restarted shard forgets them, data ops
// answer "unknown session", and the serving layer retries the job from its
// SCF checkpoint under a FRESH session id — empty arrays and dedup, so a
// retried job can never double-accumulate.

// MultiServer is the admitting-table configuration's historical name.
type MultiServer = Server

// NewMultiServer creates shard index of nservers with an admitting
// session table. maxSessions caps concurrently resident sessions (0 = a
// generous default) and memBudget their summed array and blob bytes (0 =
// unlimited). Each session's hosted procs come from SplitProcs over its
// own grid, so every job, whatever its geometry, splits across the same
// nservers shards. Durability and standby options are refused, not
// dropped: the operator would believe a volatile shard durable.
func NewMultiServer(nservers, index, maxSessions int, memBudget int64, opts ...ServerOption) (*Server, error) {
	if nservers <= 0 || index < 0 || index >= nservers {
		return nil, fmt.Errorf("netga: multi-server index %d of %d", index, nservers)
	}
	if maxSessions <= 0 {
		maxSessions = 1024
	}
	s := newServer(opts)
	if s.dir != "" || s.primaryAddr != "" {
		return nil, fmt.Errorf("netga: a multi-session shard is volatile: journal and standby options need the single pinned session of NewServer")
	}
	s.table = map[uint64]*session{}
	s.nservers, s.index = nservers, index
	s.maxSessions, s.memBudget = maxSessions, memBudget
	return s, nil
}

// sessionLocked returns the live session with this id, or nil. Caller
// holds s.mu.
func (s *Server) sessionLocked(id uint64) *session {
	if s.pin != nil && s.pin.id == id && id != 0 {
		return s.pin
	}
	return s.table[id] // nil, as is the whole table of a pinned server
}

// admitLocked opens a new session on an admitting table, against the
// session cap and the memory budget — the shard-level admission control:
// a refused Hello is a statusErr the serving layer surfaces as a 503-style
// rejection, so the fleet can never be grown into an OOM by accepting
// jobs. Caller holds s.mu.
func (s *Server) admitLocked(req *request, grid *dist.Grid2D) response {
	if len(s.table) >= s.maxSessions {
		atomic.AddInt64(&s.st.SessionRejects, 1)
		return errResp(req.ReqID, "netga: session table full (%d sessions)", len(s.table))
	}
	need := sessionBytes(grid)
	if s.memBudget > 0 && s.memUsed+need > s.memBudget {
		atomic.AddInt64(&s.st.SessionRejects, 1)
		return errResp(req.ReqID, "netga: session memory budget exceeded (%d + %d > %d bytes)",
			s.memUsed, need, s.memBudget)
	}
	_, hosted := SplitProcs(grid.NumProcs(), s.nservers)
	s.table[req.Session] = newSession(req.Session, grid, hosted[s.index])
	s.memUsed += need
	atomic.AddInt64(&s.st.Sessions, 1)
	return response{ReqID: req.ReqID}
}

// bye releases a session and returns its memory to the budget. Idempotent:
// saying goodbye to an unknown session (a retried Bye after the first one
// landed) is acknowledged, not an error — and so is a Bye to a pinned
// table, whose one session lives until the next Hello replaces it.
func (s *Server) bye(req *request) response {
	s.mu.Lock()
	if ss := s.table[req.Session]; ss != nil {
		s.memUsed -= sessionBytes(ss.grid) + ss.blobBytes
		delete(s.table, req.Session)
		atomic.AddInt64(&s.st.SessionsClosed, 1)
	}
	s.mu.Unlock()
	return response{ReqID: req.ReqID}
}

// sessionBytes is the resident charge of one session's arrays on this
// shard. The backing store covers the full matrix for indexing simplicity;
// for the small molecules the HF service multiplexes, simplicity beats the
// constant factor, and the admission budget accounts for it honestly.
func sessionBytes(g *dist.Grid2D) int64 {
	return int64(numArrays) * int64(g.Rows) * int64(g.Cols) * 8
}
