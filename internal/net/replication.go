package netga

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"net"
	"sync/atomic"
	"time"
)

// Hot-standby replication. A standby dials its primary and sends
// opSubscribe; the primary hijacks that conn into a replication stream:
// first a full state sync (the same gob snapshot the journal layer
// writes), then every subsequent mutation record in journal order, each
// acked by the standby before the primary acknowledges its own client
// (semi-synchronous). That ack discipline is what makes promotion sound:
// any op a client saw acknowledged is on the standby, so the post-failover
// build never loses an accumulation the driver believes landed.
//
// Ordering comes for free: records are forwarded under the primary's
// state mutex, in the same critical section that journals them, so the
// stream is exactly the journal. The standby journals each record before
// applying it, so a durable standby that itself crashes recovers like any
// primary would.

// replTimeout bounds one forward+ack round trip to the standby. A standby
// slower than this is dropped and the primary degrades to solo rather
// than stalling the build.
const replTimeout = 2 * time.Second

// subscriber is the primary's handle on a connected standby.
type subscriber struct {
	*frameConn
	buf []byte
}

// forward sends one record and waits for the standby's seq ack. Called
// with the server mutex held (serializing the stream with the journal).
func (sub *subscriber) forward(seq uint64, req *request) error {
	sub.SetDeadline(time.Now().Add(replTimeout))
	defer sub.SetDeadline(time.Time{})
	sub.buf = encodeRecord(sub.buf, seq, req)
	if err := writeFrame(sub.bw, sub.buf); err != nil {
		return err
	}
	if err := sub.bw.Flush(); err != nil {
		return err
	}
	ack, err := readFrame(sub.br)
	if err != nil {
		return err
	}
	if len(ack) != 8 || binary.LittleEndian.Uint64(ack) != seq {
		return fmt.Errorf("netga: bad replication ack for seq %d", seq)
	}
	return nil
}

// dropSubscriberLocked severs the standby stream (ack failure, or server
// teardown). Caller holds s.mu. The standby's reconnect loop will
// re-subscribe and get a fresh state sync.
func (s *Server) dropSubscriberLocked() {
	if s.sub != nil {
		s.sub.Close()
		s.sub = nil
	}
}

// serveSubscribe turns an accepted conn into the replication stream for a
// standby of this server's pinned session. It sends the subscribe
// response followed by a full state-sync frame, registers the subscriber,
// and reports the conn hijacked (the loop must then neither answer on it
// nor close it); a refusal is an ordinary response for the loop to send. The response, the state frame
// and the registration happen under s.mu so no mutation can slip between
// the sync point and the first streamed record.
func (s *Server) serveSubscribe(fc *frameConn, req *request) (response, bool) {
	if s.standby.Load() {
		return retryResp(req.ReqID, "netga: standby cannot host a subscriber"), false
	}
	if g := s.pin.grid; int(req.R0) != g.Rows || int(req.C0) != g.Cols {
		return errResp(req.ReqID, "netga: subscriber geometry %dx%d, server %dx%d",
			req.R0, req.C0, g.Rows, g.Cols), false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.draining {
		return errResp(req.ReqID, "netga: server closing"), false
	}
	s.applyWG.Wait()
	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(s.snapshotStateLocked()); err != nil {
		return errResp(req.ReqID, "netga: state sync: %v", err), false
	}
	resp := response{ReqID: req.ReqID, SEpoch: s.epoch.Load()}
	if writeFrame(fc.bw, encodeResponse(nil, &resp)) != nil ||
		writeFrame(fc.bw, blob.Bytes()) != nil || fc.bw.Flush() != nil {
		fc.Close() // broken mid-sync: the standby's reconnect loop starts over
		return response{}, true
	}
	s.dropSubscriberLocked() // at most one standby; newest wins
	s.sub = &subscriber{frameConn: fc}
	// From here on this primary never again acks a replicated op without a
	// live subscriber (see persistLocked): losing the stream could mean
	// the standby was promoted over us.
	s.hadStandby = true
	return response{}, true
}

// runStandby is the standby-side loop: connect to the primary, subscribe,
// apply the stream until it breaks, back off, repeat — until promotion or
// teardown.
func (s *Server) runStandby(stop chan struct{}) {
	defer s.wg.Done()
	wait := 10 * time.Millisecond
	for {
		select {
		case <-stop:
			return
		default:
		}
		if !s.standby.Load() {
			return // promoted: this shard is the primary now
		}
		conn, err := net.DialTimeout("tcp", s.primaryAddr, replTimeout)
		if err == nil {
			wait = 10 * time.Millisecond
			s.mu.Lock()
			closed := s.closed
			if !closed {
				s.stdbyConn = conn
			}
			s.mu.Unlock()
			if closed {
				conn.Close()
				return
			}
			s.streamFrom(conn)
			s.mu.Lock()
			s.stdbyConn = nil
			s.mu.Unlock()
			conn.Close()
		}
		select {
		case <-stop:
			return
		case <-time.After(wait):
		}
		if wait < time.Second {
			wait *= 2
		}
	}
}

// streamFrom subscribes on conn and applies the primary's stream until
// the conn breaks (primary death, promotion severing it, or teardown).
func (s *Server) streamFrom(conn net.Conn) {
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	sub := request{
		Op:    opSubscribe,
		ReqID: 1,
		R0:    int32(s.pin.grid.Rows),
		C0:    int32(s.pin.grid.Cols),
	}
	conn.SetDeadline(time.Now().Add(replTimeout))
	if err := writeFrame(bw, encodeRequest(nil, &sub)); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
	body, err := readFrame(br)
	if err != nil {
		return
	}
	var resp response
	if err := decodeResponse(body, &resp); err != nil || resp.Status != statusOK {
		return
	}
	state, err := readFrame(br)
	if err != nil {
		return
	}
	var st snapshotState
	if err := gob.NewDecoder(bytes.NewReader(state)).Decode(&st); err != nil {
		return
	}
	if err := s.installState(&st); err != nil {
		return
	}
	conn.SetDeadline(time.Time{})
	var ack [8]byte
	for {
		body, err := readFrame(br)
		if err != nil {
			return
		}
		var rec request
		seq, err := decodeRecord(body, &rec)
		if err != nil {
			return
		}
		if err := s.applyStream(seq, &rec); err != nil {
			return
		}
		binary.LittleEndian.PutUint64(ack[:], seq)
		if err := writeFrame(bw, ack[:]); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// installState replaces the standby's state with the primary's state
// sync. A durable standby persists it as its own snapshot and resets its
// journal, so the sync point is recoverable without the primary.
func (s *Server) installState(st *snapshotState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.standby.Load() {
		return fmt.Errorf("netga: promoted mid-sync")
	}
	if err := s.restoreLocked(st); err != nil {
		return err
	}
	if s.jr != nil {
		st.Standby = true
		// The reset must land: stale journal records with seq beyond the
		// synced snapshot would replay on top of it and corrupt recovery.
		// Abandoning the stream here makes the reconnect loop retry the
		// whole state sync.
		return s.checkpointLocked(st)
	}
	return nil
}

// applyStream journals (write-ahead, with the primary's sequence number)
// and applies one replicated record, then lets the caller ack it.
func (s *Server) applyStream(seq uint64, rec *request) error {
	s.mu.Lock()
	if !s.standby.Load() || s.closed {
		s.mu.Unlock()
		return fmt.Errorf("netga: no longer a standby")
	}
	if s.jr != nil {
		if err := s.journalLocked(seq, rec); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	if seq > s.seq {
		s.seq = seq
	}
	s.mu.Unlock()
	if err := s.applyRecord(rec); err != nil {
		return err
	}
	atomic.AddInt64(&s.st.ReplApplied, 1)
	s.maybeSnapshot()
	return nil
}
