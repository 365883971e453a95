package netga

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// frameConn is one accepted conn with its buffered reader and writer.
type frameConn struct {
	net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

// serveFunc answers one frame of a connLoop: req is the decoded request,
// or bad says why the frame did not decode. A handler that takes the conn
// over (the replication subscription) reports hijacked; the loop then
// neither answers on the conn nor closes it.
type serveFunc func(fc *frameConn, req *request, bad error) (resp response, hijacked bool)

// connLoop is the package's one framed accept/serve loop: the shard
// Server and the Fleet coordinator embed it, and an in-memory listener for
// a whole-stack simulator has this one place to plug in. mu doubles as the
// embedder's state mutex, so closing or draining the loop is atomic with
// the embedder's own bookkeeping (a replication subscriber is registered
// only while the loop is provably open).
type connLoop struct {
	mu       sync.Mutex
	conns    map[net.Conn]bool
	closed   bool
	draining bool // accept nothing new; drop each conn after its next response

	ln       net.Listener
	boundTo  string
	wg       sync.WaitGroup // the accept loop, its conns, and the embedder's goroutines
	inflight atomic.Int64   // requests being served (drain waits for zero)
}

// listen binds addr and answers every accepted conn's frames with serve,
// in background goroutines, until the loop is closed or drained. It
// returns the bound address.
func (l *connLoop) listen(addr string, serve serveFunc) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	l.ln, l.boundTo = ln, ln.Addr().String()
	l.conns = map[net.Conn]bool{}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			l.mu.Lock()
			if l.closed || l.draining {
				l.mu.Unlock()
				conn.Close()
				return
			}
			l.conns[conn] = true
			l.mu.Unlock()
			l.wg.Add(1)
			go func() {
				defer l.wg.Done()
				l.serveConn(conn, serve)
			}()
		}
	}()
	return l.boundTo, nil
}

// Addr returns the bound address (valid after Start).
func (l *connLoop) Addr() string { return l.boundTo }

func (l *connLoop) serveConn(conn net.Conn, serve serveFunc) {
	hijacked := false
	defer func() {
		if !hijacked {
			conn.Close()
		}
		l.mu.Lock()
		delete(l.conns, conn)
		l.mu.Unlock()
	}()
	fc := &frameConn{Conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	var buf []byte
	for {
		body, err := readFrame(fc.br)
		if err != nil {
			return // client closed, reset, or corrupt stream
		}
		var req request
		var resp response
		bad := decodeRequest(body, &req)
		l.inflight.Add(1)
		resp, hijacked = serve(fc, &req, bad)
		l.inflight.Add(-1)
		if hijacked {
			return
		}
		buf = encodeResponse(buf, &resp)
		if writeFrame(fc.bw, buf) != nil || fc.bw.Flush() != nil {
			return
		}
		l.mu.Lock()
		drain := l.draining
		l.mu.Unlock()
		if drain {
			return
		}
	}
}

// closeLocked marks the loop closed and severs every tracked conn; false
// means it already was. Caller holds l.mu, and calls join after releasing
// it.
func (l *connLoop) closeLocked() bool {
	if l.closed {
		return false
	}
	l.closed = true
	for c := range l.conns {
		c.Close()
	}
	return true
}

// join closes the listener and waits for every goroutine on wg.
func (l *connLoop) join() {
	if l.ln != nil {
		l.ln.Close()
	}
	l.wg.Wait()
}

// drain stops accepting and waits, bounded by wait, until no request is
// in flight. False means the loop was already closed or draining.
func (l *connLoop) drain(wait time.Duration) bool {
	l.mu.Lock()
	if l.closed || l.draining {
		l.mu.Unlock()
		return false
	}
	l.draining = true
	l.mu.Unlock()
	if l.ln != nil {
		l.ln.Close()
	}
	deadline := time.Now().Add(wait)
	for l.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return true
}
