package netga

import (
	"net"
	"testing"
	"time"

	"gtfock/internal/dist"
)

// Once a standby has subscribed, the primary must never again ack a
// replicated op without it: losing the stream could mean the standby was
// promoted over a stalled or partially partitioned primary, and a solo
// statusOK would be an accumulation that exists only on the superseded
// server — silently missing from the shard the build reads. The primary
// answers statusRetry until a subscriber re-attaches; the idempotency
// token keeps the client's retries exactly-once.
func TestPrimaryRefusesSoloAckAfterStandbyLoss(t *testing.T) {
	grid := dist.UniformGrid2D(1, 1, 4, 4)
	p := NewServer(grid, []int{0})
	addr, err := p.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	if resp := p.handle(&request{Op: opHello, Session: 9, R0: 4, C0: 4, Msg: layoutMsg(grid)}); resp.Status != statusOK {
		t.Fatalf("hello: %s", resp.Msg)
	}
	hasSub := func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.sub != nil
	}
	acc := func(token uint64, val float64) response {
		return p.handle(&request{
			Op: opAcc, Array: 0, Session: 9, Token: token, Alpha: 1,
			R0: 0, R1: 1, C0: 0, C1: 1, Data: []float64{val},
		})
	}

	sb := NewServer(grid, []int{0}, WithStandby(addr))
	if _, err := sb.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, hasSub, "standby subscription")
	if resp := acc(1, 2); resp.Status != statusOK {
		t.Fatalf("replicated acc: status %d (%s)", resp.Status, resp.Msg)
	}

	sb.Close() // for all the primary knows, the standby was promoted

	// The loss surfaces on the failed semi-sync forward: statusRetry, not
	// a solo OK, and the token stays unmarked so the retry can land.
	if resp := acc(2, 3); resp.Status != statusRetry {
		t.Fatalf("acc across standby loss: status %d (%s), want statusRetry", resp.Status, resp.Msg)
	}
	// With no subscriber at all the refusal is immediate.
	if resp := acc(3, 4); resp.Status != statusRetry {
		t.Fatalf("acc with no subscriber: status %d (%s), want statusRetry", resp.Status, resp.Msg)
	}

	// A re-attached standby restores service; the retried token applies
	// exactly once.
	sb2 := NewServer(grid, []int{0}, WithStandby(addr))
	if _, err := sb2.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sb2.Close)
	waitFor(t, 5*time.Second, hasSub, "standby re-subscription")
	if resp := acc(2, 3); resp.Status != statusOK {
		t.Fatalf("retried acc after re-subscribe: status %d (%s)", resp.Status, resp.Msg)
	}
	if resp := acc(2, 3); resp.Status != statusOK || resp.Dup != 1 {
		t.Fatalf("duplicate retry not absorbed: %+v", resp)
	}
	get := p.handle(&request{Op: opGet, Array: 0, Session: 9, R0: 0, R1: 1, C0: 0, C1: 1})
	if get.Status != statusOK || get.Data[0] != 5 {
		t.Fatalf("cell(0,0) = %v after refused+retried accs, want 5 (2+3, each once)", get.Data)
	}
}

// A conn dialed before a promotion must not serve (or re-enter the pool)
// after the route moved: checked-out conns are tagged with their dial
// address and dropped on return once the router points elsewhere.
func TestConnPoolDropsSupersededConns(t *testing.T) {
	listen := func() net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go func() {
			for {
				if _, err := ln.Accept(); err != nil {
					return
				}
			}
		}()
		return ln
	}
	lnA, lnB := listen(), listen()
	rt := NewRouter([]string{lnA.Addr().String()}, time.Second, nil)
	p := &connPool{router: rt, slot: 0, timeout: time.Second, rpc: rt.rpc}

	c1, err := p.get()
	if err != nil {
		t.Fatal(err)
	}
	if c1.addr != lnA.Addr().String() {
		t.Fatalf("dialed %s, want %s", c1.addr, lnA.Addr())
	}
	// A promotion swaps the route while c1 is checked out.
	rt.mu.Lock()
	rt.slots[0].addr = lnB.Addr().String()
	rt.mu.Unlock()

	p.put(c1)
	if idle := idleConns(rt.conns); idle != 0 {
		t.Fatal("conn to the superseded primary re-entered the pool")
	}
	c2, err := p.get()
	if err != nil {
		t.Fatal(err)
	}
	if c2.addr != lnB.Addr().String() {
		t.Fatalf("post-promotion get dialed %s, want new primary %s", c2.addr, lnB.Addr())
	}
	p.put(c2)
	if idle := idleConns(rt.conns); idle != 1 {
		t.Fatal("current-address conn was not pooled")
	}
}
