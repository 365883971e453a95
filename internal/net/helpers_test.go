package netga

import (
	"context"
	"testing"
	"time"

	"gtfock/internal/dist"
	"gtfock/internal/linalg"
)

// testRetry is the budget of the one-off Get/Acc calls tests make through
// the dist retry loop.
var testRetry = dist.Retry{Attempts: 3, Backoff: time.Millisecond}

// getPatch and accPatch issue one single-owner op through the one retry
// loop, unfenced, charged to the stats the client was dialed with.
func getPatch(c *Client, proc, r0, r1, c0, c1 int, dst []float64, ld int) (int, error) {
	return testRetry.Get(context.Background(), c, c.stats, proc, r0, r1, c0, c1, dst, ld)
}

func accPatch(c *Client, proc, r0, r1, c0, c1 int, src []float64, ld int, alpha float64) (int, error) {
	return testRetry.Acc(context.Background(), c, c.stats, nil, false, proc, 0, r0, r1, c0, c1, src, ld, alpha)
}

func mustLoad(t *testing.T, ga dist.Backend, m *linalg.Matrix) {
	t.Helper()
	if err := ga.LoadMatrix(m); err != nil {
		t.Fatalf("LoadMatrix: %v", err)
	}
}

func mustMatrix(t *testing.T, ga dist.Backend) *linalg.Matrix {
	t.Helper()
	m, err := ga.ToMatrix()
	if err != nil {
		t.Fatalf("ToMatrix: %v", err)
	}
	return m
}

// firstPool is the conn pool of c's slot 0.
func firstPool(c *Client) *connPool {
	p, _ := c.router.pool(0, c.cfg.Session)
	return p
}

// idleConns counts the conns idle in cs, to every address.
func idleConns(cs *Conns) int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	n := 0
	for _, idle := range cs.idle {
		n += len(idle)
	}
	return n
}
