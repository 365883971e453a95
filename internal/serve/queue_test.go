package serve

import (
	"context"
	"fmt"
	"testing"
)

func qjob(tenant string, prio int) *Job {
	ctx, cancel := context.WithCancelCause(context.Background())
	return newJob(fmt.Sprintf("%s-p%d", tenant, prio),
		JobSpec{Tenant: tenant, Priority: prio}, JobSize{NumBF: 10, Fixed: 1}, 1, ctx, cancel)
}

// Weighted fair share: with tenants at weights 3:1 and saturated
// queues, dispatches interleave roughly 3 A's per B — never starving B.
func TestFairShareWeights(t *testing.T) {
	q := newFairQueue(100)
	a := q.tenant("A", 3, 0, 0)
	b := q.tenant("B", 1, 0, 0)
	for i := 0; i < 30; i++ {
		if _, err := q.push(a, qjob("A", 0)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := q.push(b, qjob("B", 0)); err != nil {
			t.Fatal(err)
		}
	}
	counts := map[string]int{}
	for i := 0; i < 20; i++ {
		j := q.pop()
		if j == nil {
			t.Fatal("queue dried up early")
		}
		counts[j.Spec.Tenant]++
		q.release(q.tenants[j.Spec.Tenant])
	}
	if counts["A"] != 15 || counts["B"] != 5 {
		t.Fatalf("20 dispatches split %v, want 3:1 (15/5)", counts)
	}
}

// A tenant appearing mid-run starts at the current minimum virtual
// time: it gets its fair share going forward, not a catch-up monopoly.
func TestFairShareLateJoinerNoMonopoly(t *testing.T) {
	q := newFairQueue(100)
	a := q.tenant("A", 1, 0, 0)
	for i := 0; i < 40; i++ {
		q.push(a, qjob("A", 0))
	}
	for i := 0; i < 10; i++ {
		j := q.pop()
		q.release(q.tenants[j.Spec.Tenant])
	}
	b := q.tenant("B", 1, 0, 0)
	for i := 0; i < 10; i++ {
		q.push(b, qjob("B", 0))
	}
	counts := map[string]int{}
	for i := 0; i < 10; i++ {
		j := q.pop()
		counts[j.Spec.Tenant]++
		q.release(q.tenants[j.Spec.Tenant])
	}
	if counts["B"] > 6 {
		t.Fatalf("late joiner took %d of 10 slots (monopoly); want ~5", counts["B"])
	}
	if counts["B"] < 4 {
		t.Fatalf("late joiner got only %d of 10 slots (starved); want ~5", counts["B"])
	}
}

// Per-tenant quotas: MaxQueued rejects the tenant's own overflow
// without touching other tenants; MaxRunning skips the tenant at
// dispatch until a slot frees.
func TestTenantQuotas(t *testing.T) {
	q := newFairQueue(100)
	a := q.tenant("A", 1, 2, 1)
	b := q.tenant("B", 1, 0, 0)
	if _, err := q.push(a, qjob("A", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := q.push(a, qjob("A", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := q.push(a, qjob("A", 0)); err == nil || err.cause != "tenant_quota" {
		t.Fatalf("third queued job for quota-2 tenant: %v", err)
	}
	if _, err := q.push(b, qjob("B", 0)); err != nil {
		t.Fatalf("other tenant caught A's quota: %v", err)
	}

	// A's first dispatch occupies its MaxRunning=1; the next pops must
	// come from B until A releases.
	if j := q.pop(); j.Spec.Tenant != "A" && j.Spec.Tenant != "B" {
		t.Fatalf("unexpected tenant %s", j.Spec.Tenant)
	}
	a.running = 1 // force the interesting state regardless of pop order
	for i := 0; i < 1; i++ {
		j := q.pop()
		if j == nil {
			break
		}
		if j.Spec.Tenant == "A" {
			t.Fatal("tenant over MaxRunning dispatched")
		}
	}
}

// The shedding ladder: a full queue sheds its lowest-priority entry for
// a strictly higher-priority arrival, and rejects arrivals that do not
// outrank anything queued.
func TestShedLadder(t *testing.T) {
	q := newFairQueue(2)
	a := q.tenant("A", 1, 0, 0)
	lo := qjob("A", 0)
	mid := qjob("A", 1)
	if _, err := q.push(a, lo); err != nil {
		t.Fatal(err)
	}
	if _, err := q.push(a, mid); err != nil {
		t.Fatal(err)
	}

	// Equal priority does not displace: explicit rejection.
	if _, err := q.push(a, qjob("A", 0)); err == nil || err.cause != "queue_full" {
		t.Fatalf("equal-priority arrival into full queue: %v", err)
	}

	// Higher priority sheds the lowest-priority victim.
	hi := qjob("A", 5)
	shed, err := q.push(a, hi)
	if err != nil {
		t.Fatalf("high-priority arrival rejected: %v", err)
	}
	if shed != lo {
		t.Fatalf("shed %v, want the lowest-priority job", shed)
	}
	if q.depth != 2 {
		t.Fatalf("depth %d after shed+admit, want 2", q.depth)
	}

	// Dispatch order is priority-descending within the tenant.
	if j := q.pop(); j != hi {
		t.Fatalf("first pop %v, want the high-priority job", j.ID)
	}
	if j := q.pop(); j != mid {
		t.Fatalf("second pop %v, want the mid-priority job", j.ID)
	}
}
