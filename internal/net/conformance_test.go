package netga

import (
	"context"
	"errors"
	"testing"
	"time"

	"gtfock/internal/dist"
	"gtfock/internal/fault"
	"gtfock/internal/linalg"
)

// The backend conformance table: what dist.Retry.Get and dist.Retry.Acc
// promise about one retried one-sided op, asserted by ONE test body
// against both dist.Backend implementations — the in-process GlobalArray
// with an OpHook and a loopback Client with a seeded fault.Injector, the
// latter against a shard of each session-table policy. It
// replaces the per-backend copies that used to live in
// dist/ga_fault_test.go (TestTryGetDropCountsAndCopiesNothing's retry
// half, TestGetRetryExhaustsAttempts, TestAccFencedRejectsStaleEpoch,
// TestAccFencedRetryRidesOutDrops, TestAccFencedRetryDropFirstNExactlyOnce,
// TestRetryContextDeadlineCapsWallTime) and the retry halves of
// net_test.go's TestPartitionWindowFailsFastThenHeals.

// faults is the transport behavior a conformance case asks for.
type faults struct {
	failFirst  int  // the first n attempts of each op fail, then one succeeds
	failAlways bool // every attempt fails cleanly: provably nothing sent
}

// conformer opens one backend implementation over grid with the requested
// fault behavior. applied reports how often the owner applied an Acc and
// how many repeats it absorbed (nil where a repeat cannot happen).
type conformer struct {
	name      string
	open      func(t *testing.T, grid *dist.Grid2D, f faults) (ga dist.Backend, applied func() (n, dups int64))
	ambiguous bool // failFirst failures are sent-but-unacknowledged, not clean
}

var conformers = []conformer{
	{
		name: "GlobalArray",
		open: func(t *testing.T, grid *dist.Grid2D, f faults) (dist.Backend, func() (int64, int64)) {
			ga := dist.NewGlobalArray(grid, dist.NewRunStats(grid.NumProcs()))
			left := map[dist.OpKind]int{dist.OpGet: f.failFirst, dist.OpAcc: f.failFirst}
			ga.SetOpHook(func(_ int, op dist.OpKind) (time.Duration, bool) {
				if f.failAlways || left[op] > 0 {
					left[op]--
					return 0, true
				}
				return 0, false
			})
			return ga, nil
		},
	},
	clientConformer("Client", pinnedTable),
	clientConformer("ClientAdmitting", admittingTable),
}

// clientConformer is a loopback Client against one shard of the given
// session-table policy.
func clientConformer(name string, table tableKind) conformer {
	return conformer{
		name:      name,
		ambiguous: true,
		open: func(t *testing.T, grid *dist.Grid2D, f faults) (dist.Backend, func() (int64, int64)) {
			addrs, assign, servers := table.start(t, grid, 1)
			cfg := fault.Config{Seed: 11}
			if f.failFirst > 0 {
				// Certain resets, capped at n in a row: n attempts are sent and
				// torn down before the answer, the next one is delivered.
				cfg.NetResetProb, cfg.MaxConsecutiveNetFaults = 1, f.failFirst
			}
			if f.failAlways {
				// One partition window outlasting the test: fail fast, unsent.
				cfg.NetPartitionProb, cfg.NetPartitionFor = 1, time.Hour
			}
			c, err := Dial(grid, nil, addrs, assign, Config{Array: 1, Session: 77, Fault: fault.New(cfg)})
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			t.Cleanup(c.Close)
			return c, func() (int64, int64) {
				st := servers[0].Stats()
				return st.AccApplied, st.AccDups
			}
		},
	}
}

// wantAppliedOnce waits for the owner to have seen every delivery of one
// Acc (a torn-down attempt's frame may still be in flight when the op
// returns) and checks it applied one and absorbed the other repeats.
func wantAppliedOnce(t *testing.T, applied func() (n, dups int64), repeats int64) {
	t.Helper()
	waitFor(t, 5*time.Second, func() bool {
		n, dups := applied()
		return n+dups == repeats+1
	}, "every delivery to reach the owner")
	if n, dups := applied(); n != 1 || dups != repeats {
		t.Fatalf("owner applied %d / absorbed %d repeats, want 1 / %d", n, dups, repeats)
	}
}

type fixedFence map[int]int64

func (f fixedFence) ValidEpoch(proc int, epoch int64) bool { return f[proc] == epoch }

func TestBackendConformance(t *testing.T) {
	// Rank 0 works on a patch inside rank 1's block, so every op is remote.
	grid := dist.UniformGrid2D(1, 2, 2, 4)
	const proc, r0, r1, c0, c1 = 0, 0, 2, 2, 4
	src := []float64{1, 2, 3, 4}
	// Backoffs of zero keep the cases fast; the deadline cases use one far
	// beyond their deadline so the retry count at expiry is exact.
	fast := dist.Retry{Attempts: 8}
	slow := dist.Retry{Attempts: 8, Backoff: time.Hour}
	patch := func(t *testing.T, ga dist.Backend) []float64 {
		m := mustMatrix(t, ga)
		return []float64{m.At(0, 2), m.At(0, 3), m.At(1, 2), m.At(1, 3)}
	}
	wantPatch := func(t *testing.T, ga dist.Backend, want []float64) {
		t.Helper()
		got := patch(t, ga)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("patch = %v, want %v", got, want)
			}
		}
	}
	zero := []float64{0, 0, 0, 0}

	for _, cf := range conformers {
		t.Run(cf.name, func(t *testing.T) {
			t.Run("fail first N then succeed", func(t *testing.T) {
				const n = 3
				ga, applied := cf.open(t, grid, faults{failFirst: n})
				stats := dist.NewRunStats(2)
				retries, err := fast.Acc(context.Background(), ga, stats, fixedFence{proc: 1}, false, proc, 1, r0, r1, c0, c1, src, 2, 1)
				if err != nil || retries != n {
					t.Fatalf("Acc: retries=%d err=%v, want %d retries", retries, err, n)
				}
				dst := make([]float64, 4)
				retries, err = fast.Get(context.Background(), ga, stats, proc, r0, r1, c0, c1, dst, 2)
				if err != nil || retries != n {
					t.Fatalf("Get: retries=%d err=%v, want %d retries", retries, err, n)
				}
				// The value landed once — not zero times, not once per attempt.
				for i := range src {
					if dst[i] != src[i] {
						t.Fatalf("Get read %v, want %v", dst, src)
					}
				}
				if applied != nil {
					wantAppliedOnce(t, applied, n)
				}
				// One charge per op, every retry counted, in the caller's stats.
				if st := stats.Per[proc]; st.Calls != 2 || st.Bytes != 64 || st.RemoteBytes != 64 || stats.Recovery.OpRetries != 2*n {
					t.Fatalf("charged %+v with %d retries, want 2 calls / 64 remote bytes / %d retries", st, stats.Recovery.OpRetries, 2*n)
				}
			})

			t.Run("attempts exhausted", func(t *testing.T) {
				ga, _ := cf.open(t, grid, faults{failAlways: true})
				stats := dist.NewRunStats(2)
				retries, err := dist.Retry{Attempts: 3}.Get(context.Background(), ga, stats, proc, r0, r1, c0, c1, make([]float64, 4), 2)
				if !errors.Is(err, dist.ErrDropped) && !errors.Is(err, ErrPartitioned) {
					t.Fatalf("want the last attempt's error, got %v", err)
				}
				if retries != 2 || stats.Recovery.OpRetries != 2 {
					t.Fatalf("retries = %d (stats %d), want attempts-1 = 2", retries, stats.Recovery.OpRetries)
				}
			})

			t.Run("deadline inside a backoff", func(t *testing.T) {
				ga, applied := cf.open(t, grid, faults{failAlways: true})
				stats := dist.NewRunStats(2)
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
				defer cancel()
				retries, err := slow.Get(ctx, ga, stats, proc, r0, r1, c0, c1, make([]float64, 4), 2)
				if !errors.Is(err, context.DeadlineExceeded) || retries != 1 {
					t.Fatalf("Get: retries=%d err=%v, want 1 retry and the deadline", retries, err)
				}
				// The wall cap is the same deadline, armed by the first failure.
				capped := slow
				capped.WallCap = 20 * time.Millisecond
				retries, err = capped.Acc(nil, ga, stats, nil, false, proc, 1, r0, r1, c0, c1, src, 2, 1)
				if !errors.Is(err, context.DeadlineExceeded) || retries != 1 {
					t.Fatalf("Acc: retries=%d err=%v, want 1 retry and the deadline", retries, err)
				}
				if stats.Recovery.OpRetries != 2 {
					t.Fatalf("OpRetries = %d, want 2", stats.Recovery.OpRetries)
				}
				wantPatch(t, ga, zero)
				if applied != nil {
					if n, _ := applied(); n != 0 {
						t.Fatalf("clean abandonment applied %d Accs", n)
					}
				}
			})

			t.Run("stale epoch before any send", func(t *testing.T) {
				ga, _ := cf.open(t, grid, faults{})
				fence := fixedFence{proc: 3}
				retries, err := fast.Acc(context.Background(), ga, nil, fence, false, proc, 2, r0, r1, c0, c1, src, 2, 1)
				if !errors.Is(err, dist.ErrFenced) || retries != 0 {
					t.Fatalf("stale epoch: retries=%d err=%v, want ErrFenced", retries, err)
				}
				wantPatch(t, ga, zero)
				// The live epoch applies; and once an earlier patch of the
				// flush has landed, the fence is no longer consulted.
				if _, err := fast.Acc(context.Background(), ga, nil, fence, false, proc, 3, r0, r1, c0, c1, src, 2, 2); err != nil {
					t.Fatalf("live epoch: %v", err)
				}
				if _, err := fast.Acc(context.Background(), ga, nil, fence, true, proc, 2, r0, r1, c0, c1, src, 2, 1); err != nil {
					t.Fatalf("landed flush: %v", err)
				}
				wantPatch(t, ga, []float64{3, 6, 9, 12})
			})

			t.Run("ambiguous failure after send", func(t *testing.T) {
				if !cf.ambiguous {
					t.Skip("an in-process attempt applies or provably does not: no ambiguous outcome exists")
				}
				const n = 3
				ga, applied := cf.open(t, grid, faults{failFirst: n})
				stats := dist.NewRunStats(2)
				// The context is dead before the op starts and the wall cap is
				// tiny, but the first attempt is sent: from there the loop
				// retries to resolution regardless.
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				rt := dist.Retry{Backoff: time.Millisecond, WallCap: time.Nanosecond}
				retries, err := rt.Acc(ctx, ga, stats, fixedFence{proc: 1}, false, proc, 1, r0, r1, c0, c1, src, 2, 1)
				if err != nil || retries != n {
					t.Fatalf("Acc past the point of no return: retries=%d err=%v, want %d retries and success", retries, err, n)
				}
				wantPatch(t, ga, src)
				wantAppliedOnce(t, applied, n)
			})
		})
	}
}

// The loop hands every retry of one Acc the token its first attempt
// minted, and mints a fresh one per op; the in-process array mints none.
func TestAccTokenMintedOncePerOp(t *testing.T) {
	grid := dist.UniformGrid2D(1, 1, 2, 2)
	addrs, assign, _ := startCluster(t, grid, 1)
	c, err := Dial(grid, nil, addrs, assign, Config{Array: 1, Session: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	src := []float64{1, 1, 1, 1}
	first, sent, err := c.TryAcc(0, 0, 0, 2, 0, 2, src, 2, 1)
	if err != nil || !sent || first == 0 {
		t.Fatalf("first attempt: token=%d sent=%v err=%v", first, sent, err)
	}
	again, _, err := c.TryAcc(0, first, 0, 2, 0, 2, src, 2, 1)
	if err != nil || again != first {
		t.Fatalf("retry changed the token: %d -> %d (%v)", first, again, err)
	}
	next, _, err := c.TryAcc(0, 0, 0, 2, 0, 2, src, 2, 1)
	if err != nil || next == first || next>>56 != 2 {
		t.Fatalf("next op's token %#x (first %#x): want a fresh one in array 1's space", next, first)
	}
	if d := linalg.MaxAbsDiff(mustMatrix(t, c), fill(2, 2, func(int, int) float64 { return 2 })); d != 0 {
		t.Fatalf("two ops and one repeat accumulated off by %g from 2", d)
	}
	ga := dist.NewGlobalArray(grid, dist.NewRunStats(1))
	if tok, sent, err := ga.TryAcc(0, 0, 0, 2, 0, 2, src, 2, 1); tok != 0 || !sent || err != nil {
		t.Fatalf("in-process TryAcc: token=%d sent=%v err=%v", tok, sent, err)
	}
}
