package dist

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gtfock/internal/linalg"
)

// ErrDropped reports a one-sided operation that was lost in transport
// before being applied (injected fault); the caller may safely retry.
var ErrDropped = errors.New("dist: one-sided operation dropped")

// ErrFenced reports an accumulate rejected by epoch fencing: the calling
// process incarnation has been declared dead and its contribution must
// be discarded, not applied.
var ErrFenced = errors.New("dist: accumulate fenced (stale epoch)")

// OpKind classifies one-sided operations for the fault hook.
type OpKind int

const (
	OpGet OpKind = iota
	OpPut
	OpAcc
)

// OpHook is consulted by the fallible Try*/fenced operations before they
// apply: delay is slept first, and drop=true fails the operation with
// ErrDropped without applying it. The infallible Get/Put/Acc never
// consult the hook, so fault-oblivious code paths are unaffected.
type OpHook func(proc int, op OpKind) (delay time.Duration, drop bool)

// Fence validates accumulate epochs: AccFenced applies a contribution
// only while ValidEpoch(proc, epoch) holds, discarding late flushes from
// zombie process incarnations.
type Fence interface {
	ValidEpoch(proc int, epoch int64) bool
}

// GlobalArray is a shared-memory stand-in for a Global Arrays 2D
// block-distributed array: goroutine "processes" address it with one-sided
// Get/Put/Acc operations on arbitrary rectangular patches, and every
// operation is accounted against the calling process exactly as the paper
// instruments GA (call counts and transfer volumes, Tables VI/VII; volumes
// include local transfers, matching the paper's measurement note in
// Sec. IV-C).
//
// Concurrency contract: Acc and Put from concurrent processes are safe
// (per-owner-block locking). Get is unsynchronized and must be separated
// from writes by a barrier, which is how the Fock builders use it
// (prefetch phase reads D; accumulate phase writes F).
type GlobalArray struct {
	Grid  *Grid2D
	data  []float64
	locks []sync.Mutex // one per owner block
	stats *RunStats
	hook  OpHook
	fence Fence
}

// SetOpHook installs the fault hook consulted by the fallible
// operations (TryGet/TryPut/TryAcc/AccFenced).
func (g *GlobalArray) SetOpHook(h OpHook) { g.hook = h }

// SetFence installs the epoch authority consulted by AccFenced.
func (g *GlobalArray) SetFence(f Fence) { g.fence = f }

// NewGlobalArray creates a zeroed global array over grid, accounting into
// stats (which must have grid.NumProcs() entries).
func NewGlobalArray(grid *Grid2D, stats *RunStats) *GlobalArray {
	return &GlobalArray{
		Grid:  grid,
		data:  make([]float64, grid.Rows*grid.Cols),
		locks: make([]sync.Mutex, grid.NumProcs()),
		stats: stats,
	}
}

// charge records one one-sided call touching the given patches.
func (g *GlobalArray) charge(proc int, r0, r1, c0, c1 int) {
	st := &g.stats.Per[proc]
	st.Calls++
	elems := int64(r1-r0) * int64(c1-c0)
	st.Bytes += 8 * elems
	for _, p := range g.Grid.Patches(r0, r1, c0, c1) {
		if p.Proc != proc {
			st.RemoteBytes += 8 * int64(p.Elems())
		}
	}
}

// Get copies the patch [r0,r1) x [c0,c1) into dst with leading dimension
// ld (dst row stride). One GA call.
func (g *GlobalArray) Get(proc, r0, r1, c0, c1 int, dst []float64, ld int) {
	g.charge(proc, r0, r1, c0, c1)
	w := c1 - c0
	for r := r0; r < r1; r++ {
		copy(dst[(r-r0)*ld:(r-r0)*ld+w], g.data[r*g.Grid.Cols+c0:r*g.Grid.Cols+c1])
	}
}

// Put stores src (leading dimension ld) into the patch. One GA call.
func (g *GlobalArray) Put(proc, r0, r1, c0, c1 int, src []float64, ld int) {
	g.charge(proc, r0, r1, c0, c1)
	for _, p := range g.Grid.Patches(r0, r1, c0, c1) {
		g.locks[p.Proc].Lock()
		for r := p.R0; r < p.R1; r++ {
			copy(g.data[r*g.Grid.Cols+p.C0:r*g.Grid.Cols+p.C1],
				src[(r-r0)*ld+(p.C0-c0):(r-r0)*ld+(p.C1-c0)])
		}
		g.locks[p.Proc].Unlock()
	}
}

// Acc atomically accumulates alpha*src into the patch. One GA call.
func (g *GlobalArray) Acc(proc, r0, r1, c0, c1 int, src []float64, ld int, alpha float64) {
	g.charge(proc, r0, r1, c0, c1)
	for _, p := range g.Grid.Patches(r0, r1, c0, c1) {
		g.locks[p.Proc].Lock()
		for r := p.R0; r < p.R1; r++ {
			dst := g.data[r*g.Grid.Cols+p.C0 : r*g.Grid.Cols+p.C1]
			row := src[(r-r0)*ld+(p.C0-c0):]
			for i := range dst {
				dst[i] += alpha * row[i]
			}
		}
		g.locks[p.Proc].Unlock()
	}
}

// precheck runs the fault hook for one fallible operation: it sleeps any
// injected delay and, on a drop, charges the wasted call and returns
// ErrDropped.
func (g *GlobalArray) precheck(proc int, op OpKind) error {
	if g.hook == nil {
		return nil
	}
	delay, drop := g.hook(proc, op)
	if delay > 0 {
		time.Sleep(delay)
	}
	if drop {
		g.stats.Per[proc].Calls++ // the request was issued and lost
		atomic.AddInt64(&g.stats.Recovery.OpDrops, 1)
		return ErrDropped
	}
	return nil
}

// TryGet is Get through the fault hook: it may fail with ErrDropped
// (nothing copied), in which case the caller retries.
func (g *GlobalArray) TryGet(proc, r0, r1, c0, c1 int, dst []float64, ld int) error {
	if err := g.precheck(proc, OpGet); err != nil {
		return err
	}
	g.Get(proc, r0, r1, c0, c1, dst, ld)
	return nil
}

// TryPut is Put through the fault hook.
func (g *GlobalArray) TryPut(proc, r0, r1, c0, c1 int, src []float64, ld int) error {
	if err := g.precheck(proc, OpPut); err != nil {
		return err
	}
	g.Put(proc, r0, r1, c0, c1, src, ld)
	return nil
}

// TryAcc is Acc through the fault hook.
func (g *GlobalArray) TryAcc(proc, r0, r1, c0, c1 int, src []float64, ld int, alpha float64) error {
	if err := g.precheck(proc, OpAcc); err != nil {
		return err
	}
	g.Acc(proc, r0, r1, c0, c1, src, ld, alpha)
	return nil
}

// AccFenced is TryAcc gated by epoch fencing: the contribution is applied
// only if the installed Fence still considers (proc, epoch) a live
// incarnation; a stale epoch returns ErrFenced and changes nothing. A
// drop is reported before the fence so retries re-validate.
func (g *GlobalArray) AccFenced(proc int, epoch int64, r0, r1, c0, c1 int, src []float64, ld int, alpha float64) error {
	if err := g.precheck(proc, OpAcc); err != nil {
		return err
	}
	if g.fence != nil && !g.fence.ValidEpoch(proc, epoch) {
		return ErrFenced
	}
	g.Acc(proc, r0, r1, c0, c1, src, ld, alpha)
	return nil
}

// maxRetryBackoff caps the exponential backoff of the retry wrappers so
// a long retry run polls steadily instead of sleeping unboundedly.
const maxRetryBackoff = time.Second

// Jitter spreads a backoff interval uniformly over [d/2, 3d/2) so
// concurrent retriers desynchronize instead of hammering the transport
// in lockstep (retry-storm avoidance). With NextBackoff and SleepBackoff
// this is the one backoff helper every retry loop in the repository uses.
func Jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// NextBackoff doubles a backoff interval until it reaches the cap
// SleepBackoff applies; a zero interval stays zero.
func NextBackoff(d time.Duration) time.Duration {
	if d > 0 && d < maxRetryBackoff {
		d *= 2
	}
	return d
}

// SleepBackoff sleeps a jittered backoff of nominally d (capped at 1s),
// returning early with ctx.Err() when the context expires first. A nil
// ctx means no deadline. Shared by every retry loop in this repository
// so backoff behavior (cap, jitter, deadline) is uniform across
// transports.
func SleepBackoff(ctx context.Context, d time.Duration) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if d > maxRetryBackoff {
		d = maxRetryBackoff
	}
	d = Jitter(d)
	if d <= 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
			return nil
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// GetRetry retries TryGet with capped, jittered exponential backoff for
// up to attempts tries, counting retries in the recovery stats, and
// abandons early when ctx's deadline expires (bounding the total retry
// wall time). It returns the number of retries it issued (0 on a clean
// first attempt, for the caller's per-worker accounting) and the last
// error when every attempt drops or the deadline passes.
func (g *GlobalArray) GetRetry(ctx context.Context, attempts int, backoff time.Duration, proc, r0, r1, c0, c1 int, dst []float64, ld int) (int, error) {
	if attempts <= 0 {
		attempts = 1
	}
	var err error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			atomic.AddInt64(&g.stats.Recovery.OpRetries, 1)
			if cerr := SleepBackoff(ctx, backoff<<(a-1)); cerr != nil {
				return a - 1, cerr
			}
		}
		if err = g.TryGet(proc, r0, r1, c0, c1, dst, ld); err == nil {
			return a, nil
		}
	}
	return attempts - 1, err
}

// AccFencedRetry retries AccFenced until it applies or is fenced, with
// capped, jittered exponential backoff between attempts. Drops are
// retried until ctx expires — with a deadline-free ctx, indefinitely;
// liveness then holds because the injector bounds consecutive drops —
// so a commit in progress either lands every patch exactly once, is
// rejected whole by a stale epoch, or (deadline) reports ctx.Err() to a
// caller that must still be before its point of no return. The retry
// count feeds the caller's per-worker accounting.
func (g *GlobalArray) AccFencedRetry(ctx context.Context, backoff time.Duration, proc int, epoch int64, r0, r1, c0, c1 int, src []float64, ld int, alpha float64) (int, error) {
	wait := backoff
	for retries := 0; ; retries++ {
		err := g.AccFenced(proc, epoch, r0, r1, c0, c1, src, ld, alpha)
		if err == nil || errors.Is(err, ErrFenced) {
			return retries, err
		}
		atomic.AddInt64(&g.stats.Recovery.OpRetries, 1)
		if cerr := SleepBackoff(ctx, wait); cerr != nil {
			return retries, cerr
		}
		wait = NextBackoff(wait)
	}
}

// ToMatrix copies the full array into a dense matrix (no accounting; a
// host-side convenience for verification and output).
func (g *GlobalArray) ToMatrix() *linalg.Matrix {
	m := linalg.NewMatrix(g.Grid.Rows, g.Grid.Cols)
	copy(m.Data, g.data)
	return m
}

// LoadMatrix fills the array from a dense matrix (no accounting).
func (g *GlobalArray) LoadMatrix(m *linalg.Matrix) {
	if m.Rows != g.Grid.Rows || m.Cols != g.Grid.Cols {
		panic("dist: LoadMatrix shape mismatch")
	}
	copy(g.data, m.Data)
}

// Zero resets all elements (no accounting).
func (g *GlobalArray) Zero() {
	for i := range g.data {
		g.data[i] = 0
	}
}

// RunProcs runs fn(rank) on p concurrent goroutine processes and waits for
// all of them (the SPMD launch used by real-mode algorithms).
func RunProcs(p int, fn func(rank int)) {
	var wg sync.WaitGroup
	wg.Add(p)
	for rank := 0; rank < p; rank++ {
		go func(r int) {
			defer wg.Done()
			fn(r)
		}(rank)
	}
	wg.Wait()
}
