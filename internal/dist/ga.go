package dist

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gtfock/internal/linalg"
)

// OpKind classifies one-sided operations for the fault hook.
type OpKind int

const (
	OpGet OpKind = iota
	OpAcc
)

// OpHook is consulted by the single-attempt TryGet/TryAcc before they
// apply: delay is slept first, and drop=true fails the attempt with
// ErrDropped without applying it. The infallible Get/Put/Acc never
// consult the hook, so fault-oblivious code paths are unaffected.
type OpHook func(proc int, op OpKind) (delay time.Duration, drop bool)

// GlobalArray is a shared-memory stand-in for a Global Arrays 2D
// block-distributed array: goroutine "processes" address it with one-sided
// Get/Put/Acc operations on arbitrary rectangular patches, and every
// operation is accounted against the calling process exactly as the paper
// instruments GA (call counts and transfer volumes, Tables VI/VII; volumes
// include local transfers, matching the paper's measurement note in
// Sec. IV-C; see RunStats.Charge). The single-attempt TryGet/TryAcc of the
// Backend interface are the exception: Retry.Get/Acc charge those, once
// per op, to the build that issued them.
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
}

// GlobalArray implements Backend.
var _ Backend = (*GlobalArray)(nil)

// Layout returns the grid of the array (Backend interface).
func (g *GlobalArray) Layout() *Grid2D { return g.Grid }

// SetOpHook installs the fault hook consulted by TryGet and TryAcc.
func (g *GlobalArray) SetOpHook(h OpHook) { g.hook = h }

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

// Get copies the patch [r0,r1) x [c0,c1) into dst with leading dimension
// ld (dst row stride). One GA call.
func (g *GlobalArray) Get(proc, r0, r1, c0, c1 int, dst []float64, ld int) {
	g.stats.Charge(g.Grid, proc, r0, r1, c0, c1)
	g.read(r0, r1, c0, c1, dst, ld)
}

func (g *GlobalArray) read(r0, r1, c0, c1 int, dst []float64, ld int) {
	w := c1 - c0
	for r := r0; r < r1; r++ {
		copy(dst[(r-r0)*ld:(r-r0)*ld+w], g.data[r*g.Grid.Cols+c0:r*g.Grid.Cols+c1])
	}
}

// Put stores src (leading dimension ld) into the patch. One GA call.
func (g *GlobalArray) Put(proc, r0, r1, c0, c1 int, src []float64, ld int) {
	g.stats.Charge(g.Grid, proc, r0, r1, c0, c1)
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
	g.stats.Charge(g.Grid, proc, r0, r1, c0, c1)
	for _, p := range g.Grid.Patches(r0, r1, c0, c1) {
		g.addPatch(p, r0, c0, src, ld, alpha)
	}
}

// addPatch accumulates into one owner's patch p of a region whose src
// image starts at (r0, c0), under that owner's lock.
func (g *GlobalArray) addPatch(p Patch, r0, c0 int, src []float64, ld int, alpha float64) {
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

// precheck runs the fault hook for one attempt: it sleeps any injected
// delay and, on a drop, counts it and returns ErrDropped.
func (g *GlobalArray) precheck(proc int, op OpKind) error {
	if g.hook == nil {
		return nil
	}
	delay, drop := g.hook(proc, op)
	if delay > 0 {
		time.Sleep(delay)
	}
	if drop {
		atomic.AddInt64(&g.stats.Recovery.OpDrops, 1)
		return ErrDropped
	}
	return nil
}

// TryGet is one attempt at a Get through the fault hook (Backend
// interface): it may fail with ErrDropped, nothing copied. Not accounted
// here — the retry loop charges the op once.
func (g *GlobalArray) TryGet(proc, r0, r1, c0, c1 int, dst []float64, ld int) error {
	if err := g.precheck(proc, OpGet); err != nil {
		return err
	}
	g.read(r0, r1, c0, c1, dst, ld)
	return nil
}

// TryAcc is one attempt at an Acc through the fault hook (Backend
// interface). A drop happens before anything is applied and an applied
// attempt cannot fail, so no outcome is ambiguous: the array needs no
// idempotency token (it mints 0) and sent is simply "applied".
func (g *GlobalArray) TryAcc(proc int, _ uint64, r0, r1, c0, c1 int, src []float64, ld int, alpha float64) (uint64, bool, error) {
	if err := g.precheck(proc, OpAcc); err != nil {
		return 0, false, err
	}
	owner := Patch{Proc: g.Grid.Owner(r0, c0), R0: r0, R1: r1, C0: c0, C1: c1}
	g.addPatch(owner, r0, c0, src, ld, alpha)
	return 0, true, nil
}

// ToMatrix copies the full array into a dense matrix (no accounting; a
// host-side convenience for verification and output).
func (g *GlobalArray) ToMatrix() (*linalg.Matrix, error) {
	m := linalg.NewMatrix(g.Grid.Rows, g.Grid.Cols)
	copy(m.Data, g.data)
	return m, nil
}

// LoadMatrix fills the array from a dense matrix (no accounting).
func (g *GlobalArray) LoadMatrix(m *linalg.Matrix) error {
	if m.Rows != g.Grid.Rows || m.Cols != g.Grid.Cols {
		return fmt.Errorf("dist: LoadMatrix shape %dx%d, grid %dx%d", m.Rows, m.Cols, g.Grid.Rows, g.Grid.Cols)
	}
	copy(g.data, m.Data)
	return nil
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
