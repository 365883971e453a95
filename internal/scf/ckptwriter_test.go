package scf

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"gtfock/internal/chem"
	"gtfock/internal/dist"
	"gtfock/internal/integrals"
	"gtfock/internal/linalg"
)

// slowSaves makes every checkpoint write of the test wait d before it
// touches the disk: the solver (CH4/sto-3g iterates in about a
// millisecond) runs ahead of the writer, hand-offs coalesce, and every
// exit has a pending snapshot to flush.
func slowSaves(t *testing.T, d time.Duration) {
	t.Helper()
	ckptBeforeSave = func(int) { time.Sleep(d) }
	t.Cleanup(func() { ckptBeforeSave = nil })
}

func tinyCheckpoint(iter int) *Checkpoint {
	return &Checkpoint{
		Version: checkpointVersion, Formula: "H2", BasisName: "sto-3g",
		NumFuncs: 2, Iter: iter, Energy: -float64(iter),
		FData: make([]float64, 4), DData: make([]float64, 4),
	}
}

// Latest wins: while one write is in flight, any number of hand-offs
// leave exactly one snapshot waiting, the newest; the ones it replaced
// are never written. While a write is waiting or in flight no snapshot
// is due (at most one write in flight), and once it has ended the next
// is due only after the solve has run as long as that write's Save took.
func TestCkptWriterLatestWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lw.ckpt")
	entered := make(chan int, 4)
	release := make(chan struct{})
	ckptBeforeSave = func(iter int) {
		entered <- iter
		<-release
	}
	t.Cleanup(func() { ckptBeforeSave = nil })

	var writes []CheckpointWrite // appended on the writer goroutine, read after flush
	w := startCkptWriter(path, func(cw CheckpointWrite) { writes = append(writes, cw) })
	if !w.due() {
		t.Fatal("the first snapshot is not due")
	}
	if err := w.submit(tinyCheckpoint(1)); err != nil {
		t.Fatal(err)
	}
	if got := <-entered; got != 1 {
		t.Fatalf("first write is of iteration %d, want 1", got)
	}
	// Iteration 1 is in flight and stuck in its save.
	if w.due() {
		t.Fatal("a snapshot is due while a write is in flight")
	}
	for iter := 2; iter <= 4; iter++ {
		if err := w.submit(tinyCheckpoint(iter)); err != nil {
			t.Fatal(err)
		}
	}
	w.mu.Lock()
	pending := w.pending
	w.mu.Unlock()
	if pending == nil || pending.Iter != 4 {
		t.Fatalf("mailbox after three hand-offs: pending %+v; want iteration 4 alone", pending)
	}
	close(release)
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
	if len(writes) != 2 || writes[0].Iter != 1 || writes[1].Iter != 4 {
		t.Fatalf("durable writes = %+v, want iteration 1, then iteration 4", writes)
	}
	if ck, err := LoadCheckpoint(path); err != nil || ck.Iter != 4 {
		t.Fatalf("file after flush: %+v, %v; want iteration 4", ck, err)
	}
	if ck, err := LoadCheckpoint(path + PrevSuffix); err != nil || ck.Iter != 1 {
		t.Fatalf("previous generation: %+v, %v; want iteration 1", ck, err)
	}

	// The rent-or-buy clock, on a writer whose last Save took an hour: it
	// ended just now, so nothing is due until an hour of solve has passed.
	w.mu.Lock()
	w.last, w.idleAt = time.Hour, time.Now()
	w.mu.Unlock()
	if w.due() {
		t.Fatal("a snapshot is due before the solve has run as long as the last Save took")
	}
	w.mu.Lock()
	w.idleAt = time.Now().Add(-time.Hour)
	w.mu.Unlock()
	if !w.due() {
		t.Fatal("no snapshot is due after the solve has run as long as the last Save took")
	}
}

// faultyFock supplies in-process arrays like core's default, except that
// build number failAt fails to start (poison false) or hands back a
// two-electron matrix with a NaN in it (poison true).
type faultyFock struct {
	failAt int
	poison bool
	builds int
}

type poisonedF struct{ dist.Backend }

func (p poisonedF) ToMatrix() (*linalg.Matrix, error) {
	m, err := p.Backend.ToMatrix()
	if err == nil {
		m.Data[1] = math.NaN()
	}
	return m, err
}

var errInjectedBuild = errors.New("injected build failure")

func (ff *faultyFock) backend(grid *dist.Grid2D, stats *dist.RunStats) (dist.Backend, dist.Backend, func(), error) {
	ff.builds++
	if ff.builds == ff.failAt && !ff.poison {
		return nil, nil, nil, errInjectedBuild
	}
	var gaF dist.Backend = dist.NewGlobalArray(grid, stats)
	if ff.builds == ff.failAt {
		gaF = poisonedF{gaF}
	}
	return dist.NewGlobalArray(grid, stats), gaF, nil, nil
}

// Whatever ends the run, RunHF has flushed and stopped the writer before
// it returns: nothing writes afterwards, the file holds the last durable
// write and .prev the write before it. On every exit but convergence —
// MaxIter, a cancellation at the iteration boundary, a numerical
// blow-up, a failed build — that is the last completed iteration: the
// snapshot the cadence held back is handed over first. A converged run
// hands over nothing more, so its file holds an earlier completed
// iteration, with that iteration's energy. The saves are slow, so the
// cadence really holds snapshots back on each exit.
func TestCheckpointFlushedOnEveryExitPath(t *testing.T) {
	parked := errors.New("park for test")
	cases := []struct {
		name    string
		tune    func(opt *Options, cancel context.CancelCauseFunc)
		wantErr error // nil: the run returns a result
		last    int   // last completed iteration; 0: whatever the result says
	}{
		{name: "converged"},
		{name: "MaxIter exhausted", last: 3, tune: func(opt *Options, _ context.CancelCauseFunc) {
			opt.MaxIter = 3
		}},
		{name: "canceled at the boundary", wantErr: parked, last: 3, tune: func(opt *Options, cancel context.CancelCauseFunc) {
			inner := opt.OnIteration
			opt.OnIteration = func(iter int, it Iteration) {
				inner(iter, it)
				if iter == 3 {
					cancel(parked)
				}
			}
		}},
		{name: "non-finite F", wantErr: ErrNumericalBlowUp, last: 3, tune: func(opt *Options, _ context.CancelCauseFunc) {
			opt.FockBackend = (&faultyFock{failAt: 4, poison: true}).backend
		}},
		{name: "build error", wantErr: errInjectedBuild, last: 3, tune: func(opt *Options, _ context.CancelCauseFunc) {
			opt.FockBackend = (&faultyFock{failAt: 4}).backend
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			slowSaves(t, 2*time.Millisecond)
			path := filepath.Join(t.TempDir(), "exit.ckpt")
			ctx, cancel := context.WithCancelCause(context.Background())
			defer cancel(nil)

			energies := map[int]float64{} // by iteration, from the SCF goroutine
			var mu sync.Mutex
			var written []int // iterations made durable, in order
			opt := Options{
				BasisName: "sto-3g", Ctx: ctx, CheckpointPath: path,
				OnIteration: func(iter int, it Iteration) { energies[iter] = it.Energy },
				OnDurable: func(cw CheckpointWrite) {
					mu.Lock()
					written = append(written, cw.Iter)
					mu.Unlock()
				},
			}
			if tc.tune != nil {
				tc.tune(&opt, cancel)
			}
			res, err := RunHF(chem.Methane(), opt)

			last := tc.last
			switch {
			case tc.wantErr != nil:
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
			case err != nil:
				t.Fatal(err)
			default:
				if last == 0 {
					last = len(res.Iterations)
				}
				if len(res.Iterations) != last || res.Converged != (tc.last == 0) {
					t.Fatalf("%d iterations, converged=%v; want %d", len(res.Iterations), res.Converged, last)
				}
			}

			ck, lerr := LoadCheckpoint(path)
			if lerr != nil {
				t.Fatalf("checkpoint after return: %v", lerr)
			}
			want := last
			if tc.last == 0 { // converged: some earlier completed iteration
				if ck.Iter < 1 || ck.Iter >= last || ck.Converged {
					t.Fatalf("file holds iteration %d (converged=%v), want one before the converged %d", ck.Iter, ck.Converged, last)
				}
				want = ck.Iter
			}
			if ck.Iter != want || ck.Energy != energies[want] {
				t.Fatalf("file holds iteration %d (E=%v), want %d (E=%v)",
					ck.Iter, ck.Energy, want, energies[want])
			}
			mu.Lock()
			n := len(written)
			mu.Unlock()
			if n == 0 || written[n-1] != want {
				t.Fatalf("durable writes %v: want them to end at %d", written, want)
			}
			prev, perr := LoadCheckpoint(path + PrevSuffix)
			if n == 1 { // everything before the flush coalesced into it
				if !errors.Is(perr, os.ErrNotExist) {
					t.Fatalf(".prev = %+v, %v after a single write", prev, perr)
				}
			} else if perr != nil || prev.Iter != written[n-2] {
				t.Fatalf(".prev = %+v, %v; want the write before the last, iteration %d", prev, perr, written[n-2])
			}
			// Slower than any pending write would take to surface.
			time.Sleep(20 * time.Millisecond)
			mu.Lock()
			defer mu.Unlock()
			if len(written) != n {
				t.Fatalf("checkpoint writes %v happened after RunHF returned", written[n:])
			}
		})
	}
}

// The cadence is rent-or-buy: with every Save slowed to 5 ms, a run
// whose iterations are slowed too (so it outlasts several Saves) writes
// no more than the solve time pays for — within ⌈solve/Save⌉ + 1, and
// in fact half that, since a snapshot is handed over only after the solve
// has run a Save's length past the last write — and the converged
// iteration, which the exit does not hand over, is never written.
func TestCheckpointCadenceRentOrBuy(t *testing.T) {
	const save = 5 * time.Millisecond
	var mu sync.Mutex
	var saved []int // iterations whose Save started, in order
	ckptBeforeSave = func(iter int) {
		mu.Lock()
		saved = append(saved, iter)
		mu.Unlock()
		time.Sleep(save)
	}
	t.Cleanup(func() { ckptBeforeSave = nil })

	path := filepath.Join(t.TempDir(), "cadence.ckpt")
	t0 := time.Now()
	res, err := RunHF(chem.Methane(), Options{
		BasisName: "sto-3g", CheckpointPath: path, ConvTol: 1e-12,
		OnIteration: func(int, Iteration) { time.Sleep(2 * time.Millisecond) },
	})
	solve := time.Since(t0)
	if err != nil || !res.Converged {
		t.Fatalf("RunHF: %v", err)
	}
	mu.Lock()
	n := len(saved)
	got := append([]int(nil), saved...)
	mu.Unlock()
	ratio := float64(solve) / float64(save)
	bound := int(math.Ceil(ratio)) + 1
	half := int(math.Ceil(ratio/2)) + 1
	t.Logf("%d iterations in %v: wrote %v (bound %d, rent-or-buy %d)", len(res.Iterations), solve, got, bound, half)
	if n == 0 || got[0] != 1 {
		t.Fatalf("writes %v: iteration 1 is always written", got)
	}
	if n > bound || n > half {
		t.Fatalf("%d writes in a %v solve of %v Saves: more than ⌈solve/Save⌉+1 = %d or the rent-or-buy %d", n, solve, save, bound, half)
	}
	if got[n-1] >= len(res.Iterations) {
		t.Fatalf("writes %v: the converged iteration %d was written", got, len(res.Iterations))
	}
	time.Sleep(2 * save)
	mu.Lock()
	defer mu.Unlock()
	if len(saved) != n {
		t.Fatalf("writes %v started after RunHF returned", saved[n:])
	}
}

// A checkpoint that cannot be written fails the run with the cause
// wrapped — at the hand-off after the write that failed, or at exit —
// and is sticky: the writer makes no further attempt.
func TestCheckpointWriteFailureFailsRun(t *testing.T) {
	// The directory is a regular file, which stops root too.
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(notDir, "scf.ckpt")

	w := startCkptWriter(path, func(cw CheckpointWrite) { t.Errorf("write %+v reported durable", cw) })
	if err := w.submit(tinyCheckpoint(1)); err != nil {
		t.Fatalf("the hand-off itself touched the disk: %v", err)
	}
	<-w.done // a failed write stops the writer
	err := w.submit(tinyCheckpoint(2))
	if !errors.Is(err, syscall.ENOTDIR) || !strings.Contains(err.Error(), "checkpoint at iteration 1") {
		t.Fatalf("next hand-off: %v; want iteration 1's ENOTDIR", err)
	}
	if ferr := w.flush(); ferr != err {
		t.Fatalf("flush: %v; want the same sticky error", ferr)
	}

	iters := 0
	res, err := RunHF(chem.Methane(), Options{
		BasisName: "sto-3g", CheckpointPath: path,
		OnIteration: func(int, Iteration) { iters++ },
		OnDurable:   func(cw CheckpointWrite) { t.Errorf("write %+v reported durable", cw) },
	})
	if res != nil || !errors.Is(err, syscall.ENOTDIR) || !strings.Contains(err.Error(), "scf: checkpoint at iteration") {
		t.Fatalf("RunHF = %v, %v; want a checkpoint error wrapping ENOTDIR", res, err)
	}
	t.Logf("run failed after %d iterations: %v", iters, err)
}

// F and D reach the writer uncopied, on the promise that the loop never
// writes an iteration's matrices after building them. A slow save keeps
// every hand-off unordered against whatever the loop does next — DIIS,
// the next density step, the next build — so under -race a write to
// either matrix fails this test; without it, the energy recomputed from
// the checkpointed F and D, which must reproduce the iteration's energy
// bit for bit, does.
func TestCheckpointHandOffIsRaceFree(t *testing.T) {
	slowSaves(t, 3*time.Millisecond)
	for _, opt := range []Options{
		{},
		{ERICache: true},
		{DIIS: -1},
		{MaxIter: 4},
	} {
		path := filepath.Join(t.TempDir(), "race.ckpt")
		opt.BasisName, opt.CheckpointPath = "sto-3g", path
		res, err := RunHF(chem.Methane(), opt)
		if err != nil {
			t.Fatal(err)
		}
		ck, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		if ck.Iter < 1 || ck.Iter > len(res.Iterations) || ck.Energy != res.Iterations[ck.Iter-1].Energy {
			t.Fatalf("file holds iteration %d (E=%v); the run has %d iterations", ck.Iter, ck.Energy, len(res.Iterations))
		}
		// E = Tr(p (H + F)) + E_nuc with p = D/2, as the loop computed it.
		hp := integrals.CoreHamiltonian(res.Basis)
		hp.AXPY(1, ck.Fock())
		e := linalg.TraceMul(ck.Density().Scale(0.5), hp) + res.NuclearRep
		if e != ck.Energy {
			t.Fatalf("energy from the checkpointed matrices %v, iteration %d's %v: something wrote to them after the hand-off", e, ck.Iter, ck.Energy)
		}
		if !res.Converged && linalg.MaxAbsDiff(ck.Fock(), res.F) != 0 {
			t.Fatal("a run stopped at MaxIter did not leave its last built F on disk")
		}
	}
}
