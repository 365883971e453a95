package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gtfock/internal/basis"
	"gtfock/internal/dist"
	"gtfock/internal/fault"
	"gtfock/internal/integrals"
	"gtfock/internal/linalg"
	"gtfock/internal/metrics"
	"gtfock/internal/screen"
)

// Options configures a real-mode Fock build.
type Options struct {
	Prow, Pcol int // process grid (defaults 1x1)

	// Ctx, when non-nil, cancels the build: workers observe the
	// cancellation between tasks and abandon their incarnations, in-flight
	// retried operations abort early (always before an accumulate's point
	// of no return, so nothing half-lands), and Build returns with
	// Result.Err wrapping the context's cause. A canceled build never
	// produces a usable G — callers resume from their own checkpoints.
	Ctx context.Context

	// PairTable, when non-nil, is the precomputed shell-pair table all
	// workers share (read-only). Pass the table across SCF iterations so
	// pair data is built once per geometry instead of once per build; it
	// must come from the same screening as scr, or the quartet set will
	// not match. Nil makes NewBuilder construct one at integrals.PrimTol.
	PairTable *integrals.PairTable
	// ERIStore, when non-nil, is the stored-ERI cache tier shared across
	// builds of one geometry (it must be sized for this basis and used
	// with the same PairTable): tasks with a stored entry replay it
	// through the contraction path instead of re-entering the kernel
	// layer, and tasks without one compute, apply, and commit their batch
	// first-writer-wins. The store records the full Schwarz-surviving set,
	// which no density enters, so a batch is valid for every later build
	// and a replayed task commits the contributions a recomputed one would.
	ERIStore *integrals.ERIStore

	// Fault, when non-nil, injects seeded faults: worker crashes before and
	// after the flush, per-task stalls, and dropped or delayed one-sided ops
	// on the in-process arrays. It only injects — the runtime that survives
	// the faults (leases, heartbeats, epoch fencing, orphan re-execution)
	// is the one every build runs, injector or not.
	Fault *fault.Injector
	// LeaseTTL is how long a worker may go without a heartbeat (one per
	// task and per prefetch Get) before the monitor, scanning every
	// LeaseTTL/4, declares it dead and re-enqueues its uncommitted blocks.
	// Default 1s. It should exceed the longest single task plus any benign
	// op delay: fencing a live worker is safe on any backend (its late
	// flush is discarded, its blocks re-executed exactly once) but wastes
	// the re-execution, and a task that never fits the TTL ends the build
	// in Result.Err.
	LeaseTTL time.Duration
	// Retry is the budget of every one-sided op of the build; each zero
	// field takes its default (4 attempts, 1ms initial backoff, 10s wall
	// cap). Attempts bounds prefetch Gets only; flush accumulates retry
	// without an attempt bound. A prefetch Get hitting the wall cap
	// abandons the incarnation cleanly; a flush Acc consults it only
	// before the commit's point of no return (the first landed patch) —
	// after that, retries are unbounded, because abandoning a half-landed
	// flush would break exactly-once. See dist.Retry.
	Retry dist.Retry

	// Backend, when non-nil, supplies the global arrays for D and F in
	// place of the in-process dist.GlobalArray — for the TCP transport in
	// internal/net, pass a netga.Session's Backend. Build calls it once
	// with the block layout and the run's stats; cleanup (may be nil) runs
	// when the build finishes. A worker that loses its transport past the
	// retry budget degrades gracefully: it aborts, the monitor fences it,
	// and its blocks are re-executed exactly once elsewhere.
	Backend func(grid *dist.Grid2D, stats *dist.RunStats) (gaD, gaF dist.Backend, cleanup func(), err error)

	// Trace, when non-nil, records per-worker activity spans (prefetch,
	// ERI compute, flush, steal, idle scans) against the build's start
	// time, renderable with Trace.Timeline. Spans of fenced incarnations
	// are marked discarded after the run. Nil disables span recording.
	Trace *dist.Trace
	// Metrics, when non-nil, collects per-worker histograms and counters
	// (task service time, steal latency, Get/Acc traffic, retries, lease
	// renewals). Samples follow merge-on-commit semantics: a fenced or
	// crashed incarnation's uncommitted sample is discarded, never merged,
	// so the registry counts each task exactly once — mirroring the epoch
	// fence on the F accumulate. Nil disables collection.
	Metrics *metrics.Registry
}

// Result is the outcome of a Fock build.
type Result struct {
	// G is the symmetric two-electron matrix: F = H_core + G.
	G *linalg.Matrix
	// Stats holds the per-process accounting of the run.
	Stats *dist.RunStats
	// Wall is the wall-clock duration of the parallel section.
	Wall time.Duration
	// Err is non-nil when the build could not produce a correct G: it was
	// canceled, the external backend failed to initialize, or recovery
	// exhausted its rounds — against a transport that never healed or, on
	// any backend, a task that outlasts Options.LeaseTTL every time it is
	// re-executed. Injected faults alone never set it: the injector is
	// disarmed after eight rounds to force completion.
	Err error
}

// maxFaultRounds is the number of crash-recovery respawn rounds after
// which an armed injector is disarmed to force completion; a build whose
// faults cannot be disarmed gives up after twice as many.
const maxFaultRounds = 8

// Build runs the paper's Algorithm 4 for real: prow x pcol goroutine
// processes over block-distributed global arrays, with static task
// partitioning, D prefetch, local F accumulation, and distributed work
// stealing. The density d must be symmetric. A basis of more than
// integrals.MaxStoreShells shells is refused (Result.Err): a task's
// quartets are labeled P | Q<<16, computed or replayed.
//
// Each process is GTFock's hybrid rank: it drains its task queue on
// GOMAXPROCS/(prow*pcol) lanes (at least one) that share its prefetched D
// image and keep private F accumulators, summed once before the rank's
// single flush. GOMAXPROCS is the only control. Which lane runs which task
// is decided at run time, so G is reproducible to rounding, not bit for
// bit, whenever a rank has more than one lane.
//
// Every build runs under the lease ledger, so it survives worker crashes,
// stalls and transport faults, injected or real: a lease monitor fences
// dead or wedged workers, their uncommitted task blocks are re-enqueued
// for survivors (or for respawned workers in a follow-up round), and epoch
// fencing on the F accumulate guarantees exactly-once accumulation, so
// the recovered G is bit-for-bit within the serial oracle's tolerance.
//
// Build is a one-shot NewBuilder(...).Build(...); a caller that builds G
// more than once over one basis (an SCF solve) keeps the Builder.
func Build(bs *basis.Set, scr *screen.Screening, d *linalg.Matrix, opt Options) Result {
	return NewBuilder(bs, scr, opt.PairTable, opt).Build(d, opt)
}

// Builder is pfock.c's create/compute split: what every Fock build over
// one basis, screening, pair table, grid and store shares is made once,
// and each Build reuses it. It holds the grid and the static blocks, and
// each rank's worker with its D image, its flush footprint and its lanes;
// each lane keeps its integral engine, its private F accumulator and its
// batch and spill scratch. A Build resets only what the last one dirtied
// (worker.reset). Builds of one Builder run one at a time.
type Builder struct {
	pt      *integrals.PairTable
	store   *integrals.ERIStore
	grid    *dist.Grid2D
	blocks  []TaskBlock // the static partition, by rank
	workers []*worker
	err     error // NewBuilder's refusal, returned by every Build
}

// NewBuilder makes the Builder of a prow x pcol build over bs (opt.Prow,
// opt.Pcol; default 1x1) with opt.ERIStore as its stored-ERI tier. pt is
// the shared pair table; nil builds one at integrals.PrimTol. The other
// fields of opt vary per build and are read by Build, not here. A basis
// past integrals.MaxStoreShells shells or a store sized for another basis
// is refused in every Build's Result.Err.
func NewBuilder(bs *basis.Set, scr *screen.Screening, pt *integrals.PairTable, opt Options) *Builder {
	prow, pcol := max(1, opt.Prow), max(1, opt.Pcol)
	ns := bs.NumShells()
	if ns > integrals.MaxStoreShells {
		return &Builder{err: fmt.Errorf("core: %d shells exceed the %d a quartet label packs", ns, integrals.MaxStoreShells)}
	}
	if opt.ERIStore != nil && opt.ERIStore.NumTasks() != ns*ns {
		return &Builder{err: fmt.Errorf("core: ERIStore sized for %d tasks, build has %d", opt.ERIStore.NumTasks(), ns*ns)}
	}
	// The shared pair table: built once (or passed in and reused across
	// SCF iterations), read by every worker concurrently.
	if pt == nil {
		pt = scr.PairTable(integrals.PrimTol)
	}
	b := &Builder{pt: pt, store: opt.ERIStore, grid: Grid(bs, prow, pcol), blocks: staticPartition(ns, prow, pcol)}
	b.workers = make([]*worker, len(b.blocks))
	for pid := range b.workers {
		b.workers[pid] = newWorker(pid, bs, scr, pt, b.grid, opt.ERIStore)
	}
	return b
}

// staticPartition is Algorithm 4's initial task distribution (Sec.
// III-C), the real build's and the simulator's: the ns x ns tasks cut
// uniformly in shells over a prow x pcol grid, one block per rank, in
// Grid2D.ProcID order.
func staticPartition(ns, prow, pcol int) []TaskBlock {
	rows, cols := dist.UniformCuts(ns, prow), dist.UniformCuts(ns, pcol)
	blocks := make([]TaskBlock, 0, prow*pcol)
	for i := range prow {
		for j := range pcol {
			blocks = append(blocks, TaskBlock{R0: rows[i], R1: rows[i+1], C0: cols[j], C1: cols[j+1]})
		}
	}
	return blocks
}

// Build runs one Fock build of d on the Builder (see the package-level
// Build). What varies per build comes from opt: Ctx, Backend, Metrics,
// Trace, Fault, LeaseTTL and Retry. Its Prow, Pcol, PairTable and
// ERIStore are the Builder's: left zero they mean the Builder's, and opt
// naming others is refused in Result.Err. Every build runs under a fresh
// lease ledger, so no epoch, claim or fence of a previous build reaches it.
func (b *Builder) Build(d *linalg.Matrix, opt Options) Result {
	if b.err != nil {
		return Result{Err: b.err}
	}
	nprocs := len(b.workers)
	switch {
	case opt.Prow > 0 && opt.Prow != b.grid.Prow, opt.Pcol > 0 && opt.Pcol != b.grid.Pcol:
		return Result{Err: fmt.Errorf("core: options name a %dx%d grid, the builder's is %dx%d",
			opt.Prow, opt.Pcol, b.grid.Prow, b.grid.Pcol)}
	case opt.PairTable != nil && opt.PairTable != b.pt:
		return Result{Err: fmt.Errorf("core: options name another pair table than the builder's")}
	case opt.ERIStore != nil && opt.ERIStore != b.store:
		return Result{Err: fmt.Errorf("core: options name another ERIStore than the builder's")}
	}

	stats := dist.NewRunStats(nprocs)
	var gaD, gaF dist.Backend
	if opt.Backend != nil {
		var cleanup func()
		var err error
		gaD, gaF, cleanup, err = opt.Backend(b.grid, stats)
		if err != nil {
			return Result{Stats: stats, Err: fmt.Errorf("core: backend init: %w", err)}
		}
		if cleanup != nil {
			defer cleanup()
		}
		// An external backend may be a live session that already served a
		// build (SCF iterations, cache replays): F accumulates, so it must
		// start from zero — in-process arrays below are born zeroed.
		if err := gaF.LoadMatrix(linalg.NewMatrix(d.Rows, d.Cols)); err != nil {
			return Result{Stats: stats, Err: fmt.Errorf("core: zero F: %w", err)}
		}
	} else {
		gd, gf := dist.NewGlobalArray(b.grid, stats), dist.NewGlobalArray(b.grid, stats)
		if opt.Fault != nil {
			// The in-process arrays consult the injector through the op hook;
			// the net backend injects at its conn layer instead (from an
			// injector handed to it via netga.Config, not here).
			hook := func(proc int, op dist.OpKind) (time.Duration, bool) {
				fop := fault.OpGet
				if op == dist.OpAcc {
					fop = fault.OpAcc
				}
				return opt.Fault.OpFault(proc, fop)
			}
			gd.SetOpHook(hook)
			gf.SetOpHook(hook)
		}
		gaD, gaF = gd, gf
	}
	if err := gaD.LoadMatrix(d); err != nil {
		return Result{Stats: stats, Err: fmt.Errorf("core: load density: %w", err)}
	}

	// Per-process task queues holding the static partition (Sec. III-C).
	queues := make([]*Queue, nprocs)
	for pid, blk := range b.blocks {
		queues[pid] = NewQueue(blk)
	}

	if opt.Retry.Attempts <= 0 {
		opt.Retry.Attempts = 4
	}
	if opt.Retry.Backoff <= 0 {
		opt.Retry.Backoff = time.Millisecond
	}
	if opt.Retry.WallCap <= 0 {
		opt.Retry.WallCap = 10 * time.Second
	}
	if opt.Ctx == nil {
		opt.Ctx = context.Background()
	}
	if opt.LeaseTTL <= 0 {
		opt.LeaseTTL = time.Second
	}

	// The lease ledger and epoch fence: what turns a lost worker or peer
	// into re-enqueued work instead of a wrong answer.
	led := newLedger(nprocs, opt.LeaseTTL, stats)

	lanes := Lanes(nprocs)
	start := time.Now()
	for _, w := range b.workers {
		w.workerBuild = workerBuild{
			gaD: gaD, gaF: gaF, stats: stats, maxLanes: lanes,
			ctx: opt.Ctx, led: led, inj: opt.Fault, retry: opt.Retry,
			trace: opt.Trace, reg: opt.Metrics, clock0: start,
		}
	}

	var buildErr error
	for round := 0; ; round++ {
		roundBlocks := b.blocks
		if round > 0 {
			// Respawn rounds start with empty queues; all remaining work
			// comes from the orphan pool.
			roundBlocks = nil
			for pid := range queues {
				queues[pid] = NewQueue(TaskBlock{})
			}
		}
		// Register every incarnation and claim the static partition
		// BEFORE any worker goroutine starts: a fast thief may steal
		// from a victim's queue before the victim's goroutine runs, and
		// the claim transfer needs the victim's claim to already exist
		// — otherwise the same tasks end up both orphaned and claimed,
		// breaking exactly-once.
		for rank, w := range b.workers {
			w.epoch = led.register(rank)
		}
		for pid, blk := range roundBlocks {
			led.claim(pid, b.workers[pid].epoch, blk)
		}
		led.beginRound(queues)
		stopMon := startMonitor(led)
		dist.RunProcs(nprocs, func(rank int) {
			b.workers[rank].run(roundBlocks, queues)
		})
		stopMon()
		// Per-queue atomic-operation accounting (Sec. IV-C), accumulated
		// across recovery rounds.
		for pid, q := range queues {
			stats.Per[pid].QueueOps += q.Ops
		}
		if opt.Ctx.Err() != nil {
			// Canceled builds never respawn: whatever the workers abandoned
			// stays unfinished, and the caller sees the cause, not a wrong G.
			buildErr = fmt.Errorf("core: build canceled: %w", context.Cause(opt.Ctx))
			break
		}
		orphans := led.sweep()
		if orphans == 0 {
			break
		}
		atomic.AddInt64(&stats.Recovery.Rounds, 1)
		if round+1 >= maxFaultRounds {
			if opt.Fault != nil && opt.Fault.Armed() {
				// Too many faulty rounds: finish the tail failure-free.
				opt.Fault.Disarm()
			} else if round+1 >= 2*maxFaultRounds {
				// Real (non-injected) faults cannot be disarmed. Give up
				// rather than respawn forever against a peer that never
				// heals or a task that never fits its lease; the caller
				// sees the failure, not a wrong G.
				buildErr = fmt.Errorf("core: %d blocks unrecovered after %d recovery rounds: transport never healed, or a task outlasts LeaseTTL",
					orphans, round+1)
				break
			}
		}
	}
	wall := time.Since(start)
	for _, w := range b.workers {
		w.workerBuild = workerBuild{}
	}

	// Fenced incarnations' uncommitted spans were published under their
	// epoch; mark them discarded so duration accounting excludes them.
	if opt.Trace != nil {
		for _, fe := range led.fencedEpochs() {
			opt.Trace.Discard(fe.rank, fe.epoch)
		}
	}

	g2e, gerr := gaF.ToMatrix()
	if gerr != nil {
		if buildErr == nil {
			buildErr = fmt.Errorf("core: gather G: %w", gerr)
		}
		return Result{Stats: stats, Wall: wall, Err: buildErr}
	}
	// G = acc + acc^T completes the 8-fold symmetry.
	return Result{G: g2e.AddTranspose(), Stats: stats, Wall: wall, Err: buildErr}
}

// Grid returns the function-level block distribution a prow x pcol Build
// over bs uses (shell-uniform cuts mapped to basis-function offsets).
// Shard servers of the network backend must be constructed over exactly
// this grid — and over the same shell ordering — or patch ownership
// validation rejects the build's requests.
func Grid(bs *basis.Set, prow, pcol int) *dist.Grid2D {
	ns := bs.NumShells()
	return dist.NewGrid2D(prow, pcol,
		funcCuts(bs, dist.UniformCuts(ns, prow)),
		funcCuts(bs, dist.UniformCuts(ns, pcol)))
}

// Lanes is the number of threads each rank of an nprocs-rank build runs:
// the cores the grid leaves over, shared evenly, at least one.
func Lanes(nprocs int) int { return max(1, runtime.GOMAXPROCS(0)/nprocs) }

// LocalBytes is what the local buffers of a build over n basis functions
// hold on nprocs ranks of lanes lanes each: every rank's dense n x n D
// image (dloc) and every lane's dense n x n F accumulator (floc).
func LocalBytes(n, nprocs, lanes int) int64 {
	return 8 * int64(n) * int64(n) * int64(nprocs) * int64(1+lanes)
}

// StoreBytes bounds what an unbudgeted ERIStore of bs holds once a build
// has recorded it: the index and value bytes (integrals.ERIStoreBytes) of
// every task and quartet doTask visits with nothing screened out. It is
// computed from the shells' function counts alone, in O(ns^2).
//
// SymmetryCheck keeps exactly one of (i, j) and (j, i) for i != j, so for
// a bra shell M with kept partners K(M) — c of them, s functions, s2 the
// sum of squared function counts — an off-diagonal task (M, N) visits
// c(M) c(N) quartets of nf(M) nf(N) s(M) s(N) values, and the diagonal
// task (M, M), which keeps one of (P, Q) and (Q, P), (c^2 + c)/2 quartets
// of nf(M)^2 (s^2 + s2)/2 values. Summing f(M) f(N) over the kept
// off-diagonal (M, N) is ((Σf)^2 - Σf^2)/2 for the same reason. The
// totals count each orbit once whichever such predicate orients the
// pairs, so they hold for doTask's PairCheck too (it needs a pair table,
// this bound only the basis).
func StoreBytes(bs *basis.Set) (index, values int64) {
	ns := bs.NumShells()
	var qSum, qSq, vSum, vSq, quartets int64
	for m := 0; m < ns; m++ {
		var c, s, s2 int64
		for p := 0; p < ns; p++ {
			if SymmetryCheck(m, p) {
				f := int64(bs.ShellFuncs(p))
				c, s, s2 = c+1, s+f, s2+f*f
			}
		}
		fm := int64(bs.ShellFuncs(m))
		v := fm * s
		qSum, qSq, vSum, vSq = qSum+c, qSq+c*c, vSum+v, vSq+v*v
		quartets += (c*c + c) / 2
		values += fm * fm * (s*s + s2) / 2
	}
	quartets += (qSum*qSum - qSq) / 2
	values += (vSum*vSum - vSq) / 2
	tasks := int64(ns) * int64(ns+1) / 2
	return integrals.ERIStoreBytes(ns, tasks, quartets, values)
}

// funcCuts maps shell-index cuts to basis-function-index cuts.
func funcCuts(bs *basis.Set, shellCuts []int) []int {
	out := make([]int, len(shellCuts))
	for i, s := range shellCuts {
		if s == bs.NumShells() {
			out[i] = bs.NumFuncs
		} else {
			out[i] = bs.Offsets[s]
		}
	}
	return out
}

// worker is the per-rank state of a real-mode build: the prefetched D
// image, the flush footprint and the lanes, kept by the Builder across
// builds, and what the current build binds it to (workerBuild) — one per
// rank, touched only by the rank's goroutine. The tasks themselves run on
// the rank's lanes (see lane).
type worker struct {
	rank  int
	bs    *basis.Set
	scr   *screen.Screening
	grid  *dist.Grid2D
	pt    *integrals.PairTable // shared read-only pair table
	store *integrals.ERIStore  // stored-ERI cache tier (nil = always recompute)
	ns    int                  // shell count; task id = M*ns + N
	width []int                // functions per shell, the contraction's table
	// dloc is the dense n x n local D image (prefetched patches). Every
	// lane reads it; addWork writes it, and only between fork-joins. A
	// build reads only what its own Gets wrote, so it is never cleared.
	dloc []float64
	fp   *Footprint
	nf   int
	comp time.Duration

	// lanes[0] runs on the rank's goroutine and owns the accumulator the
	// flush lands; helper lanes are created the first time a fork-join
	// needs them, never more than maxLanes, and kept.
	lanes []*lane

	victims map[int]bool

	workerBuild

	// Observability buffers. Spans and the metric sample buffer one commit
	// episode — the rank's own (prefetch, steal, flush) plus every lane's,
	// folded in at each join — and are published together with the flush:
	// committed via commitEpisode, or via abortEpisode when the incarnation
	// dies uncommitted.
	samp  metrics.Sample
	spans []dist.Span
}

// workerBuild is what one Build binds a worker to; Builder.Build sets it
// before the first round and zeroes it after the last, so a kept Builder
// holds no array, sink or ledger of a finished build.
type workerBuild struct {
	gaD      dist.Backend
	gaF      dist.Backend
	stats    *dist.RunStats
	maxLanes int

	// Lease runtime state: led is also the dist.Fence of the accumulate.
	ctx   context.Context // build cancellation
	led   *ledger
	inj   *fault.Injector // nil = nothing injected
	epoch int64
	retry dist.Retry // the budget of every one-sided op (Options.Retry*)

	// Observability sinks (both nil = zero-instrumentation fast path).
	trace  *dist.Trace
	reg    *metrics.Registry
	clock0 time.Time
}

// lane is one thread of a rank (GTFock's OpenMP thread inside an MPI
// process): its own engine, its own private F accumulator, batch buffers
// and observability buffers, so a task runs without synchronizing with the
// lanes beside it. Lanes share the rank's queue (mutexed), dloc, pair
// table and store (all read-only or first-writer-wins while they run).
type lane struct {
	w    *worker
	id   int
	eng  *integrals.Engine
	floc []float64 // dense n x n private F accumulator

	// Batched ERI state: doTask collects a task's surviving quartets and
	// submits them in one ERIBatch call; visit (built once, so the hot
	// path allocates nothing) appends each batch, scaled, to vals, and the
	// task is contracted once from labels and vals — the same two slices a
	// store commits and replays (see Options.ERIStore).
	batch     []integrals.Quartet
	labels    []uint32 // P | Q<<16 parallel to batch
	vals      []float64
	curM      int
	curN      int
	visit     func(k int, batch []float64)
	replayScr []float64 // spill-fetch scratch

	// What the lane did since the last join; runLanes folds it into the
	// rank and clears it.
	res   drainResult
	tasks int64
	comp  time.Duration
	samp  metrics.Sample
	spans []dist.Span

	// Last-seen engine dispatch counters, so per-task deltas can flow
	// into the sample (engine Stats are monotonic across builds; reset
	// rebases them).
	lastFastSP, lastFastGen, lastGeneral int64
}

func newWorker(rank int, bs *basis.Set, scr *screen.Screening, pt *integrals.PairTable,
	grid *dist.Grid2D, store *integrals.ERIStore) *worker {
	w := &worker{
		rank: rank, bs: bs, scr: scr, grid: grid,
		pt:      pt,
		store:   store,
		ns:      bs.NumShells(),
		width:   shellWidths(bs),
		dloc:    make([]float64, bs.NumFuncs*bs.NumFuncs),
		fp:      NewFootprint(),
		nf:      bs.NumFuncs,
		victims: map[int]bool{},
	}
	w.lanes = []*lane{newLane(w, 0)}
	return w
}

func newLane(w *worker, id int) *lane {
	ln := &lane{w: w, id: id, eng: integrals.NewEngine(), floc: make([]float64, w.nf*w.nf)}
	ln.visit = func(k int, batch []float64) {
		lb := ln.labels[k]
		s := quartetScale(ln.curM, int(lb&0xffff), ln.curN, int(lb>>16))
		n := len(ln.vals)
		ln.vals = slices.Grow(ln.vals, len(batch))[:n+len(batch)]
		for i, v := range batch {
			ln.vals[n+i] = v * s
		}
	}
	return ln
}

// reset starts an incarnation on what the rank's previous one — of this
// build or an earlier one — left: every lane's accumulator is cleared over
// the last footprint (a committed episode leaves lane 0's flushed values
// there; a crashed, fenced or aborted one leaves every lane's), the
// footprint and the victims are emptied, and each lane's engine counters
// are rebased. The lanes' per-join counters need nothing: runLanes clears
// them at every join.
func (w *worker) reset() {
	w.resetAccum()
	clear(w.victims)
	w.comp = 0
	for _, ln := range w.lanes {
		es := &ln.eng.Stats
		ln.lastFastSP, ln.lastFastGen, ln.lastGeneral = es.FastSP, es.FastGen, es.GeneralQuartets
	}
}

// shellWidths is the contraction's width table: functions per shell.
func shellWidths(bs *basis.Set) []int {
	width := make([]int, bs.NumShells())
	for i := range width {
		width[i] = bs.ShellFuncs(i)
	}
	return width
}

// obsNow reads the clock only when an observability sink is attached; the
// zero time tells observation sites downstream to skip themselves, so the
// disabled path costs one branch per site and no clock reads.
func (w *worker) obsNow() time.Time {
	if w.trace == nil && w.reg == nil {
		return time.Time{}
	}
	return time.Now()
}

// span buffers one activity interval [t0, now) of the given lane into buf
// (the rank's own spans are lane 0's); no-op when tracing is off or t0 is
// the disabled sentinel. The epoch is stamped at publish time.
func (w *worker) span(buf *[]dist.Span, lane int, kind byte, t0 time.Time) {
	if w.trace == nil || t0.IsZero() {
		return
	}
	*buf = append(*buf, dist.Span{
		Proc:  w.rank,
		Lane:  lane,
		Start: t0.Sub(w.clock0).Seconds(),
		End:   time.Since(w.clock0).Seconds(),
		Kind:  kind,
	})
}

// commitEpisode publishes the episode's observability buffers as part of
// the committed record. Committed spans carry epoch 0, which is never
// fenced (live epochs start at 1), so a later fence of this worker's
// incarnation does not retroactively discard work that already landed.
func (w *worker) commitEpisode() {
	if len(w.spans) > 0 {
		for i := range w.spans {
			w.spans[i].Epoch = 0
		}
		w.trace.AddSpans(w.spans)
		w.spans = w.spans[:0]
	}
	if w.reg != nil {
		w.reg.Merge(w.rank, &w.samp)
		w.samp.Reset()
	}
}

// abortEpisode publishes buffered spans under this incarnation's epoch —
// Build marks them discarded once the ledger reports the fence — and
// drops the uncommitted metric sample. No-op after a commitEpisode, so it
// is safe to run deferred on every worker exit.
func (w *worker) abortEpisode() {
	if len(w.spans) > 0 {
		for i := range w.spans {
			w.spans[i].Epoch = w.epoch
		}
		w.trace.AddSpans(w.spans)
		w.spans = w.spans[:0]
	}
	w.reg.Discard(&w.samp)
	w.samp.Reset()
}

// heartbeat refreshes this rank's lease as of now, the caller's clock
// read, counted in the caller's sample (the rank's own, or a lane's).
func (w *worker) heartbeat(samp *metrics.Sample, now time.Time) {
	w.led.heartbeat(w.rank, now)
	samp.LeaseRenewals++
}

// addWork is the one block-intake path — the initial block, a stolen
// block and an adopted orphan all enter here. It merges b into the
// worker's flush footprint (Footprint.Intake) and Gets the D patches the
// worker did not hold yet into dloc through the one retry loop
// (dist.Retry.Get; a fault-free Get is a single attempt), so dloc holds D
// over every row's whole footprint span. It runs between fork-joins only:
// no lane reads dloc while it is written. False means a Get ultimately
// failed and the caller must abandon this incarnation; the next one
// starts from an empty footprint (reset), so a span merged but never
// fetched is never read.
func (w *worker) addWork(b TaskBlock) bool {
	t0 := w.obsNow()
	defer func() { w.span(&w.spans, 0, dist.SpanPrefetch, t0) }()
	for _, p := range w.fp.Intake(w.bs, w.scr, w.grid, b) {
		w.samp.GetCalls++
		w.samp.GetBytes += 8 * int64(p.Elems())
		w.heartbeat(&w.samp, time.Now())
		retries, err := w.retry.Get(w.ctx, w.gaD, w.stats, w.rank,
			p.R0, p.R1, p.C0, p.C1, w.dloc[p.R0*w.nf+p.C0:], w.nf)
		w.samp.GetRetries += int64(retries)
		if err != nil {
			return false
		}
	}
	return true
}

// resetAccum clears every lane's local F over the footprint and empties
// it, so the next episode accumulates from zero. After a commit only lane
// 0's holds anything (reduceLanes zeroed the helpers); after an episode
// that never committed, any lane's may.
func (w *worker) resetAccum() {
	for _, p := range w.fp.Patches(w.bs, w.grid) {
		for _, ln := range w.lanes {
			for r := p.R0; r < p.R1; r++ {
				clear(ln.floc[r*w.nf+p.C0 : r*w.nf+p.C1])
			}
		}
	}
	w.fp.Reset()
}

// reduceLanes sums the helper lanes' private accumulators into lane 0's
// over the flush patches and zeroes them, so one flush lands the whole
// rank's contributions and every helper starts its next episode clean.
func (w *worker) reduceLanes(patches []dist.Patch) {
	dst := w.lanes[0].floc
	for _, ln := range w.lanes[1:] {
		for _, p := range patches {
			for r := p.R0; r < p.R1; r++ {
				src := ln.floc[r*w.nf+p.C0 : r*w.nf+p.C1]
				row := dst[r*w.nf+p.C0 : r*w.nf+p.C1]
				for i, v := range src {
					row[i] += v
				}
				clear(src)
			}
		}
	}
}

// commitFlush lands the rank's F contributions exactly once, over the
// merged footprint spans (Algorithm 4, line 9), every patch through the
// one retry loop (dist.Retry.Acc). It is a fenced transaction:
// beginCommit validates this incarnation's epoch (a fenced zombie's flush
// is discarded here) and endCommit marks the claimed blocks done; the
// monitor never fences a committing worker, so the transaction is atomic
// w.r.t. recovery.
func (w *worker) commitFlush() bool {
	t0 := w.obsNow()
	if !w.led.beginCommit(w.rank, w.epoch) {
		atomic.AddInt64(&w.stats.Recovery.FencedFlushes, 1)
		return false
	}
	patches := w.fp.Patches(w.bs, w.grid)
	w.reduceLanes(patches)
	floc := w.lanes[0].floc
	// The first patch is the commit's point of no return: until it lands,
	// a cancellation or retry deadline abandons the flush cleanly
	// (abortCommit keeps the claims for exactly-once re-execution
	// elsewhere); once anything has landed the loop is told so and retries
	// without bound — the monitor cannot fence a committing worker, so
	// the only exit is landing every patch.
	landed := false
	for _, p := range patches {
		w.samp.AccCalls++
		w.samp.AccBytes += 8 * int64(p.Elems())
		retries, err := w.retry.Acc(w.ctx, w.gaF, w.stats, w.led, landed, w.rank, w.epoch,
			p.R0, p.R1, p.C0, p.C1, floc[p.R0*w.nf+p.C0:], w.nf, 1)
		w.samp.AccRetries += int64(retries)
		if err != nil {
			// Only reachable before the first landed patch (cancellation
			// or deadline), or as a defensive catch for an impossible
			// mid-commit rejection: nothing of this flush is in the
			// global F.
			w.led.abortCommit(w.rank)
			atomic.AddInt64(&w.stats.Recovery.Aborts, 1)
			return false
		}
		landed = true
	}
	w.led.endCommit(w.rank)
	// Observe the flush that just landed and publish the episode's
	// buffers as committed.
	if !t0.IsZero() {
		w.samp.Flushes.Observe(time.Since(t0).Nanoseconds())
		w.span(&w.spans, 0, dist.SpanFlush, t0)
	}
	w.commitEpisode()
	return true
}

// drainResult orders the ways a drain ends by severity, so a fork-join
// reports the worst of its lanes.
type drainResult int

const (
	drainDry       drainResult = iota // no reachable work anywhere
	drainFenced                       // this incarnation was declared dead
	drainAbandoned                    // a prefetch op failed after retries, or the build was canceled
)

// steal runs the victim scan (stealScan) over the other ranks' queues and
// takes a block from the first victim that has one, its claim with it
// (see ledger.steal). A scan that finds nothing anywhere is idle time.
func (w *worker) steal(queues []*Queue, st *dist.ProcStats) (TaskBlock, bool) {
	s0 := w.obsNow()
	blk, ok := stealScan(w.grid, w.rank, w.victims, st, func(v int) (TaskBlock, bool) {
		return w.led.steal(v, w.rank, w.epoch, queues[v])
	})
	if !ok {
		w.samp.StealFails++
		w.span(&w.spans, 0, dist.SpanIdle, s0)
		return blk, false
	}
	if !s0.IsZero() {
		w.samp.Steals.Observe(time.Since(s0).Nanoseconds())
		w.span(&w.spans, 0, dist.SpanSteal, s0)
	}
	return blk, true
}

// stealScan is Algorithm 4's victim scan (Sec. III-F), the real build's
// and the simulator's: it offers try every rank of the grid but the
// thief, row-wise from the thief's own grid row, until try takes a block.
// A taken block is one steal in st, and its victim one more distinct
// victim the first time victims sees it.
func stealScan(grid *dist.Grid2D, thief int, victims map[int]bool, st *dist.ProcStats, try func(victim int) (TaskBlock, bool)) (TaskBlock, bool) {
	myRow := thief / grid.Pcol
	for r := range grid.Prow {
		row := (myRow + r) % grid.Prow
		for c := range grid.Pcol {
			v := grid.ProcID(row, c)
			if v == thief {
				continue
			}
			if blk, ok := try(v); ok {
				if !victims[v] {
					victims[v] = true
					st.Victims++
				}
				st.Steals++
				return blk, true
			}
		}
	}
	return TaskBlock{}, false
}

// work is one lane's share of a fork-join: pop the rank's queue until it
// is dry, checking the epoch and the build's context and renewing the
// rank's lease before every task.
func (ln *lane) work(my *Queue) drainResult {
	w := ln.w
	for {
		if !w.led.ValidEpoch(w.rank, w.epoch) {
			return drainFenced
		}
		if w.ctx.Err() != nil {
			// Job-level cancellation: abandon between tasks, exactly like a
			// prefetch failure — claimed blocks stay with the ledger, and
			// Build's round loop turns the cancellation into Result.Err.
			return drainAbandoned
		}
		t, ok := my.Pop()
		if !ok {
			return drainDry
		}
		// One clock read stamps the lease and starts the task; a stall
		// sleeps past the stamp, so its heartbeat goes stale, and the
		// task's time starts after it.
		c0 := time.Now()
		w.heartbeat(&ln.samp, c0)
		if w.inj != nil {
			if d := w.inj.Stall(w.rank); d > 0 {
				atomic.AddInt64(&w.stats.Recovery.Stalls, 1)
				time.Sleep(d)
				c0 = time.Now()
			}
		}
		ln.doTask(t)
		dt := time.Since(c0)
		ln.comp += dt
		if w.reg != nil {
			ln.samp.Tasks.Observe(dt.Nanoseconds())
			es := &ln.eng.Stats
			ln.samp.QuartetsFastSP += es.FastSP - ln.lastFastSP
			ln.samp.QuartetsFastGen += es.FastGen - ln.lastFastGen
			ln.samp.QuartetsGeneral += es.GeneralQuartets - ln.lastGeneral
			ln.lastFastSP, ln.lastFastGen, ln.lastGeneral =
				es.FastSP, es.FastGen, es.GeneralQuartets
		}
		w.span(&ln.spans, ln.id, dist.SpanCompute, c0)
		ln.tasks++
	}
}

// runLanes drains the rank's own queue as one fork-join: as many lanes as
// the rank may use, never more than the queue holds tasks, lane 0 on the
// rank's goroutine. Every lane has returned before runLanes does, so the
// caller may write dloc, steal, adopt or flush; what the lanes did is
// folded into the rank's episode here. The rank's ComputeTime advances by
// the busiest lane's time inside task sections — the rank's wall-clock in
// compute, not the sum over lanes — so T_comp + T_ov still adds up to the
// build.
func (w *worker) runLanes(my *Queue, st *dist.ProcStats) drainResult {
	n := max(1, min(w.maxLanes, my.Remaining()))
	for len(w.lanes) < n {
		w.lanes = append(w.lanes, newLane(w, len(w.lanes)))
	}
	lanes := w.lanes[:n]
	var wg sync.WaitGroup
	for _, ln := range lanes[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ln.res = ln.work(my)
		}()
	}
	lanes[0].res = lanes[0].work(my)
	wg.Wait()

	res := drainDry
	var busiest time.Duration
	for _, ln := range lanes {
		res = max(res, ln.res)
		busiest = max(busiest, ln.comp)
		st.TasksRun += ln.tasks
		ln.tasks, ln.comp = 0, 0
		w.samp.Add(&ln.samp)
		ln.samp.Reset()
		w.spans = append(w.spans, ln.spans...)
		ln.spans = ln.spans[:0]
	}
	w.comp += busiest
	return res
}

// drain is the inner loop of Algorithm 4: run the own queue dry on the
// lanes, then steal, or adopt an orphaned block of a fenced worker, until
// nothing is reachable.
func (w *worker) drain(my *Queue, queues []*Queue, st *dist.ProcStats) drainResult {
	for {
		if res := w.runLanes(my, st); res != drainDry {
			return res
		}
		blk, ok := w.steal(queues, st)
		if !ok {
			blk, ok = w.led.adopt(w.rank, w.epoch)
		}
		if !ok {
			return drainDry
		}
		if !w.addWork(blk) {
			return drainAbandoned
		}
		my.AddBlock(blk)
	}
}

// run is Algorithm 4 with recovery: prefetch, drain own queue, steal and
// adopt until nothing remains, then flush as a fenced commit; repeat for
// orphaned work that appears after the commit. A return without a commit
// (injected crash, fencing, abandoned op) leaves this incarnation's
// claimed blocks to the monitor/sweep for re-execution elsewhere.
func (w *worker) run(blocks []TaskBlock, queues []*Queue) {
	w.reset()
	t0 := time.Now()
	st := &w.stats.Per[w.rank]
	defer func() {
		st.ComputeTime += w.comp.Seconds()
		st.TotalTime += time.Since(t0).Seconds()
	}()
	// Any episode still buffered at exit never committed (commitEpisode
	// empties the buffers); publish it as discardable.
	defer w.abortEpisode()

	my := queues[w.rank]
	if blocks != nil && !blocks[w.rank].Empty() {
		// The initial block was claimed by Build before this goroutine
		// started (w.epoch was assigned there too) and already sits in the
		// queue; only prefetch here.
		if !w.addWork(blocks[w.rank]) {
			atomic.AddInt64(&w.stats.Recovery.Aborts, 1)
			return
		}
	}

	for {
		switch w.drain(my, queues, st) {
		case drainAbandoned:
			atomic.AddInt64(&w.stats.Recovery.Aborts, 1)
			return
		case drainFenced:
			// Late flush of a zombie: must be (and is) discarded.
			w.commitFlush()
			return
		}
		if w.inj != nil && w.inj.Crash(w.rank, fault.PointBeforeFlush) {
			atomic.AddInt64(&w.stats.Recovery.Crashes, 1)
			return
		}
		if !w.commitFlush() {
			return
		}
		// Between rounds the rank is idle: cap engine scratch that an
		// unusually large quartet class may have grown (default budget).
		for _, ln := range w.lanes {
			ln.eng.TrimScratch(0)
		}
		if w.inj != nil && w.inj.Crash(w.rank, fault.PointAfterFlush) {
			atomic.AddInt64(&w.stats.Recovery.Crashes, 1)
			return
		}
		// Recovery work: adopt one orphaned block and run another episode
		// with a fresh local accumulator.
		blk, ok := w.led.adopt(w.rank, w.epoch)
		if !ok {
			return
		}
		w.resetAccum()
		if !w.addWork(blk) {
			atomic.AddInt64(&w.stats.Recovery.Aborts, 1)
			return
		}
		my.AddBlock(blk)
	}
}

// doTask is Algorithm 3 in batched form: collect the unique, screened
// quartets of (M,: | N,:) as pair-table ids, submit the whole surviving
// list in one ERIBatch call, and contract the task's scaled values in one
// applyTask call. With a store, a recorded task replays its labels and
// values through the same call instead, and a computed one commits them.
func (ln *lane) doTask(t Task) {
	w := ln.w
	m, n := t.M, t.N
	if !SymmetryCheck(m, n) {
		return
	}
	ln.curM, ln.curN = m, n
	// Stored-ERI tier: replay the recorded batch when present; a miss of
	// any kind (not recorded yet, dropped over budget, spill gone) falls
	// through to compute-and-commit.
	if w.store != nil && w.store.ReplayTask(m*w.ns+n, &ln.replayScr, ln.applyTask) {
		return
	}
	ln.collect(m, n)
	ln.vals = ln.vals[:0]
	ln.eng.ERIBatch(w.pt, ln.batch, ln.visit)
	ln.applyTask(ln.labels, ln.vals)
	if w.store != nil {
		w.store.CommitTask(m*w.ns+n, ln.labels, ln.vals)
	}
}

// applyTask contracts the current task's quartets into the lane's F.
func (ln *lane) applyTask(labels []uint32, vals []float64) {
	w := ln.w
	contract(w.dloc, ln.floc, w.nf, w.bs.Offsets, w.width, ln.curM, ln.curN, labels, vals)
}

// collect fills ln.batch (and ln.labels, the packed (P,Q) shells) with the
// unique, screened quartets (MP|NQ) of task (m, n). Bras and kets walk
// the pair table's partner families (integrals.PairTable.Partners), kets
// by descending family Q, so the first failing Schwarz product ends the
// ket scan (the surviving set is exactly KeepQuartet's), and the quartets
// of a bra family x ket family are collected bra-major: ERIBatch computes
// such a sibling group with one kernel call. The pair orientation is
// PairCheck's, which keeps sibling pairs together in a task.
func (ln *lane) collect(m, n int) {
	w := ln.w
	tau := w.scr.Tau
	pt := w.pt
	ln.batch = ln.batch[:0]
	ln.labels = ln.labels[:0]
	for _, bf := range pt.Partners(m) {
		for _, kf := range pt.Partners(n) {
			if bf.Q*kf.Q < tau {
				break
			}
			for _, braID := range bf.Pairs {
				_, p := pt.Shells(braID)
				if !PairCheck(pt, m, p) {
					continue
				}
				qBra := pt.Q(braID)
				for _, ketID := range kf.Pairs {
					_, q := pt.Shells(ketID)
					if qBra*pt.Q(ketID) < tau || !PairCheck(pt, n, q) {
						continue
					}
					// Diagonal tasks (M==N) see both bra-ket orderings
					// (MP|MQ) and (MQ|MP) of the same orbit; break the tie
					// on (P,Q). (Algorithm 3 in the paper omits this case.)
					if m == n && !PairCheck(pt, p, q) {
						continue
					}
					ln.batch = append(ln.batch, integrals.Quartet{Bra: braID, Ket: ketID})
					ln.labels = append(ln.labels, uint32(p)|uint32(q)<<16)
				}
			}
		}
	}
}

// quartetScale is the symmetry scale of the unique quartet (MP|NQ):
// 1 / 2^{[M==P] + [N==Q] + [(M,P)==(N,Q)]}. A power of two, so a value
// scaled by it is exact.
func quartetScale(m, p, n, q int) float64 {
	scale := 1.0
	if m == p {
		scale *= 0.5
	}
	if n == q {
		scale *= 0.5
	}
	if m == n && p == q {
		scale *= 0.5
	}
	return scale
}

// ApplyQuartet applies the 6-block Fock update of one unique quartet
// batch v[i in M][j in P][k in N][l in Q] = (ij|kl) into the dense n x n
// buffers d (density, read) and f (Fock accumulator, written), through
// the one contraction. It scales batch in place by quartetScale first:
// pass engine scratch that nothing reads after (an ERIBatch visit's).
// It serves quartets with no task-constant M and N (the NWChem
// baseline); a task's quartets go through contract in one call.
func ApplyQuartet(bs *basis.Set, d, f []float64, m, p, n, q int, batch []float64) {
	if s := quartetScale(m, p, n, q); s != 1 {
		for i := range batch {
			batch[i] *= s
		}
	}
	off := [4]int{bs.Offsets[m], bs.Offsets[p], bs.Offsets[n], bs.Offsets[q]}
	width := [4]int{bs.ShellFuncs(m), bs.ShellFuncs(p), bs.ShellFuncs(n), bs.ShellFuncs(q)}
	contract(d, f, bs.NumFuncs, off[:], width[:], 0, 2, []uint32{1 | 3<<16}, batch)
}
