// Package scf implements the closed-shell restricted Hartree-Fock
// procedure of the paper's Algorithm 1: a superposition of atomic
// densities as the guess D (GuessDensity), basis orthogonalization
// X = S^{-1/2}, Fock construction by GTFock (internal/core, the one G
// builder the run and its atomic guess share), and the density step either
// by dense diagonalization or by canonical purification with SUMMA
// (Sec. IV-E). DIIS convergence acceleration is included as a production
// convenience.
package scf

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/core"
	"gtfock/internal/dist"
	"gtfock/internal/integrals"
	"gtfock/internal/linalg"
	"gtfock/internal/metrics"
	"gtfock/internal/purify"
	"gtfock/internal/reorder"
	"gtfock/internal/screen"
)

// Engine names the Fock-build implementation; GTFock is the only one (the
// NWChem-style baseline is a Fock-build comparison, not an SCF driver).
// The type goes when Options.Engine does.
type Engine string

// EngineGTFock is the paper's algorithm (internal/core).
const EngineGTFock Engine = "gtfock"

// ErrNumericalBlowUp marks an SCF run aborted because the Fock matrix or
// total energy became non-finite (bad warm start, DIIS breakdown,
// diverging density). Callers holding a checkpoint can errors.Is for it
// and restart from the last valid iteration.
var ErrNumericalBlowUp = errors.New("scf: numerical blow-up")

// dTol is the density half of convergence: max |D - D_prev| below it, with
// |ΔE| below Options.ConvTol.
const dTol = 1e-5

// Options configures an SCF run. The zero value gives cc-pVDZ, GTFock on a
// 1x1 grid, eigensolver densities, DIIS on.
type Options struct {
	BasisName string  // default "cc-pvdz"
	Tau       float64 // screening tolerance, default screen.DefaultTau

	// Ctx, when non-nil, cancels the run at well-defined points: the top
	// of each iteration and inside the GTFock build's worker loops. RunHF
	// returns an error wrapping the context's cause, so a caller that
	// canceled with context.CancelCauseFunc (deadline, park, shutdown) can
	// errors.Is the reason back out and resume later from CheckpointPath,
	// which by then holds the last completed iteration.
	Ctx context.Context

	// Engine must be "" or EngineGTFock (RunHF rejects anything else) and
	// selects nothing. It survives only because the benchmark harness and
	// the HF service still set it, and is deleted once they stop.
	Engine     Engine
	Prow, Pcol int // GTFock process grid

	// ERICache enables the stored-ERI cache tier: iteration 1 records
	// every task's surviving integral batch into an integrals.ERIStore
	// shared across the run's builds, and iterations 2..N replay the
	// stored batches through the contraction path instead of re-entering
	// the kernel layer. Exact — replay applies the same values the
	// kernels would recompute.
	ERICache bool
	// ERICacheBudget bounds the store's resident value bytes; over-budget
	// batches are dropped and recomputed every iteration. 0 = unlimited.
	ERICacheBudget int64

	MaxIter int     // default 50
	ConvTol float64 // energy convergence, default 1e-8

	UsePurification bool // density via canonical purification + SUMMA

	DIIS int // DIIS subspace size; 0 = default (8), negative disables

	Reorder string // shell ordering, a reorder.ByName name: "" (atom order) or "cell"

	// InitialFock warm-starts the SCF from a previous Fock matrix (e.g. a
	// Checkpoint): iteration 1 starts with the density step from it. When
	// nil, iteration 1 builds F from GuessDensity and skips that step.
	InitialFock *linalg.Matrix

	// CheckpointPath, when set, checkpoints F, D and the energy of every
	// SCF iteration off the critical path: the loop hands the iteration's
	// snapshot to a latest-wins background writer (Checkpoint.Save, so the
	// file on disk is always a complete iteration and path+PrevSuffix the
	// write before it) and starts the next density step at once. While the
	// run is in flight the file may trail the solver by the write in
	// progress plus the snapshots that write coalesced; RunHF flushes and
	// stops the writer before it returns on every path — convergence,
	// MaxIter, cancellation, blow-up, build error — so after it returns the
	// file holds the last completed iteration and nothing writes to it any
	// more. A crash mid-run therefore costs a resumer at most one write's
	// worth of iterations, never a wrong answer. A failed write fails the
	// run at the next hand-off (or at exit) with the cause wrapped.
	CheckpointPath string

	// OnDurable, when non-nil, is called on the checkpoint writer's
	// goroutine each time a checkpoint has become durable at
	// CheckpointPath — the place to advertise "iteration k can be resumed
	// from" to anyone else. Calls are serial, in increasing Iter, and the
	// last one happens before RunHF returns; time spent here delays the
	// next write (and the final flush), not the solver.
	OnDurable func(CheckpointWrite)

	// StartIter offsets the iteration count recorded in checkpoints, so a
	// resumed run continues the original numbering.
	StartIter int

	// FockMetrics attaches the real-mode metrics registry to every GTFock
	// Fock build of the run (see core.Options.Metrics); it accumulates
	// across SCF iterations. Nil disables collection.
	FockMetrics *metrics.Registry

	// FockBackend, when non-nil, supplies the distributed D and F arrays
	// for every GTFock build of the run (see core.Options.Backend): pass a
	// netga.Session's Backend and call its Checkpoint from OnIteration.
	FockBackend func(grid *dist.Grid2D, stats *dist.RunStats) (gaD, gaF dist.Backend, cleanup func(), err error)

	// TuneFock, when non-nil, adjusts the assembled core.Options of every
	// GTFock build just before it runs (lease TTLs, retry budgets, fault
	// injection) without scf needing a field per knob.
	TuneFock func(*core.Options)

	// OnIteration, when non-nil, is called after every completed SCF
	// iteration with the global iteration number (StartIter offset
	// included). With CheckpointPath set the iteration's snapshot has been
	// handed to the writer but need not be on disk yet: progress reported
	// from here may precede durability by at most one write (OnDurable is
	// the durable edge). The HF service streams these to clients and
	// checkpoints its net sessions here; the callback runs on the SCF
	// goroutine, so it must be quick.
	OnIteration func(iter int, it Iteration)
}

// Iteration records one SCF cycle.
type Iteration struct {
	Energy      float64 // total energy after this cycle
	DeltaE      float64
	DErr        float64 // max |D - D_prev|
	FockTime    time.Duration
	DensityTime time.Duration
	PurifyIters int
	// FockStats is this iteration's build accounting (every iteration is
	// kept — Result.FockStats only carries the final build's).
	FockStats *dist.RunStats
	// Cache is the stored-ERI counter delta of this iteration's build
	// (zero when Options.ERICache is off).
	Cache metrics.CacheSnapshot
}

// Result is a completed SCF calculation.
type Result struct {
	Converged  bool
	Energy     float64 // total energy (electronic + nuclear repulsion)
	Electronic float64
	NuclearRep float64
	Iterations []Iteration
	F, D       *linalg.Matrix // final matrices in the working basis
	Basis      *basis.Set     // working (possibly reordered) basis
	Reorder    string         // shell ordering of the working basis
	Screening  *screen.Screening
	// FockStats is the accounting of the final Fock build; per-iteration
	// stats live in Iterations[i].FockStats.
	FockStats *dist.RunStats
	// CacheStats is the stored-ERI tier's run total (zero when
	// Options.ERICache is off).
	CacheStats metrics.CacheSnapshot

	NOcc int // doubly occupied orbitals
}

// RunHF performs restricted Hartree-Fock on a closed-shell molecule.
func RunHF(mol *chem.Molecule, opt Options) (res *Result, err error) {
	if opt.BasisName == "" {
		opt.BasisName = "cc-pvdz"
	}
	if opt.Tau <= 0 {
		opt.Tau = screen.DefaultTau
	}
	if opt.Prow <= 0 {
		opt.Prow = 1
	}
	if opt.Pcol <= 0 {
		opt.Pcol = 1
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 50
	}
	if opt.ConvTol <= 0 {
		opt.ConvTol = 1e-8
	}
	diisDepth := opt.DIIS
	if diisDepth == 0 {
		diisDepth = 8
	}
	if mol.NumElectrons()%2 != 0 {
		return nil, fmt.Errorf("scf: %s has %d electrons; only closed shells supported",
			mol.Formula(), mol.NumElectrons())
	}
	nocc := mol.NumElectrons() / 2
	// Option-only checks come before any integral work, so a bad
	// combination costs nothing on a paper-sized molecule.
	if opt.Engine != "" && opt.Engine != EngineGTFock {
		return nil, fmt.Errorf("scf: unknown engine %q", opt.Engine)
	}
	order, err := reorder.ByName(opt.Reorder)
	if err != nil {
		return nil, fmt.Errorf("scf: %w", err)
	}

	bs, err := basis.Build(mol, opt.BasisName)
	if err != nil {
		return nil, err
	}
	if order != nil {
		bs = bs.Permute(order(bs))
	}
	if nocc > bs.NumFuncs {
		return nil, fmt.Errorf("scf: %d occupied orbitals exceed %d basis functions",
			nocc, bs.NumFuncs)
	}

	scr := screen.Compute(bs, opt.Tau)
	s := integrals.Overlap(bs)
	hcore := integrals.CoreHamiltonian(bs)
	x := linalg.InvSqrtSym(s, 0)
	enuc := mol.NuclearRepulsion()

	res = &Result{Basis: bs, Screening: scr, NuclearRep: enuc, Reorder: opt.Reorder, NOcc: nocc}
	// A cold start is Alg. 1's "guess D": iteration 1 builds F from the
	// atomic densities and skips the density step. A warm start carries F.
	var f, d *linalg.Matrix
	if opt.InitialFock != nil {
		if opt.InitialFock.Rows != bs.NumFuncs || opt.InitialFock.Cols != bs.NumFuncs {
			return nil, fmt.Errorf("scf: InitialFock is %dx%d, want %dx%d",
				opt.InitialFock.Rows, opt.InitialFock.Cols, bs.NumFuncs, bs.NumFuncs)
		}
		f = opt.InitialFock.Clone()
	} else {
		d = GuessDensity(bs)
	}
	var ePrev float64
	diis := newDIIS(diisDepth)

	// The run's builds share one pair table: pair data depends only on
	// geometry and screening, so it is built once here rather than once
	// per iteration.
	pt := scr.PairTable(integrals.PrimTol)

	// Stored-ERI cache tier: one store per run, shared by every build of
	// this geometry (it is keyed off pt's quartet order).
	var store *integrals.ERIStore
	if opt.ERICache {
		store = integrals.NewERIStore(bs.NumShells(), opt.ERICacheBudget, nil, 0, nil)
	}

	// Checkpoints leave the critical path through one background writer
	// per run. Every exit below — return or panic — flushes and stops it,
	// so no write happens after RunHF returns and the file is the last
	// completed iteration; a write that failed fails the run here unless
	// the run is already failing for its own reason.
	var ckw *ckptWriter
	if opt.CheckpointPath != "" {
		ckw = startCkptWriter(opt.CheckpointPath, opt.OnDurable)
		defer func() {
			if werr := ckw.flush(); werr != nil && err == nil {
				res, err = nil, werr
			}
		}()
	}

	for it := 1; it <= opt.MaxIter; it++ {
		iter := Iteration{}

		// Cancellation boundary: returning from here flushes the previous
		// iteration's checkpoint to disk (when checkpointing), so stopping
		// here loses nothing — a parked or deadline-killed run resumes from
		// exactly this state.
		if opt.Ctx != nil && opt.Ctx.Err() != nil {
			return nil, fmt.Errorf("scf: canceled before iteration %d: %w",
				opt.StartIter+it, context.Cause(opt.Ctx))
		}

		var p *linalg.Matrix
		if f == nil {
			// Cold start, iteration 1: build straight from the guess.
			p = d.Clone().Scale(0.5)
			iter.DErr = d.MaxAbs()
		} else {
			// Numerical blow-up guard: a NaN/Inf in F (bad warm start, DIIS
			// breakdown, diverging density) would otherwise propagate
			// silently through eigensolver and energy until MaxIter.
			if err := nonFiniteErr(f, it, "Fock matrix"); err != nil {
				return nil, err
			}
			t0 := time.Now()
			var err error
			if p, iter.PurifyIters, err = densityStep(f, x, nocc, opt.UsePurification); err != nil {
				return nil, fmt.Errorf("scf: iteration %d: %w", it, err)
			}
			dNew := p.Clone().Scale(2)
			iter.DensityTime = time.Since(t0)
			if d != nil {
				iter.DErr = linalg.MaxAbsDiff(d, dNew)
			} else {
				iter.DErr = dNew.MaxAbs()
			}
			d = dNew
		}

		// Fock build F = H_core + G(p) (Alg. 1 line 6, eq. (3)).
		t1 := time.Now()
		var cacheBefore metrics.CacheSnapshot
		if store != nil {
			cacheBefore = store.Stats()
		}
		g, stats, err := buildG(bs, scr, p, pt, store, opt)
		if err != nil {
			return nil, err
		}
		iter.FockTime = time.Since(t1)
		iter.FockStats = stats
		if store != nil {
			res.CacheStats = store.Stats()
			iter.Cache = res.CacheStats.Sub(cacheBefore)
		}
		res.FockStats = stats

		// A blow-up in the build itself must surface at the iteration that
		// produced it: a non-finite G (from a non-finite density that
		// slipped through the eigensolve) would otherwise propagate one
		// more density step before the top-of-loop F check caught it.
		if err := nonFiniteErr(g, it, "two-electron matrix"); err != nil {
			return nil, err
		}
		f = hcore.Clone()
		f.AXPY(1, g)
		if err := nonFiniteErr(f, it, "freshly built Fock matrix"); err != nil {
			return nil, err
		}

		// Energy: E_elec = 1/2 Tr(D (H + F)) = Tr(p (H + F)).
		hp := hcore.Clone()
		hp.AXPY(1, f)
		eElec := linalg.TraceMul(p, hp)
		eTot := eElec + enuc
		if math.IsNaN(eTot) || math.IsInf(eTot, 0) {
			return nil, fmt.Errorf("%w at iteration %d: total energy is %g", ErrNumericalBlowUp, it, eTot)
		}
		iter.Energy = eTot
		iter.DeltaE = eTot - ePrev
		if it == 1 {
			iter.DeltaE = math.NaN()
		}
		res.Iterations = append(res.Iterations, iter)
		res.Electronic = eElec
		res.Energy = eTot
		// The F this iteration built, the one Energy and D go with — not
		// the DIIS extrapolation below, which only feeds the next density.
		res.F, res.D = f, d

		conv := it > 1 && math.Abs(iter.DeltaE) < opt.ConvTol && iter.DErr < dTol
		if ckw != nil {
			// F and D go to the writer uncopied. The loop never writes an
			// iteration's f or d again once they are built: the next
			// iteration allocates fresh ones, DIIS keeps a clone of f and
			// only reads d, and the caller sees res.F/res.D after the
			// flush. (The race detector holds this to account:
			// TestCheckpointHandOffIsRaceFree.)
			if err := ckw.submit(&Checkpoint{
				Version: checkpointVersion, Formula: mol.Formula(),
				BasisName: opt.BasisName, NumFuncs: bs.NumFuncs,
				Iter: opt.StartIter + it, Reorder: opt.Reorder,
				Converged: conv, Energy: eTot,
				FData: f.Data, DData: d.Data,
			}); err != nil {
				return nil, err
			}
		}
		if opt.OnIteration != nil {
			opt.OnIteration(opt.StartIter+it, iter)
		}
		if conv {
			res.Converged = true
			return res, nil
		}
		ePrev = eTot

		// DIIS extrapolation of F for the next density step.
		if diisDepth > 0 {
			f = diis.extrapolate(f, d, s, x)
		}
	}
	return res, nil
}

// densityStep returns the spinless density p of the nocc lowest orbitals
// of f (Alg. 1 lines 7-10), and the purification iterations it took.
// p = X rho X^T is C_occ C_occ^T (tr(pS) = nocc); the physical density of
// Alg. 1 line 10 is D = 2p. Equation (3) of the paper is dimensionally
// written for the unscaled p (see DESIGN.md), so the builders receive p.
func densityStep(f, x *linalg.Matrix, nocc int, usePurification bool) (*linalg.Matrix, int, error) {
	fPrime := linalg.MatMul(linalg.MatMul(x.T(), f), x)
	if usePurification {
		rho, nit, err := purify.Canonical(fPrime, nocc, purify.DefaultTol, 300, nil)
		if err != nil {
			return nil, 0, err
		}
		return linalg.MatMul(linalg.MatMul(x, rho), x.T()), nit, nil
	}
	// The eigensolver hands over the occupied orbitals themselves, so rho
	// is never formed: C = X V_occ, p = C C^T — two n^2 n_occ products,
	// and p symmetric by construction.
	eig := linalg.EigSym(fPrime)
	n := f.Rows
	vocc := linalg.NewMatrix(n, nocc)
	for i := 0; i < n; i++ {
		copy(vocc.Data[i*nocc:(i+1)*nocc], eig.Vectors.Data[i*n:i*n+nocc])
	}
	c := linalg.MatMul(x, vocc)
	return linalg.MatMul(c, c.T()), 0, nil
}

// firstNonFinite returns the position of the first NaN/Inf entry of m.
func firstNonFinite(m *linalg.Matrix) (i, j int, found bool) {
	for k, v := range m.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return k / m.Cols, k % m.Cols, true
		}
	}
	return 0, 0, false
}

// nonFiniteErr wraps ErrNumericalBlowUp for the first NaN/Inf entry of
// m, attributed to the iteration that produced it; nil if m is finite.
func nonFiniteErr(m *linalg.Matrix, it int, what string) error {
	i, j, ok := firstNonFinite(m)
	if !ok {
		return nil
	}
	return fmt.Errorf("%w at iteration %d: %s has non-finite entry %g at (%d,%d)",
		ErrNumericalBlowUp, it, what, m.At(i, j), i, j)
}

// buildG is the package's one two-electron build, G(d) by GTFock
// (core.Build), for RunHF and the atomic guess alike. pt is the caller's
// shell-pair table and store its stored-ERI tier (nil: recompute every
// build); opt supplies the grid and the build hooks.
func buildG(bs *basis.Set, scr *screen.Screening, d *linalg.Matrix, pt *integrals.PairTable, store *integrals.ERIStore, opt Options) (*linalg.Matrix, *dist.RunStats, error) {
	copt := core.Options{
		Prow: opt.Prow, Pcol: opt.Pcol, PairTable: pt, ERIStore: store,
		Metrics: opt.FockMetrics, Ctx: opt.Ctx, Backend: opt.FockBackend,
	}
	if opt.TuneFock != nil {
		opt.TuneFock(&copt)
	}
	r := core.Build(bs, scr, d, copt)
	return r.G, r.Stats, r.Err
}

// diisIndependence is the smallest eigenvalue the cosine matrix of the
// DIIS error vectors may have before the oldest vector is dropped: about
// the relative rounding floor of a late error vector (the commutator is a
// difference of O(10) products, eps*|FDS|/|e| ~ 1e-8 at |e| ~ 1e-7), so
// anything below it is not information. A symmetric molecule confines the
// error vectors to a few dimensions (four for CH4/STO-3G) and the
// subspace outgrows them by the sixth iteration; without the cut the
// coefficients — and with them the converged energy, at the 1e-9 level,
// and the iteration count — follow rounding-level changes in F such as
// the order a build's lanes or ranks sum G in. Any value from 1e-12 to
// 1e-6 gave the same iteration counts and energies on the declared
// workloads' molecules.
const diisIndependence = 1e-8

// diisState implements Pulay's DIIS with the orthogonalized commutator
// error e = X^T (FDS - SDF) X. dots[i][j] = <errs[i], errs[j]> is kept
// beside the subspace, so a step computes only the new entry's row.
type diisState struct {
	depth int
	fs    []*linalg.Matrix
	errs  []*linalg.Matrix
	dots  [][]float64
}

func newDIIS(depth int) *diisState {
	if depth < 0 {
		depth = 0
	}
	return &diisState{depth: depth}
}

// dropOldest removes entry 0 from the subspace and from dots.
func (ds *diisState) dropOldest() {
	ds.fs, ds.errs, ds.dots = ds.fs[1:], ds.errs[1:], ds.dots[1:]
	for i := range ds.dots {
		ds.dots[i] = ds.dots[i][1:]
	}
}

func (ds *diisState) extrapolate(f, d, s, x *linalg.Matrix) *linalg.Matrix {
	if ds.depth == 0 {
		return f
	}
	// F, D and S are symmetric, so SDF = (FDS)^T: the commutator costs two
	// products, the orthogonalization two more.
	fds := linalg.MatMul(linalg.MatMul(f, d), s)
	comm := fds.Clone()
	comm.AXPY(-1, fds.T())
	e := linalg.MatMul(linalg.MatMul(x.T(), comm), x)

	ds.fs = append(ds.fs, f.Clone())
	ds.errs = append(ds.errs, e)
	row := make([]float64, len(ds.errs))
	for i, ei := range ds.errs {
		for k, v := range ei.Data {
			row[i] += v * e.Data[k]
		}
	}
	if row[len(row)-1] == 0 {
		// F commutes with D exactly: a fixed point, nothing to extrapolate
		// (and no direction to scale by).
		ds.fs, ds.errs = ds.fs[:len(ds.fs)-1], ds.errs[:len(ds.errs)-1]
		return f
	}
	for i := range ds.dots {
		ds.dots[i] = append(ds.dots[i], row[i])
	}
	ds.dots = append(ds.dots, row)
	if len(ds.fs) > ds.depth {
		ds.dropOldest()
	}
	m := len(ds.fs)
	// Pulay's equations — minimize c^T B c subject to sum(c) = 1 — solved
	// in the scaled unknowns z_i = c_i |e_i|: the matrix becomes the cosines
	// between the error vectors (unit diagonal), c = w z / sum(w z) with
	// w_i = 1/|e_i|. The subspace first sheds its oldest entries until the
	// cosines say the rest are independent (diisIndependence).
	var w []float64
	var cos *linalg.Matrix
	for ; m >= 2; m-- {
		w = make([]float64, m)
		for i := range w {
			w[i] = 1 / math.Sqrt(ds.dots[i][i])
		}
		cos = linalg.NewMatrix(m, m)
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				cos.Set(i, j, ds.dots[i][j]*w[i]*w[j])
			}
		}
		if linalg.EigSym(cos).Values[0] > diisIndependence {
			break
		}
		ds.dropOldest()
	}
	if m < 2 {
		return f
	}
	z, err := linalg.SolveLinear(cos, w)
	var sum float64
	for i := range z {
		z[i] *= w[i]
		sum += z[i]
	}
	if err != nil || sum == 0 {
		// Singular subspace: drop the oldest entry and carry on.
		ds.dropOldest()
		return f
	}
	out := linalg.NewMatrix(f.Rows, f.Cols)
	for i := 0; i < m; i++ {
		out.AXPY(z[i]/sum, ds.fs[i])
	}
	return out
}
