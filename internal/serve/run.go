package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/core"
	"gtfock/internal/dist"
	"gtfock/internal/fault"
	"gtfock/internal/metrics"
	netga "gtfock/internal/net"
	"gtfock/internal/scf"
)

// sizeJob is the one count of what a job holds, for a job run on a
// prow x pcol grid whose ranks run lanes lanes each. The SCF working set
// is F, D, S, X, H and up to 8 DIIS F/error pairs, 21 n^2 doubles,
// charged as 24 for the slack around them; the builds' local buffers are
// core.LocalBytes; the store's bound is core.StoreBytes.
func sizeJob(bs *basis.Set, prow, pcol, lanes int) JobSize {
	n := int64(bs.NumFuncs)
	index, values := core.StoreBytes(bs)
	return JobSize{
		NumBF:      bs.NumFuncs,
		Fixed:      8*24*n*n + core.LocalBytes(bs.NumFuncs, prow*pcol, lanes),
		StoreIndex: index, StoreValues: values,
	}
}

// FleetRunner executes jobs against a shared fockd shard fleet: each
// job attempt opens a fresh job-scoped netga session on every shard —
// one hello per shard, on conns the runner pools for its life — runs the
// SCF with the distributed backend and its own stored-ERI tier
// (iteration 1 records, later iterations replay, within the value budget
// the server gave the job's run, Job.Store), and says goodbye. Shard
// failures (a killed/restarted multi-session server forgets the
// session and answers "unknown session") surface as build errors and
// are retried with exponential backoff from the job's last
// per-iteration checkpoint — under a NEW session id, so the fresh
// session's empty arrays and dedup state make double-accumulation from
// the dead attempt structurally impossible.
type FleetRunner struct {
	// Addrs are the multi-session shard servers (all jobs share them).
	Addrs []string
	// CheckpointDir holds one checkpoint file per job (required).
	CheckpointDir string
	// Prow, Pcol set the per-job process grid (default 2x2 — jobs are
	// small; scale comes from multiplexing many of them, not from one
	// wide grid).
	Prow, Pcol int
	// RetryMax bounds shard-failure retries per job (default 3); the
	// backoff before retry k is retryBackoff<<k.
	RetryMax int
	// OpTimeout is the per-RPC socket deadline (default netga's 2s).
	OpTimeout time.Duration
	// Fault, when non-nil, injects conn-layer network faults into every
	// job's clients (chaos mode).
	Fault *fault.Injector
	// TuneCore, when non-nil, adjusts each build's core.Options
	// (lease TTLs, retry budgets) after the runner's own settings.
	TuneCore func(*core.Options)
	// RPC, Serve and Cache are the counter sets the runner updates (Cache
	// sums the stored-ERI totals of every completed attempt);
	// NewFleetRunner allocates private ones, and a caller may swap in
	// shared sets.
	RPC   *metrics.RPC
	Serve *metrics.Serve
	Cache *metrics.Cache

	sessionSeq atomic.Uint64
	// SessionNonce salts session ids so daemon restarts sharing a fleet
	// cannot collide; NewFleetRunner sets it from the clock.
	SessionNonce uint64

	// conns keeps idle conns to the shards for the runner's life: a
	// session id rides in every frame, so an attempt's fresh session
	// needs a hello, not a dial.
	conns *netga.Conns
}

// retryBackoff is the backoff before a job's first shard-failure retry;
// it doubles with each retry after.
const retryBackoff = 50 * time.Millisecond

// NewFleetRunner builds a runner over the given shard fleet.
func NewFleetRunner(addrs []string, checkpointDir string) *FleetRunner {
	return &FleetRunner{
		Addrs:         addrs,
		CheckpointDir: checkpointDir,
		RPC:           &metrics.RPC{},
		Serve:         metrics.NewServe(),
		Cache:         &metrics.Cache{},
		SessionNonce:  uint64(time.Now().UnixNano()),
		conns:         netga.NewConns(),
	}
}

// ckptPath is the file j's attempts checkpoint into.
func (r *FleetRunner) ckptPath(j *Job) string {
	return filepath.Join(r.CheckpointDir, j.ID+".ckpt")
}

// forget removes j's checkpoint files. The Server calls it once the job's
// terminal outcome is durable and published, when nothing will resume
// the job; a parked, lease-lost or retriable job keeps them.
func (r *FleetRunner) forget(j *Job) {
	path := r.ckptPath(j)
	os.Remove(path)
	os.Remove(path + scf.PrevSuffix)
}

// grid is the per-job process grid, defaulted.
func (r *FleetRunner) grid() (prow, pcol int) {
	prow, pcol = r.Prow, r.Pcol
	if prow <= 0 {
		prow = 2
	}
	if pcol <= 0 {
		pcol = 2
	}
	return prow, pcol
}

// Estimate validates a job spec by actually building its molecule and
// basis — malformed molecules and unknown basis sets fail here,
// synchronously at submit, instead of after queueing — and sizes the job
// as this runner runs it: on its grid, with core.Lanes lanes per rank.
// It is the Server's default Config.Estimate.
func (r *FleetRunner) Estimate(spec JobSpec) (JobSize, error) {
	mol, err := chem.ParseSpec(spec.Molecule)
	if err != nil {
		return JobSize{}, err
	}
	bs, err := basis.Build(mol, spec.Basis)
	if err != nil {
		return JobSize{}, err
	}
	prow, pcol := r.grid()
	return sizeJob(bs, prow, pcol, core.Lanes(prow*pcol)), nil
}

// Run executes one job to completion, retrying across shard failures.
func (r *FleetRunner) Run(ctx context.Context, j *Job) (*JobResult, error) {
	mol, err := chem.ParseSpec(j.Spec.Molecule)
	if err != nil {
		return nil, fmt.Errorf("serve: job %s: %w", j.ID, err)
	}
	ckptPath := r.ckptPath(j)
	retryMax := r.RetryMax
	if retryMax <= 0 {
		retryMax = 3
	}
	for attempt := 0; ; attempt++ {
		res, err := r.attempt(ctx, j, mol, ckptPath)
		if err == nil {
			return res, nil
		}
		// Cancellation (deadline, park, drain, client cancel) is not a
		// shard failure: surface the cause, checkpoint already on disk.
		if ctx.Err() != nil {
			return nil, err
		}
		if attempt >= retryMax {
			return nil, fmt.Errorf("serve: job %s failed after %d retries: %w", j.ID, attempt, err)
		}
		atomic.AddInt64(&r.Serve.Retries, 1)
		j.mu.Lock()
		j.retries++
		j.appendLocked(Event{Type: "retry", Msg: err.Error()})
		j.mu.Unlock()
		if dist.SleepBackoff(ctx, retryBackoff<<uint(attempt)) != nil {
			return nil, fmt.Errorf("serve: job %s: %w", j.ID, context.Cause(ctx))
		}
	}
}

// attempt runs the SCF once over a fresh job-scoped session, resuming
// from the job's checkpoint when one exists.
func (r *FleetRunner) attempt(ctx context.Context, j *Job, mol *chem.Molecule, ckptPath string) (*JobResult, error) {
	session := r.SessionNonce ^ (r.sessionSeq.Add(1) << 20) ^ uint64(os.Getpid())
	if session == 0 {
		session = 1
	}
	prow, pcol := r.grid()

	sess := netga.NewSession(netga.Config{
		Session: session, OpTimeout: r.OpTimeout, RPC: r.RPC, Fault: r.Fault,
	}, r.conns, "", r.Addrs)
	// Every iteration of the attempt is checkpointed or skipped by the
	// SCF's cadence; the skipped ones are counted as coalesced once
	// RunHF has returned (no write happens after that), so written +
	// coalesced is the iterations run.
	var iters, written int64
	opt := scf.Options{
		BasisName: j.Spec.Basis,
		MaxIter:   j.Spec.MaxIter,
		ConvTol:   j.Spec.ConvTol,
		Ctx:       ctx,
		Prow:      prow, Pcol: pcol,
		CheckpointPath: ckptPath,
		FockBackend:    sess.Backend,
		TuneFock:       r.TuneCore,
		// The attempt's store is new: a retry or a resumed park records
		// again on its fresh session.
		ERICache:       j.Store > 0,
		ERICacheBudget: j.Store,
		OnIteration: func(iter int, it scf.Iteration) {
			// Iteration boundary: no accumulate can still be retrying, so
			// advance the shard sessions' dedup generation, then stream
			// the progress event. Whether the iteration is checkpointed is
			// the SCF's cadence; OnDurable owns that edge.
			_ = sess.Checkpoint()
			iters++
			// Iteration 1 has no previous energy (DeltaE is NaN), and JSON
			// has no NaN: sanitize or the NDJSON encoder kills the stream.
			dE := it.DeltaE
			if math.IsNaN(dE) || math.IsInf(dE, 0) {
				dE = 0
			}
			j.Emit(Event{Type: "iteration", Iter: iter, Energy: it.Energy, DeltaE: dE})
		},
		OnDurable: func(w scf.CheckpointWrite) {
			// Iteration w.Iter is what the next attempt will load
			// (opt.StartIter = ck.Iter): only now may the resume cursor
			// name it.
			atomic.AddInt64(&r.Serve.CkptWritten, 1)
			written++
			r.Serve.CkptWriteNS.Observe(w.Took.Nanoseconds())
			j.mu.Lock()
			j.resumeAt = w.Iter + 1
			j.mu.Unlock()
		},
	}
	if ck, err := scf.LoadCheckpointFallback(ckptPath); err == nil && ck != nil {
		if verr := ck.Validate(mol.Formula(), j.Spec.Basis, opt.Reorder, j.Size.NumBF); verr == nil {
			opt.InitialFock = ck.Fock()
			opt.StartIter = ck.Iter
		}
	}

	res, err := scf.RunHF(mol, opt)
	atomic.AddInt64(&r.Serve.CkptCoalesced, iters-written)
	// Bye unless the transport failed (the shard may be dead): an attempt
	// that ended on its own ctx must not leave its session resident.
	sess.Close(err == nil || ctx.Err() != nil)
	if err != nil {
		return nil, err
	}
	r.Cache.Add(res.CacheStats)
	if !res.Converged {
		return nil, errors.New("serve: SCF did not converge within max iterations")
	}
	return &JobResult{Converged: true, Energy: res.Energy, Iterations: len(res.Iterations)}, nil
}
