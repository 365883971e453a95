// Command hf runs a closed-shell restricted Hartree-Fock calculation
// (the paper's Algorithm 1), every Fock matrix built by GTFock. The
// NWChem-style baseline is a Fock-build comparison: run it with fockbuild.
//
// Examples:
//
//	hf -mol CH4 -basis sto-3g
//	hf -mol C6H6 -grid 2x2 -purify
//	hf -mol alkane:4 -basis cc-pvdz -reorder cell
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/dist"
	"gtfock/internal/metrics"
	"gtfock/internal/scf"
	"gtfock/internal/screen"
)

func main() {
	var (
		molSpec = flag.String("mol", "CH4", "molecule: formula, alkane:N, or flake:K")
		bname   = flag.String("basis", "sto-3g", "basis set: sto-3g, 6-31g, cc-pvdz, or cc-pvtz")
		grid    = flag.String("grid", "1x1", "process grid RxC")
		maxIter = flag.Int("maxiter", 50, "maximum SCF iterations")
		conv    = flag.Float64("conv", 1e-8, "energy convergence (Hartree)")
		tau     = flag.Float64("tau", screen.DefaultTau, "screening tolerance")
		pur     = flag.Bool("purify", false, "density via canonical purification (Sec. IV-E)")
		ord     = flag.String("reorder", "", "shell ordering: cell, or empty for the generator's atom order")
		noDIIS  = flag.Bool("nodiis", false, "disable DIIS acceleration")

		// Stored-ERI cache tier: -eri-cache records iteration 1's
		// surviving integral batches and replays them on iterations 2..N.
		eriCache  = flag.Bool("eri-cache", false, "store surviving ERIs on iteration 1, replay on later iterations")
		eriBudget = flag.Int64("eri-cache-budget", 0, "resident stored-ERI bytes; over budget drops to recompute (0 = unlimited)")

		// Checkpoint / resume: -checkpoint saves the SCF state as the run
		// goes and the converged state at its end (atomic rename, always a
		// complete iteration on disk);
		// -resume warm-starts from it and retries once from the last valid
		// iteration if the run blows up numerically.
		ckptPath = flag.String("checkpoint", "", "save SCF checkpoints, and the converged state, to this file")
		resume   = flag.Bool("resume", false, "warm-start from -checkpoint if it exists; reload it after a numerical blow-up")

		// Observability: metrics accumulate over every Fock build of the
		// SCF run.
		metricsOut = flag.String("metrics", "", "write per-worker Fock-build metrics JSON to this file")
		httpAddr   = flag.String("http", "", "serve /debug/vars (expvar) and /debug/pprof on this address")
	)
	flag.Parse()

	mol, err := chem.ParseSpec(*molSpec)
	fatalIf(err)

	// SIGINT/SIGTERM interrupt the SCF at the next iteration boundary:
	// RunHF flushes the just-finished iteration's checkpoint before it
	// returns (with -checkpoint), so an interrupted run resumes with
	// -resume instead of recomputing. A second signal kills immediately.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	opt := scf.Options{
		Ctx:             ctx,
		BasisName:       *bname,
		Tau:             *tau,
		MaxIter:         *maxIter,
		ConvTol:         *conv,
		UsePurification: *pur,
		Reorder:         *ord,
		ERICache:        *eriCache,
		ERICacheBudget:  *eriBudget,
	}
	if *noDIIS {
		opt.DIIS = -1
	}
	opt.Prow, opt.Pcol, err = dist.ParseGrid(*grid)
	fatalIf(err)

	var reg *metrics.Registry
	if *metricsOut != "" || *httpAddr != "" {
		reg = metrics.NewRegistry(opt.Prow * opt.Pcol)
		opt.FockMetrics = reg
	}
	if *httpAddr != "" {
		metrics.PublishFunc("fock_metrics", func() any { return reg.Snapshot() })
		addr, err := metrics.StartDebugServer(*httpAddr)
		fatalIf(err)
		fmt.Printf("debug endpoint: http://%s/debug/vars (expvar) and http://%s/debug/pprof/\n", addr, addr)
	}

	opt.CheckpointPath = *ckptPath
	if *resume && *ckptPath == "" {
		fatalIf(fmt.Errorf("-resume requires -checkpoint"))
	}
	if *resume {
		if ck, err := loadResumeState(*ckptPath, mol, *bname, *ord); err != nil {
			fatalIf(err)
		} else if ck != nil {
			fmt.Printf("resuming from checkpoint: iteration %d (E = %.10f Ha)\n", ck.Iter, ck.Energy)
			opt.InitialFock = ck.Fock()
			opt.StartIter = ck.Iter
		}
	}

	fmt.Printf("RHF/%s on %s (%d electrons)\n",
		*bname, mol.Formula(), mol.NumElectrons())
	res, err := scf.RunHF(mol, opt)
	if err != nil && *resume && errors.Is(err, scf.ErrNumericalBlowUp) {
		// The checkpoint on disk is the last complete iteration before the
		// blow-up; reload it and continue once with a fresh DIIS subspace.
		ck, lerr := loadResumeState(*ckptPath, mol, *bname, *ord)
		fatalIf(lerr)
		if ck == nil {
			fatalIf(err)
		}
		fmt.Printf("%v\n", err)
		fmt.Printf("resuming from checkpoint: iteration %d (E = %.10f Ha)\n", ck.Iter, ck.Energy)
		opt.InitialFock = ck.Fock()
		opt.StartIter = ck.Iter
		res, err = scf.RunHF(mol, opt)
	}
	if err != nil && ctx.Err() != nil && errors.Is(err, context.Canceled) {
		// Interrupted by SIGINT/SIGTERM at an iteration boundary: the
		// last completed iteration's checkpoint (with -checkpoint) is
		// already durably on disk, so exit cleanly instead of crashing.
		stop()
		if *ckptPath != "" {
			fmt.Printf("interrupted; latest checkpoint saved to %s (continue with -resume)\n", *ckptPath)
		} else {
			fmt.Println("interrupted (run with -checkpoint to make interruptions resumable)")
		}
		return
	}
	fatalIf(err)
	fatalIf(saveConverged(*ckptPath, res, *bname))

	fmt.Print(iterTable(opt.StartIter, res.Iterations))
	if c := res.CacheStats; c.TaskHits+c.TaskMisses > 0 {
		fmt.Printf("stored-ERI cache: %d hits / %d misses (%.1f%%), %d quartets stored (%.1f MB resident",
			c.TaskHits, c.TaskMisses, 100*c.HitRate(), c.QuartetsStored,
			float64(c.BytesStored)/(1<<20))
		if c.Dropped > 0 {
			fmt.Printf(", %d tasks dropped over budget", c.Dropped)
		}
		fmt.Printf(")\n")
	}
	if res.Converged {
		fmt.Printf("converged: E = %.10f Ha (electronic %.10f, nuclear %.10f)\n",
			res.Energy, res.Electronic, res.NuclearRep)
	} else {
		fmt.Printf("NOT converged after %d iterations; E = %.10f Ha\n",
			len(res.Iterations), res.Energy)
		os.Exit(1)
	}
	fmt.Printf("last Fock build: %.2f MB and %.0f calls per process, l = %.4f\n",
		res.FockStats.VolumeAvgMB(), res.FockStats.CallsAvg(),
		res.FockStats.LoadBalance())
	if *metricsOut != "" {
		data, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
		fatalIf(err)
		fatalIf(os.WriteFile(*metricsOut, append(data, '\n'), 0o644))
		fmt.Printf("Fock-build metrics (all iterations) written to %s\n", *metricsOut)
	}
}

// iterTable formats the iteration table. Rows are numbered globally from
// startIter+1, so a resumed run continues the numbering its checkpoints
// and OnIteration use.
func iterTable(startIter int, its []scf.Iteration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%4s %18s %14s %12s %10s %10s\n",
		"iter", "E_total (Ha)", "dE", "max|dD|", "t_fock", "t_dens")
	for i, it := range its {
		fmt.Fprintf(&b, "%4d %18.10f %14.3e %12.3e %9.2fs %9.2fs",
			startIter+i+1, it.Energy, it.DeltaE, it.DErr,
			it.FockTime.Seconds(), it.DensityTime.Seconds())
		if it.PurifyIters > 0 {
			fmt.Fprintf(&b, "  (purify: %d iters)", it.PurifyIters)
		}
		if c := it.Cache; c.TaskHits+c.TaskMisses > 0 {
			fmt.Fprintf(&b, "  (cache: %.0f%% hit)", 100*c.HitRate())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// saveConverged keeps -checkpoint's file contract: RunHF checkpoints only
// what a resume needs and leaves a converged run's file at an earlier
// iteration, so a converged run is saved here, once — the file then holds
// the converged iterate, as a later -resume expects. A run that did not
// converge already has its last iteration on disk.
func saveConverged(path string, res *scf.Result, basisName string) error {
	if path == "" || !res.Converged {
		return nil
	}
	return scf.SaveCheckpoint(path, res, basisName)
}

// loadResumeState loads and validates the checkpoint at path for the
// given system, falling back to the previous generation when the latest
// file is torn or corrupt (a crash mid-save costs one iteration, not the
// run). A missing file is not an error — it returns (nil, nil) so a
// first run with -resume simply starts cold.
func loadResumeState(path string, mol *chem.Molecule, basisName, ord string) (*scf.Checkpoint, error) {
	ck, err := scf.LoadCheckpointFallback(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	bs, err := basis.Build(mol, basisName)
	if err != nil {
		return nil, err
	}
	if err := ck.Validate(mol.Formula(), basisName, ord, bs.NumFuncs); err != nil {
		return nil, err
	}
	return ck, nil
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hf:", err)
		os.Exit(1)
	}
}
