package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/core"
	"gtfock/internal/dist"
	"gtfock/internal/integrals"
	"gtfock/internal/linalg"
	"gtfock/internal/metrics"
	netga "gtfock/internal/net"
	"gtfock/internal/scf"
	"gtfock/internal/screen"
)

// scfSpec is the input of one scf_* workload.
type scfSpec struct {
	Mol, Basis string
	Cache      bool    // scf.Options.ERICache: iterations 2..N replay stored integrals
	Net        bool    // D and F live in two durable loopback net.Server shards
	RefEnergy  float64 // converged energy of the unjittered geometry (seed 0)
}

// energyTol is the agreement every energy check demands.
const energyTol = 1e-9

// jitterBohr bounds the per-coordinate displacement a nonzero seed applies.
const jitterBohr = 0.01

// molecule builds the workload's input from the seed: seed 0 is the
// pinned geometry, any other seed displaces every coordinate by at most
// jitterBohr so the integrals differ while the work stays the same size.
func molecule(spec string, seed int64) (*chem.Molecule, error) {
	mol, err := chem.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	if seed != 0 {
		rng := rand.New(rand.NewSource(seed))
		for i := range mol.Atoms {
			p := &mol.Atoms[i].Pos
			p.X += (2*rng.Float64() - 1) * jitterBohr
			p.Y += (2*rng.Float64() - 1) * jitterBohr
			p.Z += (2*rng.Float64() - 1) * jitterBohr
		}
	}
	return mol, nil
}

// prepared is what must exist before the first Fock build: the same
// steps scf.RunHF runs internally, called one by one so each can be timed.
type prepared struct {
	bs      *basis.Set
	scr     *screen.Screening
	pt      *integrals.PairTable
	s, h, x *linalg.Matrix

	screenS, pairTableS float64
}

func prepare(mol *chem.Molecule, basisName string) (*prepared, error) {
	bs, err := basis.Build(mol, basisName)
	if err != nil {
		return nil, err
	}
	p := &prepared{bs: bs}
	p.screenS = timed(func() { p.scr = screen.Compute(bs, screen.DefaultTau) })
	p.pairTableS = timed(func() { p.pt = p.scr.PairTable(0) })
	p.s = integrals.Overlap(bs)
	p.h = integrals.CoreHamiltonian(bs)
	p.x = linalg.InvSqrtSym(p.s, 0)
	return p, nil
}

// shards is a pair of durable loopback net.Server shard servers over one
// grid, the deployment `fockd -journal-dir` gives a build.
type shards struct {
	grid    *dist.Grid2D
	servers []*netga.Server
	addrs   []string
	assign  []int
	dirs    []string
}

func startShards(grid *dist.Grid2D, dir string, durable bool) (*shards, error) {
	const nservers = 2
	assign, hosted := netga.SplitProcs(grid.NumProcs(), nservers)
	sh := &shards{grid: grid, assign: assign}
	for k := 0; k < nservers; k++ {
		var opts []netga.ServerOption
		if durable {
			d, err := os.MkdirTemp(dir, "shard-")
			if err != nil {
				sh.close()
				return nil, err
			}
			sh.dirs = append(sh.dirs, d)
			opts = append(opts, netga.WithDurability(d, 0))
		}
		srv := netga.NewServer(grid, hosted[k], opts...)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			sh.close()
			return nil, err
		}
		sh.servers = append(sh.servers, srv)
		sh.addrs = append(sh.addrs, addr)
	}
	return sh, nil
}

func (sh *shards) close() {
	for _, s := range sh.servers {
		s.Close()
	}
}

// journalBytes sums the write-ahead journals the shards have on disk.
func (sh *shards) journalBytes() int64 {
	var n int64
	for _, d := range sh.dirs {
		if st, err := os.Stat(filepath.Join(d, "journal.wal")); err == nil {
			n += st.Size()
		}
	}
	return n
}

// dial opens the D and F clients of one session.
func (sh *shards) dial(stats *dist.RunStats, session uint64, rpc *metrics.RPC) (clD, clF *netga.Client, err error) {
	cfg := netga.Config{Array: 0, Session: session, RPC: rpc}
	clD, err = netga.Dial(sh.grid, stats, sh.addrs, sh.assign, cfg)
	if err != nil {
		return nil, nil, err
	}
	cfg.Array = 1
	clF, err = netga.Dial(sh.grid, stats, sh.addrs, sh.assign, cfg)
	if err != nil {
		clD.Close()
		return nil, nil, err
	}
	return clD, clF, nil
}

// scfRun holds one scf_* workload's inputs and samples.
type scfRun struct {
	cfg runConfig
	mol *chem.Molecule
	sh  *shards      // nil unless spec.Net
	rpc *metrics.RPC // transport counters of every net session
	tr  *tracer

	session uint64

	walls    []float64   // seconds per solve
	steps    [][]float64 // per solve: its wall cut at the end of every iteration (the last step is what follows the final one)
	traced   []bool      // per solve: whether spans were recorded
	focks    []float64   // seconds per Fock build (scf.Iteration.FockTime)
	bestFock []float64   // per solve: its fastest Fock build
	shares   []float64   // per solve: its Fock builds' share of its wall
	density  []float64   // seconds per density step
	ckpts    []float64   // seconds per net.Client.Checkpoint
	rss      []float64   // MB resident after every iteration
	lastIter []scf.Iteration
}

// solved is one finished RunHF call.
type solved struct {
	res   *scf.Result
	wall  float64   // seconds
	steps []float64 // the same wall, cut at the end of every iteration
	focks []float64 // seconds, one per Fock build
}

// solve runs scf.RunHF once the way the workload prescribes. traced adds
// spans around each call into a layer; store keeps the solve's samples
// (the warm-up and reference solves leave them alone); maxIter cuts the
// solve short (0 = run to convergence).
func (w *scfRun) solve(spec scfSpec, traced, store bool, maxIter int) (solved, error) {
	tr := w.tr
	if !traced {
		tr = nil
	}
	w.session++
	traceID := fmt.Sprintf("scf-%d", w.session)
	root := tr.open(traceID, 0, "scf.RunHF")

	var clD, clF *netga.Client
	defer func() {
		if clD != nil {
			clD.Close()
			clF.Close()
		}
	}()
	var buildStart, mark time.Time
	var focks, dens, ckpts, steps []float64
	opt := scf.Options{
		BasisName: spec.Basis, Engine: scf.EngineGTFock, MaxIter: maxIter,
		Prow: w.cfg.Prow, Pcol: w.cfg.Pcol, ERICache: spec.Cache,
		TuneFock: func(*core.Options) { buildStart = time.Now() },
		OnIteration: func(_ int, it scf.Iteration) {
			focks = append(focks, it.FockTime.Seconds())
			dens = append(dens, it.DensityTime.Seconds())
			tr.add(traceID, root, "scf.density", buildStart.Add(-it.DensityTime), buildStart)
			tr.add(traceID, root, "core.Build", buildStart, buildStart.Add(it.FockTime))
			if clD != nil {
				// The dedup generation advances at every iteration
				// boundary, as serve.FleetRunner does for a job.
				id := tr.open(traceID, root, "net.Checkpoint")
				var err error
				if s := timed(func() { err = clD.Checkpoint() }); err == nil {
					ckpts = append(ckpts, s)
				}
				tr.close(id)
			}
			if store {
				w.rss = append(w.rss, statusMB("VmRSS"))
			}
			now := time.Now()
			steps = append(steps, now.Sub(mark).Seconds())
			mark = now
		},
	}
	if spec.Net {
		session := uint64(os.Getpid())<<32 | w.session
		opt.FockBackend = func(grid *dist.Grid2D, stats *dist.RunStats) (dist.Backend, dist.Backend, func(), error) {
			if clD == nil {
				id := tr.open(traceID, root, "net.Dial")
				var err error
				clD, clF, err = w.sh.dial(stats, session, w.rpc)
				tr.close(id)
				if err != nil {
					return nil, nil, nil, err
				}
			}
			return clD, clF, nil, nil
		}
	}
	t := time.Now()
	mark = t
	res, err := scf.RunHF(w.mol, opt)
	end := time.Now()
	wall, steps := end.Sub(t).Seconds(), append(steps, end.Sub(mark).Seconds())
	tr.close(root)
	if err != nil {
		return solved{}, err
	}
	if store {
		w.walls = append(w.walls, wall)
		w.steps = append(w.steps, steps)
		w.traced = append(w.traced, traced)
		w.focks = append(w.focks, focks...)
		w.bestFock = append(w.bestFock, fastest(focks))
		w.shares = append(w.shares, sum(focks)/wall)
		w.density = append(w.density, dens...)
		w.ckpts = append(w.ckpts, ckpts...)
		w.lastIter = res.Iterations
	}
	return solved{res: res, wall: wall, steps: steps, focks: focks}, nil
}

// runSCF is the body of the four scf_* workloads.
func runSCF(cfg runConfig, spec scfSpec) (*result, error) {
	out := newResult()
	mol, err := molecule(spec.Mol, cfg.Seed)
	if err != nil {
		return nil, err
	}
	w := &scfRun{cfg: cfg, mol: mol, rpc: &metrics.RPC{}}
	if cfg.Trace {
		w.tr = newTracer()
		out.tracer = w.tr
	}

	// Set-up, many times over: a few now, the first of which the solves
	// use, and as many again after every timed solve, so that the samples
	// are spread over the whole run like those of every other timing.
	// Set-up is mostly allocation: one burst of it at the start of a young
	// process pays for its first pages at whatever the host charges then,
	// and a single one after a solve pays for that solve's garbage.
	var setups []float64
	setUp := func() (*prepared, *shards, error) {
		t := time.Now()
		prep, err := prepare(mol, spec.Basis)
		if err != nil {
			return nil, nil, err
		}
		var sh *shards
		if spec.Net {
			if sh, err = startShards(core.Grid(prep.bs, cfg.Prow, cfg.Pcol), cfg.TmpDir, true); err != nil {
				return nil, nil, err
			}
			clD, clF, err := sh.dial(nil, uint64(os.Getpid())<<32|1<<31|uint64(len(setups)+1), nil)
			if err != nil {
				sh.close()
				return nil, nil, err
			}
			clD.Close()
			clF.Close()
		}
		setups = append(setups, time.Since(t).Seconds())
		return prep, sh, nil
	}
	another := func() error {
		_, sh, err := setUp()
		if sh != nil {
			sh.close()
		}
		return err
	}
	prep, sh, err := setUp()
	if err != nil {
		return nil, err
	}
	if w.sh = sh; sh != nil {
		defer sh.close()
	}
	for i := 1; i < cfg.SetupReps; i++ {
		if err := another(); err != nil {
			return nil, err
		}
	}

	// Warm-up: two iterations take every path of a solve (record and
	// replay on scf_replay, dial and checkpoint on scf_net) once.
	if _, err := w.solve(spec, false, false, 2); err != nil {
		out.check(false, "warm-up solve: %v", err)
		return out, nil
	}
	// The unjittered geometry must land on its pinned energy; a jittered
	// one on the energy its other solves find. A net workload must, on
	// either, match the in-process solve of the same input.
	want, pinned := spec.RefEnergy, cfg.Seed == 0 && spec.RefEnergy != 0
	var inproc solved
	if spec.Net {
		plain := spec
		plain.Net = false
		inproc, err = w.solve(plain, false, false, 0)
		out.check(err == nil && inproc.res.Converged, "in-process reference solve: %v", err)
		if err != nil {
			return out, nil
		}
		if pinned {
			out.check(math.Abs(inproc.res.Energy-want) <= energyTol,
				"seed-0 in-process energy %.12f is off the pinned %.12f", inproc.res.Energy, want)
		} else {
			want, pinned = inproc.res.Energy, true
		}
	}

	// Timed solves until the budget is spent, each checked. The traced
	// pass alternates traced and untraced solves so the two share the machine.
	deadline := time.Now().Add(cfg.budget(1))
	var last solved
	win := openWindow()
	// A solve is started only while one as long as the last still fits.
	for i := 0; i < 2 || time.Now().Add(time.Duration(last.wall*float64(time.Second))).Before(deadline); i++ {
		traced := cfg.Trace && i%2 == 0
		s, err := w.solve(spec, traced, true, 0)
		if err == nil && !pinned {
			want, pinned = s.res.Energy, true
		}
		ok := err == nil && s.res.Converged && math.Abs(s.res.Energy-want) <= energyTol
		out.check(ok, "solve %d: energy or convergence off: %v", i, err)
		if err != nil {
			return out, nil
		}
		last = s
		win.probe()
		for k := 0; k < cfg.SetupReps; k++ {
			if err := another(); err != nil {
				return nil, err
			}
		}
	}
	out.Machine = win.close()
	out.E2E["setup_s"] = fastest(setups)

	// Cross-path check on every seed: the energy recomputed from one direct
	// core.Build at the converged density, E = Tr(p (2H + G)) + E_nuc, must
	// be the energy the solve reported.
	p := last.res.D.Clone().Scale(0.5) // builders take the spinless density
	direct := core.Build(prep.bs, prep.scr, p, core.Options{Prow: cfg.Prow, Pcol: cfg.Pcol, PairTable: prep.pt})
	out.check(direct.Err == nil, "direct core.Build: %v", direct.Err)
	if direct.Err == nil {
		hg := prep.h.Clone().Scale(2)
		hg.AXPY(1, direct.G)
		e := linalg.TraceMul(p, hg) + last.res.NuclearRep
		out.check(math.Abs(e-last.res.Energy) <= energyTol, "energy from a direct build %.12f != solve %.12f", e, last.res.Energy)
	}

	out.E2E["scf_wall_s"] = fastestSum(w.steps)
	out.E2E["fock_build_s"] = fastest(w.focks)
	out.E2E["rss_mb"] = median(w.rss)
	if !cfg.Trace {
		return out, nil
	}

	// The per-layer ledger of the traced pass.
	L := out.Layer
	out.Machine.ledger(L)
	L["harness.peak_rss_mb"] = statusMB("VmHWM")
	var tracedSteps, plainSteps [][]float64
	for i, st := range w.steps {
		if w.traced[i] {
			tracedSteps = append(tracedSteps, st)
		} else {
			plainSteps = append(plainSteps, st)
		}
	}
	L["trace_overhead_frac"] = fastestSum(tracedSteps)/fastestSum(plainSteps) - 1

	iters := float64(len(w.lastIter))
	L["scf.iterations"] = iters
	L["scf.energy_ha"] = last.res.Energy
	L["scf.fock_share"] = median(w.shares)
	L["scf.density_s_per_iter"] = mean(w.density)
	L["scf.diis_s_per_iter"] = math.Max(mean(w.walls)/iters-mean(w.focks)-mean(w.density), 0)
	L["scf.wall_p50_s"], L["scf.fock_build_p50_s"] = median(w.walls), median(w.focks)
	L["scf.wall_hi_s"], _ = tail(w.walls)
	L["scf.fock_build_hi_s"], L["scf.fock_build_hi_pct"] = tail(w.focks)
	L["scf.fock_build_samples"] = float64(len(w.focks))

	buildAccounting(L, w.lastIter)

	if spec.Net {
		rpcLedger(L, w.rpc)
		L["net.journal_bytes"] = float64(w.sh.journalBytes())
		L["net.checkpoint_ms"] = fastest(w.ckpts) * 1e3
		// Like against like: the fastest build of a solve over TCP (the
		// median solve's) against the fastest build of the in-process solve.
		L["net.overhead_ratio"] = median(w.bestFock) / fastest(inproc.focks)
		if err := netProbes(cfg, core.Grid(prep.bs, cfg.WideProw, cfg.WidePcol), L); err != nil {
			return nil, err
		}
	}

	// Probes of single layers at this workload's size and converged density.
	if err := layerProbes(cfg, prep, p, last.res, spec.Cache, out); err != nil {
		return nil, err
	}
	L["failed_frac"] = float64(out.Failed) / float64(out.Attempted)
	return out, nil
}

// buildAccounting averages what core.Build returned for the builds of one
// of the workload's own solves (Fig. 2): the two parts of fock_build_s.
// Replay builds on scf_replay, builds over TCP on scf_net.
func buildAccounting(L map[string]float64, iters []scf.Iteration) {
	var comp, ov []float64
	for _, it := range iters {
		if st := it.FockStats; st != nil {
			comp = append(comp, st.TCompAvg())
			ov = append(ov, st.TOverheadAvg())
		}
	}
	L["core.t_comp_s"], L["core.t_ov_s"] = mean(comp), mean(ov)
}

// parallelLedger averages the per-process accounting of builds on the wide
// grid (Tables VI-VIII): it needs more than one process to say anything.
func parallelLedger(L map[string]float64, builds []*dist.RunStats) {
	keys := []string{"core.load_balance", "core.queue_ops_per_proc", "dist.calls_per_proc", "dist.mb_per_proc", "core.steals_total"}
	for _, st := range builds {
		var steals int64
		for _, p := range st.Per {
			steals += p.Steals
		}
		for i, v := range []float64{st.LoadBalance(), st.QueueOpsAvg(), st.CallsAvg(), st.VolumeAvgMB(), float64(steals)} {
			L[keys[i]] += v / float64(len(builds))
		}
	}
}

// rpcLedger enters the transport counters a workload's clients collected.
func rpcLedger(L map[string]float64, rpc *metrics.RPC) {
	snap := rpc.Snapshot()
	L["net.rpc_calls"] = float64(snap.Calls)
	L["net.rpc_retries"] = float64(snap.Retries)
	L["net.rpc_mean_us"] = snap.LatencyNS.Mean / 1e3
	L["net.rpc_p95_us"] = float64(snap.LatencyNS.P95) / 1e3
}
