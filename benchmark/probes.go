package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/core"
	"gtfock/internal/dist"
	"gtfock/internal/fault"
	"gtfock/internal/integrals"
	"gtfock/internal/linalg"
	"gtfock/internal/metrics"
	netga "gtfock/internal/net"
	"gtfock/internal/purify"
	"gtfock/internal/scf"
)

// perOp returns the median seconds per call of f: nine batches, each
// grown until it lasts a millisecond so the clock's grain is immaterial.
// These calls are far shorter than a scheduler tick, so the median over
// batches sets aside the batches an interruption hit.
func perOp(f func()) float64 {
	n := 1
	for {
		t := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if time.Since(t) >= time.Millisecond || n >= 1<<20 {
			break
		}
		n *= 4
	}
	var batches []float64
	for b := 0; b < 9; b++ {
		t := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		batches = append(batches, time.Since(t).Seconds()/float64(n))
	}
	return median(batches)
}

// shellsOfL finds two shells of angular momentum l on distinct atoms, so
// probe quartets have generic two-centre geometry.
func shellsOfL(bs *basis.Set, l int) (int, int, error) {
	first := -1
	for i := range bs.Shells {
		if bs.Shells[i].L != l {
			continue
		}
		if first < 0 {
			first = i
		} else if bs.Shells[i].Atom != bs.Shells[first].Atom {
			return first, i, nil
		}
	}
	return 0, 0, fmt.Errorf("basis lacks two shells with L=%d on distinct atoms", l)
}

// kernelProbes times integrals.Engine.ERI on one pinned quartet per
// kernel class: the s/p classes on ethane/sto-3g (hand-written eriLowL),
// the d classes on ethane/cc-pVDZ (generated kernels).
func kernelProbes(L map[string]float64) error {
	mol := chem.Alkane(2)
	sp, err := basis.Build(mol, "sto-3g")
	if err != nil {
		return err
	}
	dz, err := basis.Build(mol, "cc-pvdz")
	if err != nil {
		return err
	}
	s1, s2, err := shellsOfL(sp, 0)
	if err != nil {
		return err
	}
	p1, p2, err := shellsOfL(sp, 1)
	if err != nil {
		return err
	}
	ds1, ds2, err := shellsOfL(dz, 0)
	if err != nil {
		return err
	}
	dp1, _, err := shellsOfL(dz, 1)
	if err != nil {
		return err
	}
	d1, d2, err := shellsOfL(dz, 2)
	if err != nil {
		return err
	}
	classes := []struct {
		name           string
		bs             *basis.Set
		ba, bb, ka, kb int
	}{
		{"ss_ss", sp, s1, s2, s1, s2},
		{"ps_ss", sp, p1, s1, s1, s2},
		{"pp_ss", sp, p1, p2, s1, s2},
		{"pp_pp", sp, p1, p2, p1, p2},
		{"ds_ss", dz, d1, ds1, ds1, ds2},
		{"pd_ps", dz, dp1, d1, dp1, ds1},
		{"dd_dd", dz, d1, d2, d1, d2},
	}
	for _, c := range classes {
		eng := integrals.NewEngine()
		bra := eng.Pair(&c.bs.Shells[c.ba], &c.bs.Shells[c.bb])
		ket := eng.Pair(&c.bs.Shells[c.ka], &c.bs.Shells[c.kb])
		L["integrals.ns_per_quartet."+c.name] = perOp(func() { eng.ERI(bra, ket) }) * 1e9
	}
	return nil
}

// taskQuartets returns the surviving quartets of task (M,N), collected
// exactly as core's workers batch them.
func taskQuartets(p *prepared, m, n int) []integrals.Quartet {
	var qs []integrals.Quartet
	scr, pt := p.scr, p.pt
	for _, pp := range scr.Phi[m] {
		braID := pt.ID(m, pp)
		if !core.SymmetryCheck(m, pp) || braID == integrals.NoPair {
			continue
		}
		for _, q := range scr.Phi[n] {
			if !core.SymmetryCheck(n, q) || !scr.KeepQuartet(m, pp, n, q) ||
				(m == n && !core.SymmetryCheck(pp, q)) {
				continue
			}
			qs = append(qs, integrals.Quartet{Bra: braID, Ket: pt.ID(n, q)})
		}
	}
	return qs
}

// kernelShares enters where one build's kernel time goes, by running
// ERIBatch over all of the build's quartets sorted into three piles: the
// pp|pp class (four p shells), every class with a d shell, and the rest.
// It also enters the batched rate over the fattest task.
func kernelShares(p *prepared, L map[string]float64) {
	var pppp, withD, rest, fattest []integrals.Quartet
	ns, pt, shells := p.bs.NumShells(), p.pt, p.bs.Shells
	for m := 0; m < ns; m++ {
		for n := 0; n < ns; n++ {
			if !core.SymmetryCheck(m, n) {
				continue
			}
			qs := taskQuartets(p, m, n)
			if len(qs) > len(fattest) {
				fattest = qs
			}
			for _, q := range qs {
				a, b := pt.Shells(q.Bra)
				c, d := pt.Shells(q.Ket)
				ls := [4]int{shells[a].L, shells[b].L, shells[c].L, shells[d].L}
				switch {
				case ls[0] >= 2 || ls[1] >= 2 || ls[2] >= 2 || ls[3] >= 2:
					withD = append(withD, q)
				case ls == [4]int{1, 1, 1, 1}:
					pppp = append(pppp, q)
				default:
					rest = append(rest, q)
				}
			}
		}
	}
	eng := integrals.NewEngine()
	sink := 0.0
	visit := func(_ int, b []float64) { sink += b[0] }
	pile := func(qs []integrals.Quartet) float64 {
		if len(qs) == 0 {
			return 0
		}
		var runs []float64
		for i := 0; i < 3; i++ {
			runs = append(runs, timed(func() { eng.ERIBatch(pt, qs, visit) }))
		}
		return median(runs)
	}
	tP, tD, tR := pile(pppp), pile(withD), pile(rest)
	if total := tP + tD + tR; total > 0 {
		L["integrals.time_share_pp_pp"] = tP / total
		L["integrals.time_share_d"] = tD / total
	}
	if len(fattest) > 0 {
		L["integrals.batch_task_ns_per_quartet"] = perOp(func() { eng.ERIBatch(pt, fattest, visit) }) * 1e9 / float64(len(fattest))
		L["integrals.allocs_per_op"] = testing.AllocsPerRun(5, func() { eng.ERIBatch(pt, fattest, visit) })
	}
}

// layerProbes fills the ledger entries that are measured by calling one
// layer directly at this workload's size: p is the converged spinless
// density, res the converged solve it came from, replay whether the
// workload's builds are served from the ERI store.
func layerProbes(cfg runConfig, prep *prepared, p *linalg.Matrix, res *scf.Result, replay bool, out *result) error {
	L := out.Layer
	bs, scr := prep.bs, prep.scr
	ns, nprocs := bs.NumShells(), cfg.WideProw*cfg.WidePcol
	base := core.Options{Prow: cfg.WideProw, Pcol: cfg.WidePcol, PairTable: prep.pt}
	build := func(opt core.Options) (core.Result, float64) {
		var r core.Result
		s := timed(func() { r = core.Build(bs, scr, p, opt) })
		out.check(r.Err == nil, "core.Build %dx%d: %v", opt.Prow, opt.Pcol, r.Err)
		return r, s
	}

	L["integrals.pairtable_build_s"] = prep.pairTableS
	L["screen.compute_s"] = prep.screenS
	L["screen.unique_quartets"] = float64(scr.UniqueQuartetCount())
	L["screen.avg_partners"] = scr.AvgPhi()

	// One metered build: the registry must have committed every task
	// exactly once, and it carries the kernel dispatch split.
	metered := base
	metered.Metrics = metrics.NewRegistry(nprocs)
	build(metered)
	snap := metered.Metrics.Snapshot()
	out.check(snap.TasksTotal == int64(ns*ns), "tasks_total %d != ns^2 %d", snap.TasksTotal, ns*ns)
	L["core.tasks_total"] = float64(snap.TasksTotal)
	L["integrals.quartets_fast_sp"] = float64(snap.QuartetsFastSP)
	L["integrals.quartets_fast_gen"] = float64(snap.QuartetsFastGen)
	L["integrals.quartets_general"] = float64(snap.QuartetsGeneral)

	// Record then replay through a fresh ERI store.
	withStore := base
	withStore.ERIStore = integrals.NewERIStore(ns, 0, nil, 1, nil)
	rec, recS := build(withStore)
	pre := withStore.ERIStore.Stats()
	rep, repS := build(withStore)
	replayStats := withStore.ERIStore.Stats().Sub(pre)
	L["core.record_build_s"], L["core.replay_build_s"] = recS, repS
	L["core.replay_hit_rate"] = replayStats.HitRate()
	L["core.store_bytes"] = float64(pre.BytesStored)
	if rec.G != nil && rep.G != nil {
		out.check(linalg.MaxAbsDiff(rec.G, rep.G) <= energyTol, "replayed G differs from recorded G")
	}

	// One worker against the wide grid on the same code path and density,
	// in alternating order (Table IV; never the serial oracle, which skips
	// the 8-fold symmetry). On scf_replay both sides replay the store.
	pair := base
	if replay {
		pair = withStore
	}
	one := pair
	one.Prow, one.Pcol = 1, 1
	var t1, t2 []float64
	var wideStats []*dist.RunStats
	var g1, g2 *linalg.Matrix
	deadline := time.Now().Add(cfg.budget(0.15))
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		for k := 0; k < 2; k++ {
			if single := (i+k)%2 == 0; single {
				r, s := build(one)
				t1, g1 = append(t1, s), r.G
			} else {
				r, s := build(pair)
				t2, g2 = append(t2, s), r.G
				if r.Stats != nil {
					wideStats = append(wideStats, r.Stats)
				}
			}
		}
	}
	L["core.build_1w_s"], L["core.build_2w_s"] = fastest(t1), fastest(t2)
	L["core.par_eff"] = fastest(t1) / (float64(nprocs) * fastest(t2))
	parallelLedger(L, wideStats)
	if g1 != nil && g2 != nil {
		out.check(linalg.MaxAbsDiff(g1, g2) <= energyTol, "G differs between 1x1 and %dx%d", cfg.WideProw, cfg.WidePcol)
	}

	// The fault-tolerant runtime armed with a zero-rate injector (leases,
	// fenced accumulates, monitor; no fault ever fires) against the plain one.
	var plainS, armedS []float64
	for i := 0; i < 2; i++ {
		_, s := build(base)
		plainS = append(plainS, s)
		armed := base
		armed.Fault = fault.New(fault.Config{Seed: 1})
		_, s = build(armed)
		armedS = append(armedS, s)
	}
	L["core.fault_runtime_overhead"] = median(armedS) / median(plainS)

	// integrals: kernel classes, and the batched path over a real task.
	if err := kernelProbes(L); err != nil {
		return err
	}
	kernelShares(prep, L)

	// dist: one block-sized patch on an in-process GlobalArray.
	grid := core.Grid(bs, cfg.WideProw, cfg.WidePcol)
	ga := dist.NewGlobalArray(grid, dist.NewRunStats(nprocs))
	r1, c1 := grid.RowCuts[1], grid.ColCuts[1]
	buf := make([]float64, r1*c1)
	L["dist.get_us"] = perOp(func() { ga.Get(0, 0, r1, 0, c1, buf, c1) }) * 1e6
	L["dist.acc_us"] = perOp(func() { ga.Acc(0, 0, r1, 0, c1, buf, c1, 1) }) * 1e6

	// linalg and purify at this workload's matrix size, on the converged
	// Fock matrix in the orthogonal basis.
	fPrime := linalg.MatMul(linalg.MatMul(prep.x.T(), res.F), prep.x)
	L["linalg.matmul_ms"] = perOp(func() { linalg.MatMul(prep.x, res.F) }) * 1e3
	L["linalg.eig_ms"] = perOp(func() { linalg.EigSym(fPrime) }) * 1e3
	var purifyIters int
	L["purify.density_ms"] = perOp(func() {
		_, n, err := purify.Canonical(fPrime, res.NOcc, 0, 300, nil)
		out.check(err == nil, "purify: %v", err)
		purifyIters = n
	}) * 1e3
	L["purify.iters"] = float64(purifyIters)

	// scf: one durable checkpoint save (fsync of file and directory).
	ckpt := filepath.Join(cfg.TmpDir, "probe.ckpt")
	var saves []float64
	for i := 0; i < 5; i++ {
		var err error
		saves = append(saves, timed(func() { err = scf.SaveCheckpoint(ckpt, res, bs.Name) }))
		if err != nil {
			return err
		}
	}
	L["scf.checkpoint_ms"] = median(saves) * 1e3
	os.Remove(ckpt)
	os.Remove(ckpt + scf.PrevSuffix)
	return nil
}

// netProbes times single transport operations against loopback shards:
// a block-sized Get and Acc on volatile shards, the same Acc on durable
// shards (journal fsync before the ack), and one Dial with its hellos.
func netProbes(cfg runConfig, grid *dist.Grid2D, L map[string]float64) error {
	r1, c1 := grid.RowCuts[1], grid.ColCuts[1]
	buf := make([]float64, r1*c1)
	for _, durable := range []bool{false, true} {
		sh, err := startShards(grid, cfg.TmpDir, durable)
		if err != nil {
			return err
		}
		var dials []float64
		var clD, clF *netga.Client
		for i := 0; i < 5; i++ {
			if clD != nil {
				clD.Close()
				clF.Close()
			}
			s := timed(func() { clD, clF, err = sh.dial(nil, uint64(i+1), nil) })
			if err != nil {
				sh.close()
				return err
			}
			dials = append(dials, s/2)
		}
		if durable {
			var accs []float64
			for i := 0; i < 20; i++ {
				accs = append(accs, timed(func() { clF.Acc(0, 0, r1, 0, c1, buf, c1, 1) }))
			}
			L["net.acc_fsync_us"] = median(accs) * 1e6
		} else {
			L["net.dial_hello_ms"] = median(dials) * 1e3
			L["net.get_us"] = perOp(func() { clD.Get(0, 0, r1, 0, c1, buf, c1) }) * 1e6
			L["net.acc_us"] = perOp(func() { clF.Acc(0, 0, r1, 0, c1, buf, c1, 1) }) * 1e6
		}
		clD.Close()
		clF.Close()
		sh.close()
	}
	return nil
}
