package main

import (
	"fmt"

	"gtfock/internal/core"
	"gtfock/internal/model"
	"gtfock/internal/reorder"
)

// claims reproduces the quantitative claims made in the paper's prose:
//   - Sec. IV-C: ~1e5+ centralized-scheduler accesses for C100H202 at 3888
//     cores versus ~349 atomic queue operations per GTFock node queue;
//   - Sec. III-G: average steal victims s ~= 3.8 for C96H24 at 3888 cores;
//   - Sec. III-G: ERI computation must get ~50x faster before
//     communication dominates at maximum parallelism;
//   - isoefficiency n_shells = O(sqrt(p));
//
// and the two design choices the paper argues for without a table, as
// ablations on the simulator (EXPERIMENTS.md "Ablations").
func (l *lab) claims() {
	cores := l.coreCounts()[len(l.coreCounts())-1]
	alkane := l.molecules()[2]
	flake := l.molecules()[0]

	fmt.Printf("Claims (Secs. III-G, IV-C), at %d cores:\n", cores)

	nw := l.simulate(alkane, cores, "nwchem")
	gt := l.simulate(alkane, cores, "gtfock")
	fmt.Printf("  scheduler accesses, %s: centralized counter = %d total;\n",
		alkane, nw.QueueOpsTotal())
	fmt.Printf("      GTFock distributed queues = %.0f atomic ops per queue (paper: 349)\n",
		gt.QueueOpsAvg())

	gtf := l.simulate(flake, cores, "gtfock")
	fmt.Printf("  steal victims, %s: s = %.2f per process (paper: 3.8)\n",
		flake, gtf.VictimsAvg())

	s := l.system(flake)
	m := model.FromSystem(s.rbs, s.rscr, gtf.VictimsAvg(), l.config(s))
	fmt.Printf("  performance model, %s: B = %.0f, q = %.0f, A = %.2f\n",
		flake, m.B, m.Q, m.A)
	fmt.Printf("      L(p=n^2) = %.4f -> ERI computation must be %.0fx faster for\n",
		m.LMaxParallelism(), m.CriticalTIntSpeedup())
	fmt.Println("      communication to dominate (paper: ~50x)")
	fmt.Printf("      isoefficiency: keeping L of (%d shells, %d procs) at 4x the\n",
		m.NShells, 64)
	fmt.Printf("      processes needs %d shells (n = O(sqrt p))\n",
		m.IsoefficiencyShells(64, 256))
	fmt.Println()
	l.ablations()
}

// ablations quantifies shell reordering (Sec. III-D: communication volume
// under cell, natural and random orderings) and work stealing (Sec. III-F:
// load balance with the row-wise scan and with no stealing — the static
// partition), always on C30H62 at the core counts EXPERIMENTS.md records.
func (l *lab) ablations() {
	const volCores, lbCores = 432, 972
	s := l.system("C30H62")
	cfg := l.config(s)
	n := s.bs.NumShells()

	fmt.Printf("Ablation: shell ordering (Sec. III-D), %s at %d cores, MB per process:\n", s.formula, volCores)
	for _, o := range []struct {
		name  string
		order []int
	}{
		{"cell", reorder.Cell(s.bs, 0)},
		{"natural", reorder.Identity(n)},
		{"random", reorder.Random(n, 42)},
	} {
		pbs := s.bs.Permute(o.order)
		st, err := core.Simulate(pbs, s.scr.Permute(o.order, pbs), cfg, volCores)
		check(err)
		fmt.Printf("  %-8s %6.1f\n", o.name, st.VolumeAvgMB())
	}
	fmt.Println()

	fmt.Printf("Ablation: work stealing (Sec. III-F), %s at %d cores, l = T_max/T_avg:\n", s.formula, lbCores)
	for _, p := range []struct {
		name   string
		policy core.StealPolicy
	}{
		{"row-wise", core.StealRowWise},
		{"none", core.StealNone},
	} {
		st, err := core.SimulateOptions(s.rbs, s.rscr, cfg, lbCores, core.SimOptions{Policy: p.policy})
		check(err)
		fmt.Printf("  %-8s %5.2f\n", p.name, st.LoadBalance())
	}
	fmt.Println()
}
