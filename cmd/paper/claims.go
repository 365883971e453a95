package main

import (
	"fmt"

	"gtfock/internal/core"
	"gtfock/internal/model"
	"gtfock/internal/reorder"
)

// claims returns the prose claims and the two ablations (-claims).
func (l *lab) claims() []table {
	return append([]table{l.prose()}, l.ablations()...)
}

// prose reproduces the quantitative claims made in the paper's prose, at
// the largest core count:
//   - Sec. IV-C: ~1e5+ centralized-scheduler accesses for C100H202 at 3888
//     cores versus ~349 atomic queue operations per GTFock node queue,
//     split into owner pops, steal probes received and intakes;
//   - Sec. III-G: average steal victims s ~= 3.8 for C96H24 at 3888 cores;
//   - Sec. III-G: ERI computation must get ~50x faster before
//     communication dominates at maximum parallelism;
//   - isoefficiency n_shells = O(sqrt(p)).
func (l *lab) prose() table {
	cores, alkane, flake := l.cores[len(l.cores)-1], l.alkane(), l.flake()
	gtf, gta := l.simulate(flake, cores, "gtfock"), l.simulate(alkane, cores, "gtfock")
	s := l.system(flake)
	m := model.FromSystem(s.rbs, s.rscr, gtf.VictimsAvg(), l.config(s))
	return table{
		title: fmt.Sprintf("Claims (Secs. III-G, IV-C), at %d cores:", cores),
		label: "Claim", heads: []string{"Value"}, verbs: []string{"%.4g"},
		rows: []row{
			{"scheduler accesses, " + alkane + ", centralized counter, total (paper: ~1e5+)",
				[]float64{float64(l.simulate(alkane, cores, "nwchem").QueueOpsTotal())}},
			{"scheduler accesses, " + alkane + ", GTFock atomic ops per queue (paper: 349)", []float64{gta.QueueOpsAvg()}},
			{"  of which owner pops", []float64{gta.QueueOpsAvg() - gta.StealProbesAvg() - gta.StealsAvg()}},
			{"  of which steal probes received", []float64{gta.StealProbesAvg()}},
			{"  of which intakes (successful steals)", []float64{gta.StealsAvg()}},
			{"steal victims s, " + flake + ", per process (paper: 3.8)", []float64{gtf.VictimsAvg()}},
			{"performance model, " + flake + ": B", []float64{m.B}},
			{"performance model, " + flake + ": q", []float64{m.Q}},
			{"performance model, " + flake + ": A", []float64{m.A}},
			{"L(p = n^2)", []float64{m.LMaxParallelism()}},
			{"ERI speedup before communication dominates (paper: ~50x)", []float64{m.CriticalTIntSpeedup()}},
			{fmt.Sprintf("isoefficiency: shells keeping L of (%d shells, 64 procs) at 256 procs", m.NShells),
				[]float64{float64(m.IsoefficiencyShells(64, 256))}},
		},
		notes: []string{"(isoefficiency target: n = O(sqrt p), twice the shells for 4x the processes)"},
	}
}

// ablations quantifies shell reordering (Sec. III-D: communication volume
// under cell, natural and random orderings) and work stealing (Sec. III-F:
// load balance with the row-wise scan and with no stealing — the static
// partition), always on C30H62 at the core counts EXPERIMENTS.md records.
func (l *lab) ablations() []table {
	const volCores, lbCores = 432, 972
	s := l.system("C30H62")
	cfg := l.config(s)
	n := s.bs.NumShells()

	order := table{
		title: fmt.Sprintf("Ablation: shell ordering (Sec. III-D), %s at %d cores, MB per process:", s.formula, volCores),
		label: "Order", heads: []string{"MB"}, verbs: []string{"%.1f"},
	}
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
		order.rows = append(order.rows, row{o.name, []float64{st.VolumeAvgMB()}})
	}

	steal := table{
		title: fmt.Sprintf("Ablation: work stealing (Sec. III-F), %s at %d cores, l = T_max/T_avg:", s.formula, lbCores),
		label: "Policy", heads: []string{"l"}, verbs: []string{"%.2f"},
	}
	for _, p := range []struct {
		name   string
		policy core.StealPolicy
	}{
		{"row-wise", core.StealRowWise},
		{"none", core.StealNone},
	} {
		st, err := core.SimulateOptions(s.rbs, s.rscr, cfg, lbCores, core.SimOptions{Policy: p.policy})
		check(err)
		steal.rows = append(steal.rows, row{p.name, []float64{st.LoadBalance()}})
	}
	return []table{order, steal}
}
