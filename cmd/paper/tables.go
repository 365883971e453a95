package main

import (
	"fmt"
	"math/rand"
	"time"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/integrals"
	"gtfock/internal/purify"
	"gtfock/internal/screen"
)

// table1 prints the machine parameters (paper Table I).
func (l *lab) table1() {
	fmt.Println("Table I: Machine parameters for each node (simulated; Lonestar).")
	fmt.Printf("  %-28s %v\n", "Cores per node", l.cfg.CoresPerNode)
	fmt.Printf("  %-28s %.0f GB/s\n", "Interconnect bandwidth", l.cfg.BandwidthBps/1e9)
	fmt.Printf("  %-28s %.1f us\n", "One-sided op latency", l.cfg.LatencySec*1e6)
	fmt.Printf("  %-28s %.1f us\n", "Central queue service", l.cfg.QueueServiceSec*1e6)
	fmt.Printf("  %-28s %.0f GFlop/s (DP)\n", "Node dense rate", l.cfg.GFlopsPerNode)
	fmt.Printf("  %-28s %.2f us\n", "t_int (GTFock engine)", l.cfg.TIntGTFock*1e6)
	fmt.Println()
}

// table2 prints the test molecules (paper Table II).
func (l *lab) table2() {
	fmt.Println("Table II: Test molecules (cc-pVDZ-like basis, tau =", l.tau, ").")
	fmt.Printf("  %-10s %7s %7s %10s %22s\n",
		"Molecule", "Atoms", "Shells", "Functions", "Unique Shell Quartets")
	for _, f := range l.molecules() {
		s := l.system(f)
		fmt.Printf("  %-10s %7d %7d %10d %22d\n",
			f, s.mol.NumAtoms(), s.bs.NumShells(), s.bs.NumFuncs,
			s.scr.UniqueQuartetCount())
	}
	fmt.Println()
}

// table3 prints Fock construction times (paper Table III).
func (l *lab) table3() {
	fmt.Println("Table III: Fock matrix construction time (s), simulated.")
	l.timeTable(func(f string, cores int) (float64, float64) {
		return l.simulate(f, cores, "gtfock").TFockAvg(),
			l.simulate(f, cores, "nwchem").TFockAvg()
	}, "%9.2f")
}

// table4 prints speedups relative to the fastest 12-core time (Table IV).
func (l *lab) table4() {
	fmt.Println("Table IV: Speedup vs the fastest 12-core time (per molecule).")
	ref := map[string]float64{}
	for _, f := range l.molecules() {
		gt := l.simulate(f, l.coreCounts()[0], "gtfock").TFockAvg()
		nw := l.simulate(f, l.coreCounts()[0], "nwchem").TFockAvg()
		ref[f] = gt
		if nw < gt {
			ref[f] = nw
		}
	}
	// S(p) = ncores_ref * T_best(ref) / T(p), so the fastest engine at the
	// reference count gets S = ncores_ref there (the paper's convention).
	l.timeTable(func(f string, cores int) (float64, float64) {
		base := ref[f] * float64(l.coreCounts()[0])
		return base / l.simulate(f, cores, "gtfock").TFockAvg(),
			base / l.simulate(f, cores, "nwchem").TFockAvg()
	}, "%9.1f")
}

// timeTable renders the two-engine-per-molecule layout of Tables III-VII.
func (l *lab) timeTable(value func(formula string, cores int) (gt, nw float64), format string) {
	mols := l.molecules()
	fmt.Printf("  %6s", "Cores")
	for _, f := range mols {
		fmt.Printf("  %19s", f)
	}
	fmt.Println()
	fmt.Printf("  %6s", "")
	for range mols {
		fmt.Printf("  %9s %9s", "GTFock", "NWChem")
	}
	fmt.Println()
	for _, cores := range l.coreCounts() {
		fmt.Printf("  %6d", cores)
		for _, f := range mols {
			gt, nw := value(f, cores)
			fmt.Printf("  "+format+" "+format, gt, nw)
		}
		fmt.Println()
	}
	fmt.Println()
}

// table5 measures the average per-ERI time of the real engine, with and
// without primitive prescreening (paper Table V: ERD/GTFock vs NWChem).
// The prescreened column runs at integrals.PrimTol, so it is by
// construction what every production build pays.
func (l *lab) table5() {
	fmt.Println("Table V: measured average time per ERI, t_int (this machine, 1 thread).")
	fmt.Printf("  %-10s %-22s %14s %14s\n",
		"Mol.", "Atoms/Shells/Funcs", "plain (GTFock)", "prescreened (NWChem-like)")
	mols := []string{"C24H12", "C10H22"}
	if l.quick {
		mols = []string{"C6H6", "C10H22"}
	}
	for _, f := range mols {
		mol, _, err := buildMolecule(f)
		if err != nil {
			m2, e2 := chem.PaperMolecule(f)
			check(e2)
			mol = m2
		}
		bs, err := basis.Build(mol, "cc-pvdz")
		check(err)
		scr := screen.Compute(bs, l.tau)
		plain := measureTInt(bs, scr, 0)
		pre := measureTInt(bs, scr, integrals.PrimTol)
		fmt.Printf("  %-10s %4d/%4d/%5d %11.3f us %11.3f us\n",
			f, mol.NumAtoms(), bs.NumShells(), bs.NumFuncs,
			plain*1e6, pre*1e6)
	}
	fmt.Println("  (shape target: prescreening is faster, more so for the alkane)")
	fmt.Println()
}

// measureTInt times a random sample of significant shell quartets and
// returns seconds per basis-function ERI.
func measureTInt(bs *basis.Set, scr *screen.Screening, primTol float64) float64 {
	eng := integrals.NewEngine()
	eng.PrimTol = primTol
	ns := bs.NumShells()
	// Sample significant pairs.
	var pairs [][2]int
	for m := 0; m < ns; m++ {
		for n := range scr.Phi[m] {
			pairs = append(pairs, [2]int{m, scr.Phi[m][n]})
		}
	}
	rng := rand.New(rand.NewSource(2014))
	type built struct{ p *integrals.ShellPair }
	cache := map[[2]int]built{}
	pair := func(k [2]int) *integrals.ShellPair {
		if b, ok := cache[k]; ok {
			return b.p
		}
		p := eng.Pair(&bs.Shells[k[0]], &bs.Shells[k[1]])
		cache[k] = built{p}
		return p
	}
	const samples = 4000
	// Warm up and then measure.
	var quartets [][2][2]int
	for len(quartets) < samples {
		a := pairs[rng.Intn(len(pairs))]
		b := pairs[rng.Intn(len(pairs))]
		if scr.KeepQuartet(a[0], a[1], b[0], b[1]) {
			quartets = append(quartets, [2][2]int{a, b})
		}
	}
	for _, q := range quartets[:100] {
		eng.ERI(pair(q[0]), pair(q[1]))
	}
	eng.Stats = integrals.Stats{}
	start := time.Now()
	for _, q := range quartets {
		eng.ERI(pair(q[0]), pair(q[1]))
	}
	elapsed := time.Since(start).Seconds()
	return elapsed / float64(eng.Stats.Integrals)
}

// table6 prints communication volume per process (paper Table VI).
func (l *lab) table6() {
	fmt.Println("Table VI: average communication volume (MB) per process, simulated.")
	l.timeTable(func(f string, cores int) (float64, float64) {
		return l.simulate(f, cores, "gtfock").VolumeAvgMB(),
			l.simulate(f, cores, "nwchem").VolumeAvgMB()
	}, "%9.1f")
}

// table7 prints one-sided call counts per process (paper Table VII).
func (l *lab) table7() {
	fmt.Println("Table VII: average number of one-sided communication calls per process, simulated.")
	l.timeTable(func(f string, cores int) (float64, float64) {
		return l.simulate(f, cores, "gtfock").CallsAvg(),
			l.simulate(f, cores, "nwchem").CallsAvg()
	}, "%9.0f")
}

// table8 prints the load balance ratio for GTFock (paper Table VIII).
func (l *lab) table8() {
	fmt.Println("Table VIII: load balance ratio l = T_fock,max / T_fock,avg (GTFock, simulated).")
	mols := l.molecules()
	fmt.Printf("  %6s", "Cores")
	for _, f := range mols {
		fmt.Printf("  %10s", f)
	}
	fmt.Println()
	for _, cores := range l.coreCounts() {
		fmt.Printf("  %6d", cores)
		for _, f := range mols {
			fmt.Printf("  %10.4f", l.simulate(f, cores, "gtfock").LoadBalance())
		}
		fmt.Println()
	}
	fmt.Println()
}

// table9 prints the purification share of an HF iteration (paper Table IX)
// for the second molecule (C150H30 in the paper).
func (l *lab) table9() {
	formula := l.molecules()[1]
	s := l.system(formula)
	const purifyIters = 45 // the paper's observed iteration count
	fmt.Printf("Table IX: share of purification in an HF iteration, %s (simulated, %d purification iterations).\n",
		formula, purifyIters)
	fmt.Printf("  %6s %10s %10s %8s\n", "Cores", "T_fock", "T_purif", "%")
	for _, cores := range l.coreCounts() {
		st := l.simulate(formula, cores, "gtfock")
		nodes := cores / l.cfg.CoresPerNode
		tp := purify.SimulatedTime(s.bs.NumFuncs, nodes, 2*purifyIters, l.cfg)
		tf := st.TFockAvg()
		fmt.Printf("  %6d %10.2f %10.2f %8.1f\n", cores, tf, tp, 100*tp/(tf+tp))
	}
	fmt.Println("  (shape target: 1-15%)")
	fmt.Println()
}
