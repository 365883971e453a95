package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"gtfock/internal/basis"
	"gtfock/internal/integrals"
	"gtfock/internal/purify"
	"gtfock/internal/screen"
)

// table1 returns the machine parameters (paper Table I).
func (l *lab) table1() table {
	c := l.cfg
	return table{
		title: "Table I: Machine parameters for each node (simulated; Lonestar).",
		label: "Parameter", heads: []string{"Value"}, verbs: []string{"%g"},
		rows: []row{
			{"Cores per node", []float64{float64(c.CoresPerNode)}},
			{"Interconnect bandwidth (GB/s)", []float64{c.BandwidthBps / 1e9}},
			{"One-sided op latency (us)", []float64{c.LatencySec * 1e6}},
			{"Central queue service (us)", []float64{c.QueueServiceSec * 1e6}},
			{"Node dense rate (GFlop/s, DP)", []float64{c.GFlopsPerNode}},
			{"t_int, GTFock engine (us)", []float64{c.TIntGTFock * 1e6}},
		},
	}
}

// table2 returns the test molecules (paper Table II).
func (l *lab) table2() table {
	t := table{
		title: fmt.Sprintf("Table II: Test molecules (cc-pVDZ-like basis, tau = %g).", l.tau),
		label: "Molecule", heads: []string{"Atoms", "Shells", "Functions", "Unique Shell Quartets"},
		verbs: []string{"%.0f", "%.0f", "%.0f", "%.0f"},
	}
	for _, f := range l.mols {
		s := l.system(f)
		t.rows = append(t.rows, row{f, []float64{float64(s.mol.NumAtoms()), float64(s.bs.NumShells()),
			float64(s.bs.NumFuncs), float64(s.scr.UniqueQuartetCount())}})
	}
	return t
}

// table3 returns Fock construction times (paper Table III).
func (l *lab) table3() table {
	return l.engines("Table III: Fock matrix construction time (s), simulated.", "%.2f",
		func(f string, cores int) (float64, float64) {
			return l.simulate(f, cores, "gtfock").TFockAvg(), l.simulate(f, cores, "nwchem").TFockAvg()
		})
}

// table4 returns speedups relative to the fastest 12-core time (Table IV).
// S(p) = ncores_ref * T_best(ref) / T(p), so the fastest engine at the
// reference count gets S = ncores_ref there (the paper's convention).
func (l *lab) table4() table {
	ref := l.cores[0]
	return l.engines("Table IV: Speedup vs the fastest 12-core time (per molecule).", "%.1f",
		func(f string, cores int) (float64, float64) {
			base := float64(ref) * min(l.simulate(f, ref, "gtfock").TFockAvg(), l.simulate(f, ref, "nwchem").TFockAvg())
			return base / l.simulate(f, cores, "gtfock").TFockAvg(), base / l.simulate(f, cores, "nwchem").TFockAvg()
		})
}

// engines builds the two-engines-per-molecule layout of Tables III, IV,
// VI and VII: a row per core count, a "<molecule> GTFock" and a
// "<molecule> NWChem" column per molecule.
func (l *lab) engines(title, verb string, value func(formula string, cores int) (gt, nw float64)) table {
	t := table{title: title, label: "Cores"}
	for _, f := range l.mols {
		t.heads = append(t.heads, f+" GTFock", f+" NWChem")
		t.verbs = append(t.verbs, verb, verb)
	}
	for _, cores := range l.cores {
		r := row{label: strconv.Itoa(cores)}
		for _, f := range l.mols {
			gt, nw := value(f, cores)
			r.vals = append(r.vals, gt, nw)
		}
		t.rows = append(t.rows, r)
	}
	return t
}

// table5 measures the average per-ERI time of the real engine, with and
// without primitive prescreening (paper Table V: ERD/GTFock vs NWChem),
// on the paper's flake and alkane, and counts the primitive quartets each
// computes. The prescreened column runs at integrals.PrimTol, so it is by
// construction what every production build pays. Each time is the median
// of the timed passes, printed beside their range: the absolute time moves
// between processes by more than the two engines differ.
func (l *lab) table5() table {
	t := table{
		title: fmt.Sprintf("Table V: measured average time per ERI, t_int (this machine, 1 thread, median and range of %d interleaved passes).", tintPasses),
		label: "Mol.",
		heads: []string{"Atoms", "Shells", "Funcs", "plain us", "min", "max", "prescreened us", "min", "max", "plain prims", "prescreened prims", "dropped %"},
		verbs: []string{"%.0f", "%.0f", "%.0f", "%.3f", "%.3f", "%.3f", "%.3f", "%.3f", "%.3f", "%.0f", "%.0f", "%.1f"},
		notes: []string{"(shape target: prescreening is faster, more so for the alkane; prims are the sample's primitive quartets)"},
	}
	for _, f := range []string{"C24H12", "C10H22"} {
		s := l.system(f)
		passes, prims := measureTInt(s.bs, s.scr, 0, integrals.PrimTol)
		vals := []float64{float64(s.mol.NumAtoms()), float64(s.bs.NumShells()), float64(s.bs.NumFuncs)}
		for _, sec := range passes {
			vals = append(vals, sec[len(sec)/2]*1e6, sec[0]*1e6, sec[len(sec)-1]*1e6)
		}
		vals = append(vals, float64(prims[0]), float64(prims[1]), 100*(1-float64(prims[1])/float64(prims[0])))
		t.rows = append(t.rows, row{f, vals})
	}
	return t
}

// tintPasses is the number of timed passes per engine in Table V.
const tintPasses = 5

// measureTInt times one random sample of significant shell quartets on an
// engine per primitive tolerance, the engines taking turns pass by pass so
// that a drift of the machine's speed reaches both. It returns each
// engine's seconds per basis-function ERI in every timed pass, sorted, and
// its primitive quartets per pass.
func measureTInt(bs *basis.Set, scr *screen.Screening, primTols ...float64) (passes [][]float64, prims []int64) {
	const samples = 4000
	var pairs [][2]int
	for m := range bs.NumShells() {
		for _, n := range scr.Phi[m] {
			pairs = append(pairs, [2]int{m, n})
		}
	}
	rng := rand.New(rand.NewSource(2014))
	var quartets [][2]int // indices into pairs
	for len(quartets) < samples {
		a, b := rng.Intn(len(pairs)), rng.Intn(len(pairs))
		if scr.KeepQuartet(pairs[a][0], pairs[a][1], pairs[b][0], pairs[b][1]) {
			quartets = append(quartets, [2]int{a, b})
		}
	}
	engs := make([]*integrals.Engine, len(primTols))
	sps := make([][]*integrals.ShellPair, len(primTols))
	for i, tol := range primTols {
		engs[i] = integrals.NewEngine()
		engs[i].PrimTol = tol
		sps[i] = make([]*integrals.ShellPair, len(pairs))
		for _, q := range quartets {
			for _, k := range q {
				if sps[i][k] == nil {
					sps[i][k] = engs[i].Pair(&bs.Shells[pairs[k][0]], &bs.Shells[pairs[k][1]])
				}
			}
		}
	}
	secs := make([][]float64, len(primTols))
	prims = make([]int64, len(primTols))
	for range tintPasses + 1 { // the first pass warms up
		for i, eng := range engs {
			eng.Stats = integrals.Stats{}
			start := time.Now()
			for _, q := range quartets {
				eng.ERI(sps[i][q[0]], sps[i][q[1]])
			}
			secs[i] = append(secs[i], time.Since(start).Seconds()/float64(eng.Stats.Integrals))
			prims[i] = eng.Stats.PrimQuartets
		}
	}
	for _, s := range secs {
		s = s[1:]
		slices.Sort(s)
		passes = append(passes, s)
	}
	return passes, prims
}

// table6 returns communication volume per process (paper Table VI).
func (l *lab) table6() table {
	return l.engines("Table VI: average communication volume (MB) per process, simulated.", "%.1f",
		func(f string, cores int) (float64, float64) {
			return l.simulate(f, cores, "gtfock").VolumeAvgMB(), l.simulate(f, cores, "nwchem").VolumeAvgMB()
		})
}

// table7 returns one-sided call counts per process (paper Table VII).
func (l *lab) table7() table {
	return l.engines("Table VII: average number of one-sided communication calls per process, simulated.", "%.0f",
		func(f string, cores int) (float64, float64) {
			return l.simulate(f, cores, "gtfock").CallsAvg(), l.simulate(f, cores, "nwchem").CallsAvg()
		})
}

// table8 returns the load balance ratio for GTFock (paper Table VIII).
func (l *lab) table8() table {
	t := table{title: "Table VIII: load balance ratio l = T_fock,max / T_fock,avg (GTFock, simulated).",
		label: "Cores", heads: l.mols}
	for range l.mols {
		t.verbs = append(t.verbs, "%.4f")
	}
	for _, cores := range l.cores {
		r := row{label: strconv.Itoa(cores)}
		for _, f := range l.mols {
			r.vals = append(r.vals, l.simulate(f, cores, "gtfock").LoadBalance())
		}
		t.rows = append(t.rows, r)
	}
	return t
}

// table9 returns the purification share of an HF iteration (paper Table
// IX) for the largest flake (C150H30 in the paper).
func (l *lab) table9() table {
	formula := l.lastFlake()
	s := l.system(formula)
	const purifyIters = 45 // the paper's observed iteration count
	t := table{
		title: fmt.Sprintf("Table IX: share of purification in an HF iteration, %s (simulated, %d purification iterations).", formula, purifyIters),
		label: "Cores", heads: []string{"T_fock", "T_purif", "%"}, verbs: []string{"%.2f", "%.2f", "%.1f"},
		notes: []string{"(shape target: 1-15%)"},
	}
	for _, cores := range l.cores {
		tp := purify.SimulatedTime(s.bs.NumFuncs, cores/l.cfg.CoresPerNode, 2*purifyIters, l.cfg)
		tf := l.simulate(formula, cores, "gtfock").TFockAvg()
		t.rows = append(t.rows, row{strconv.Itoa(cores), []float64{tf, tp, 100 * tp / (tf + tp)}})
	}
	return t
}
