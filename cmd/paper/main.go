// Command paper regenerates every table and figure of the evaluation
// section of "A New Scalable Parallel Algorithm for Fock Matrix
// Construction" (Liu, Patel, Chow; IPDPS 2014) from this repository's
// implementation: real integral measurements where the experiment is
// machine-local (Table V), and the discrete-event simulation of the
// Lonestar cluster for the scaling experiments (Tables III-IX, Fig. 2).
//
// Usage:
//
//	paper -all              # everything (several minutes)
//	paper -table 3          # one table (1..9)
//	paper -fig 2            # one figure (1..2)
//	paper -claims           # prose claims (scheduler ops, s, ~50x, ...)
//	                        # and the reordering / stealing ablations
//	paper -quick -all       # scaled-down molecules, fast smoke run
package main

import (
	"flag"
	"fmt"

	"gtfock/internal/dist"
	"gtfock/internal/screen"
)

func main() {
	var (
		table  = flag.Int("table", 0, "print one table (1-9)")
		fig    = flag.Int("fig", 0, "print one figure (1-2)")
		claims = flag.Bool("claims", false, "check the paper's prose claims and print the two ablations")
		all    = flag.Bool("all", false, "print every table, figure, claim and ablation")
		quick  = flag.Bool("quick", false, "use scaled-down molecules and fewer core counts")
		tau    = flag.Float64("tau", screen.DefaultTau, "screening tolerance")
		outdir = flag.String("outdir", ".", "directory for figure image files (empty disables)")
	)
	flag.Parse()

	l := newLab(dist.Lonestar(), *tau, *quick)
	if !*all && *table == 0 && *fig == 0 && !*claims {
		*all = true
	}

	if *all {
		l.all(*outdir)
		return
	}
	if *table != 0 {
		l.table(*table)
	}
	if *fig != 0 {
		l.figure(*fig, *outdir)
	}
	if *claims {
		l.claims()
	}
}

// all prints every table, figure, claim and ablation, in paper order.
func (l *lab) all(outdir string) {
	for n := 1; n <= 9; n++ {
		l.table(n)
	}
	l.figure(1, outdir)
	l.figure(2, outdir)
	l.claims()
}

func (l *lab) table(n int) {
	switch n {
	case 1:
		l.table1()
	case 2:
		l.table2()
	case 3:
		l.table3()
	case 4:
		l.table4()
	case 5:
		l.table5()
	case 6:
		l.table6()
	case 7:
		l.table7()
	case 8:
		l.table8()
	case 9:
		l.table9()
	default:
		check(fmt.Errorf("no table %d", n))
	}
}

func (l *lab) figure(n int, outdir string) {
	switch n {
	case 1:
		l.fig1(outdir)
	case 2:
		l.fig2()
	default:
		check(fmt.Errorf("no figure %d", n))
	}
}
