// Command paper regenerates every table and figure of the evaluation
// section of "A New Scalable Parallel Algorithm for Fock Matrix
// Construction" (Liu, Patel, Chow; IPDPS 2014) from this repository's
// implementation: real integral measurements where the experiment is
// machine-local (Table V), and the discrete-event simulation of the
// Lonestar cluster for the scaling experiments (Tables III-IX, Fig. 2).
//
// Usage:
//
//	paper -all              # everything (about two minutes)
//	paper -table 3          # one table (1..9)
//	paper -fig 2            # one figure (1..2)
//	paper -claims           # prose claims (scheduler ops, s, ~50x, ...)
//	                        # and the reordering / stealing ablations
//	paper -quick -all       # scaled-down molecules, fast smoke run
//
// Every experiment returns its tables as values (TestPaperShapes checks
// the paper's shape targets on them); render is the one printer.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gtfock/internal/dist"
	"gtfock/internal/screen"
)

func main() {
	var (
		tab    = flag.Int("table", 0, "print one table (1-9)")
		fig    = flag.Int("fig", 0, "print one figure (1-2)")
		claims = flag.Bool("claims", false, "check the paper's prose claims and print the two ablations")
		all    = flag.Bool("all", false, "print every table, figure, claim and ablation")
		quick  = flag.Bool("quick", false, "use scaled-down molecules and fewer core counts")
		tau    = flag.Float64("tau", screen.DefaultTau, "screening tolerance")
		outdir = flag.String("outdir", ".", "directory for figure image files (empty disables)")
	)
	flag.Parse()

	mols, cores := paperSet, dist.PaperCoreCounts
	if *quick {
		mols, cores = quickSet, quickCores
	}
	if *outdir != "" {
		_, err := os.Stat(*outdir) // fail before the sims, not at Figure 1
		check(err)
	}
	l := newLab(dist.Lonestar(), *tau, mols, cores)
	var out []table
	switch {
	case *all || *tab == 0 && *fig == 0 && !*claims:
		out = l.all(*outdir)
	default:
		if *tab != 0 {
			out = append(out, l.table(*tab))
		}
		if *fig != 0 {
			out = append(out, l.figure(*fig, *outdir)...)
		}
		if *claims {
			out = append(out, l.claims()...)
		}
	}
	check(render(os.Stdout, out))
}

// all returns every table, figure, claim and ablation, in paper order.
func (l *lab) all(outdir string) []table {
	var out []table
	for n := 1; n <= 9; n++ {
		out = append(out, l.table(n))
	}
	out = append(out, l.figure(1, outdir)...)
	out = append(out, l.figure(2, outdir)...)
	return append(out, l.claims()...)
}

// table returns paper Table n (1..9).
func (l *lab) table(n int) table {
	tables := []func() table{l.table1, l.table2, l.table3, l.table4, l.table5, l.table6, l.table7, l.table8, l.table9}
	if n < 1 || n > len(tables) {
		check(fmt.Errorf("no table %d", n))
	}
	return tables[n-1]()
}

// figure returns paper Figure n (1..2).
func (l *lab) figure(n int, outdir string) []table {
	switch n {
	case 1:
		return []table{l.fig1(outdir)}
	case 2:
		return l.fig2()
	}
	check(fmt.Errorf("no figure %d", n))
	return nil
}

// table is one experiment's result: a title, a label column, value
// columns with one printf verb each, a row per label, and notes.
type table struct {
	title string
	label string   // head of the label column
	heads []string // value column heads
	verbs []string // one printf verb per value column
	rows  []row
	notes []string
}

type row struct {
	label string
	vals  []float64
}

// render writes the tables in order, each column as wide as its widest
// cell, labels left and values right. It is the only code in cmd/paper
// that prints a result.
func render(w io.Writer, tables []table) error {
	var b strings.Builder
	for _, t := range tables {
		cells := [][]string{append([]string{t.label}, t.heads...)}
		for _, r := range t.rows {
			line := []string{r.label}
			for j, v := range r.vals {
				line = append(line, fmt.Sprintf(t.verbs[j], v))
			}
			cells = append(cells, line)
		}
		width := make([]int, len(cells[0]))
		for _, line := range cells {
			for j, c := range line {
				width[j] = max(width[j], len(c))
			}
		}
		fmt.Fprintln(&b, t.title)
		for _, line := range cells {
			fmt.Fprintf(&b, "  %-*s", width[0], line[0])
			for j, c := range line[1:] {
				fmt.Fprintf(&b, "  %*s", width[j+1], c)
			}
			fmt.Fprintln(&b)
		}
		for _, n := range t.notes {
			fmt.Fprintf(&b, "  %s\n", n)
		}
		fmt.Fprintln(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
