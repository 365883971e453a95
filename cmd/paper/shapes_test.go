package main

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"gtfock/internal/dist"
	"gtfock/internal/screen"
)

// crossSet and crossCores are the fewest simulations that show the shapes
// the quick set cannot: Table III's crossovers, Table VI's crossing, and
// the prose claims at the paper's largest count. The set is the paper's
// first flake and first alkane, both engines at one node and at 3888
// cores.
var (
	crossSet   = []string{"C96H24", "C100H202"}
	crossCores = []int{12, 3888}
)

// results are what the shape rows read: the quick run's tables, and the
// crossover lab's Tables III, IV, VI, VII, Figs. 1-2 and prose claims.
type results struct{ quick, cross []table }

// shape is one shape target of EXPERIMENTS.md as a predicate on the
// values, with EXPERIMENTS' verdict word, and a plant: a mutation of the
// values the predicate must reject.
type shape struct {
	name, verdict string
	holds         func(r results) error
	plant         func(r results)
}

// TestPaperShapes checks every shape target EXPERIMENTS.md names on the
// values cmd/paper's experiments return. A Reproduced or Partially row
// asserts what reproduces; a gap row asserts the documented gap as it
// stands, so a change that closes or widens it fails here and moves the
// row's verdict. Each row must also reject its plant, and EXPERIMENTS.md's
// "Shape rows" table must list every row with the same verdict.
func TestPaperShapes(t *testing.T) {
	cross := newLab(dist.Lonestar(), screen.DefaultTau, crossSet, crossCores)
	r := results{quick: quickAll(), cross: []table{cross.table(3), cross.table(4), cross.table(6), cross.table(7), cross.fig1("")}}
	r.cross = append(append(r.cross, cross.fig2()...), cross.prose())

	documented := verdicts(t)
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			if err := s.holds(r); err != nil {
				t.Errorf("%s row fails: %v", s.verdict, err)
			}
			c := r.clone()
			s.plant(c)
			if s.holds(c) == nil {
				t.Error("the plant is not reported")
			}
			if got := documented[s.name]; got != s.verdict {
				t.Errorf("EXPERIMENTS.md lists the row as %q, the test as %q", got, s.verdict)
			}
			delete(documented, s.name)
		})
	}
	for name := range documented {
		t.Errorf("EXPERIMENTS.md lists a row %q the test does not have", name)
	}
}

// verdicts reads EXPERIMENTS.md's "Shape rows" table: row name to verdict.
func verdicts(t *testing.T) map[string]string {
	src, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(src), "\n## Shape rows")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no \"## Shape rows\" section")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	out := map[string]string{}
	for _, line := range strings.Split(sec, "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 4 && strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			out[strings.Trim(strings.TrimSpace(cells[1]), "`")] = strings.TrimSpace(cells[3])
		}
	}
	return out
}

var shapes = []shape{
	{"table3-crossover", "Reproduced", func(r results) error {
		t := find(r.cross, "Table III:")
		return each(crossSet, func(f string) error {
			gt, nw := *at(t, "12", f+" GTFock"), *at(t, "12", f+" NWChem")
			gt2, nw2 := *at(t, "3888", f+" GTFock"), *at(t, "3888", f+" NWChem")
			if nw < gt && gt2 < nw2 {
				return nil
			}
			return fmt.Errorf("%s: GTFock/NWChem %.4g/%.4g s at 12 cores, %.4g/%.4g s at 3888; want NWChem faster at 12, GTFock at 3888", f, gt, nw, gt2, nw2)
		})
	}, func(r results) { swapEngines(find(r.cross, "Table III:")) }},

	{"table4-speedup", "Reproduced", func(r results) error {
		t := find(r.cross, "Table IV:")
		return each(crossSet, func(f string) error {
			if gt, nw := *at(t, "3888", f+" GTFock"), *at(t, "3888", f+" NWChem"); !(gt > nw) {
				return fmt.Errorf("%s at 3888 cores: speedup GTFock %.0f, NWChem %.0f; want GTFock higher", f, gt, nw)
			}
			return nil
		})
	}, func(r results) { swapEngines(find(r.cross, "Table IV:")) }},

	{"table5-prims", "Reproduced", func(r results) error {
		t := find(r.quick, "Table V:")
		return each([]string{"C24H12", "C10H22"}, func(f string) error {
			if plain, pre := *at(t, f, "plain prims"), *at(t, f, "prescreened prims"); !(0 < pre && pre < plain) {
				return fmt.Errorf("%s: %.0f primitive quartets plain, %.0f prescreened; want prescreening to drop some", f, plain, pre)
			}
			return nil
		})
	}, func(r results) { swap(find(r.quick, "Table V:"), "plain prims", "prescreened prims") }},

	{"table5-alkane-share", "gap", func(r results) error {
		t := find(r.quick, "Table V:")
		if flake, alkane := *at(t, "C24H12", "dropped %"), *at(t, "C10H22", "dropped %"); !(alkane < flake) {
			return fmt.Errorf("prescreening drops %.1f %% of C24H12's primitive quartets and %.1f %% of C10H22's; the documented gap is the flake's share above the alkane's", flake, alkane)
		}
		return nil
	}, func(r results) {
		t := find(r.quick, "Table V:")
		*at(t, "C10H22", "dropped %") = *at(t, "C24H12", "dropped %") + 1
	}},

	{"table6-small-counts", "Partially", func(r results) error {
		t := find(r.cross, "Table VI:")
		return each(crossSet, func(f string) error {
			if gt, nw := *at(t, "12", f+" GTFock"), *at(t, "12", f+" NWChem"); !(10*gt < nw) {
				return fmt.Errorf("%s at 12 cores: GTFock %.1f MB, NWChem %.1f MB; want GTFock 10x lower", f, gt, nw)
			}
			return nil
		})
	}, func(r results) { swapEngines(find(r.cross, "Table VI:")) }},

	{"table6-flake-3888", "gap", func(r results) error {
		t := find(r.cross, "Table VI:")
		if gt, nw := *at(t, "3888", "C96H24 GTFock"), *at(t, "3888", "C96H24 NWChem"); !(gt > nw) {
			return fmt.Errorf("C96H24 at 3888 cores: GTFock %.1f MB, NWChem %.1f MB; the documented gap is GTFock above", gt, nw)
		}
		return nil
	}, func(r results) { swapEngines(find(r.cross, "Table VI:")) }},

	{"table7-calls", "gap", func(r results) error {
		t := find(r.cross, "Table VII:")
		for _, cores := range crossCores {
			c := fmt.Sprint(cores)
			for _, f := range crossSet {
				gt, nw := *at(t, c, f+" GTFock"), *at(t, c, f+" NWChem")
				// Fewer everywhere, an order of magnitude at one node; the
				// documented gap is the alkane at 3888, under 10x fewer.
				if !(gt < nw) || cores == crossCores[0] && !(10*gt < nw) || cores != crossCores[0] && f == "C100H202" && !(10*gt >= nw) {
					return fmt.Errorf("%s at %s cores: GTFock %.0f calls, NWChem %.0f", f, c, gt, nw)
				}
			}
		}
		return nil
	}, func(r results) { swapEngines(find(r.cross, "Table VII:")) }},

	{"table8-balance", "Reproduced", func(r results) error {
		t := find(r.quick, "Table VIII:")
		for _, rw := range t.rows {
			for j, l := range rw.vals {
				if !(1 <= l && l <= 1.1) {
					return fmt.Errorf("%s at %s cores: l = %.4f; want 1 <= l <= 1.1", t.heads[j], rw.label, l)
				}
			}
		}
		return nil
	}, func(r results) {
		*at(find(r.quick, "Table VIII:"), "432", "C30H62") = *at(find(r.quick, "Ablation: work stealing"), "none", "l")
	}},

	{"table9-rising", "Reproduced", func(r results) error {
		t := find(r.quick, "Table IX:")
		for i, rw := range t.rows {
			if share := rw.vals[2]; !(share < 15) || i > 0 && !(share > t.rows[i-1].vals[2]) {
				return fmt.Errorf("purification share %.2f %% at %s cores; want it rising with the core count and below 15 %%", share, rw.label)
			}
		}
		return nil
	}, func(r results) { slices.Reverse(find(r.quick, "Table IX:").rows) }},

	{"table9-low", "gap", func(r results) error {
		if share := *at(find(r.quick, "Table IX:"), "12", "%"); !(share < 1) {
			return fmt.Errorf("purification share %.2f %% at 12 cores; the documented gap is a share below the paper's 1 %%", share)
		}
		return nil
	}, func(r results) { *at(find(r.quick, "Table IX:"), "12", "%") = 5 }},

	{"fig1-ratio", "gap", func(r results) error {
		t := find(r.cross, "Figure 1:")
		if ratio := t.rows[1].vals[1] / t.rows[0].vals[1]; !(1 < ratio && ratio < 10) {
			return fmt.Errorf("a %.0f-task block needs %.1fx one task's D elements; the documented gap is 1-10x against the paper's ~80x", t.rows[1].vals[0], ratio)
		}
		return nil
	}, func(r results) {
		t := find(r.cross, "Figure 1:")
		t.rows[1].vals[1] = 80 * t.rows[0].vals[1]
	}},

	{"fig2-comp", "Reproduced", func(r results) error {
		return each(crossSet, func(f string) error {
			for _, rw := range find(r.cross, "Figure 2 ("+f+")").rows {
				if ratio := rw.vals[2] / rw.vals[0]; !(0.5 <= ratio && ratio < 1) {
					return fmt.Errorf("%s at %s cores: NWChem T_comp is %.2fx GTFock's; want comparable, the baseline slightly faster", f, rw.label, ratio)
				}
			}
			return nil
		})
	}, func(r results) { swap(find(r.cross, "Figure 2 (C100H202)"), "GT T_comp", "NW T_comp") }},

	{"fig2-overhead", "Reproduced", func(r results) error {
		return each(crossSet, func(f string) error {
			for _, rw := range find(r.cross, "Figure 2 ("+f+")").rows {
				if gt, nw := rw.vals[1], rw.vals[3]; !(10*gt < nw) {
					return fmt.Errorf("%s at %s cores: T_ov GTFock %.3f s, NWChem %.3f s; want GTFock 10x lower", f, rw.label, gt, nw)
				}
			}
			return nil
		})
	}, func(r results) { swap(find(r.cross, "Figure 2 (C96H24)"), "GT T_ov", "NW T_ov") }},

	{"fig2-crossing", "Partially", func(r results) error {
		alk, flk := find(r.cross, "Figure 2 (C100H202)"), find(r.cross, "Figure 2 (C96H24)")
		ov := func(t table, c string) float64 { return *at(t, c, "NW T_ov") / *at(t, c, "NW T_comp") }
		if a12, a, f12, f := ov(alk, "12"), ov(alk, "3888"), ov(flk, "12"), ov(flk, "3888"); !(a12 < 1 && a >= 1 && f < 1 && f > 10*f12) {
			return fmt.Errorf("NWChem T_ov/T_comp: C100H202 %.3f at 12 cores, %.3f at 3888; C96H24 %.3f, %.3f; want the alkane crossed at 3888 only, the flake closing but below 1", a12, a, f12, f)
		}
		return nil
	}, func(r results) { swap(find(r.cross, "Figure 2 (C100H202)"), "NW T_comp", "NW T_ov") }},

	{"claim-central-scheduler", "Reproduced", func(r results) error {
		if n := *at(find(r.cross, "Claims"), "scheduler accesses, C100H202, centralized", "Value"); !(n >= 1e5) {
			return fmt.Errorf("%.0f centralized-counter accesses; want ~1e5 or more", n)
		}
		return nil
	}, func(r results) {
		*at(find(r.cross, "Claims"), "scheduler accesses, C100H202, centralized", "Value") = 349
	}},

	{"claim-queue-ops", "gap", func(r results) error {
		if n := *at(find(r.cross, "Claims"), "scheduler accesses, C100H202, GTFock", "Value"); !(10*349 < n && n < 100*349) {
			return fmt.Errorf("%.1f atomic ops per GTFock queue; the documented gap is a count 10-100x above the paper's 349", n)
		}
		return nil
	}, func(r results) { *at(find(r.cross, "Claims"), "scheduler accesses, C100H202, GTFock", "Value") = 349 }},

	{"claim-steal-victims", "gap", func(r results) error {
		if s := *at(find(r.cross, "Claims"), "steal victims s, C96H24", "Value"); !(5*3.8 <= s && s <= 50) {
			return fmt.Errorf("s = %.2f steal victims; the documented gap is 5x the paper's 3.8 or more, at most 50", s)
		}
		return nil
	}, func(r results) { *at(find(r.cross, "Claims"), "steal victims s, C96H24", "Value") = 3.8 }},

	{"claim-eri-speedup", "gap", func(r results) error {
		if x := *at(find(r.cross, "Claims"), "ERI speedup", "Value"); !(2 <= x && x < 10) {
			return fmt.Errorf("ERI computation must get %.1fx faster before communication dominates; the documented gap is 2-10x against the paper's ~50x", x)
		}
		return nil
	}, func(r results) { *at(find(r.cross, "Claims"), "ERI speedup", "Value") = 50 }},

	{"claim-isoefficiency", "Reproduced", func(r results) error {
		if n := *at(find(r.cross, "Claims"), "isoefficiency", "Value"); n != 2*648 {
			return fmt.Errorf("%.0f shells keep L at 4x the processes from 648 shells; want 1296 (n = O(sqrt p))", n)
		}
		return nil
	}, func(r results) { *at(find(r.cross, "Claims"), "isoefficiency", "Value") = 4 * 648 }},

	{"ablation-ordering", "Reproduced", func(r results) error {
		t := find(r.quick, "Ablation: shell ordering")
		if cell, nat, rnd := *at(t, "cell", "MB"), *at(t, "natural", "MB"), *at(t, "random", "MB"); !(cell < nat && cell < rnd) {
			return fmt.Errorf("MB per process: cell %.1f, natural %.1f, random %.1f; want cell lowest", cell, nat, rnd)
		}
		return nil
	}, func(r results) {
		t := find(r.quick, "Ablation: shell ordering")
		c, n := at(t, "cell", "MB"), at(t, "natural", "MB")
		*c, *n = *n, *c
	}},

	{"ablation-stealing", "Reproduced", func(r results) error {
		t := find(r.quick, "Ablation: work stealing")
		if rw, none := *at(t, "row-wise", "l"), *at(t, "none", "l"); !(rw <= 1.1 && rw < none) {
			return fmt.Errorf("l = %.2f row-wise, %.2f without stealing; want stealing to balance to l <= 1.1", rw, none)
		}
		return nil
	}, func(r results) {
		t := find(r.quick, "Ablation: work stealing")
		a, b := at(t, "row-wise", "l"), at(t, "none", "l")
		*a, *b = *b, *a
	}},
}

// each returns the first error f returns for any of mols.
func each(mols []string, f func(formula string) error) error {
	for _, m := range mols {
		if err := f(m); err != nil {
			return err
		}
	}
	return nil
}

// find returns the table whose title starts with prefix.
func find(ts []table, prefix string) table {
	for _, t := range ts {
		if strings.HasPrefix(t.title, prefix) {
			return t
		}
	}
	panic("no table " + prefix)
}

// at returns the cell in the first row whose label starts with label and
// the column headed head, for reading or planting.
func at(t table, label, head string) *float64 {
	j := slices.Index(t.heads, head)
	for _, r := range t.rows {
		if strings.HasPrefix(r.label, label) && j >= 0 {
			return &r.vals[j]
		}
	}
	panic(fmt.Sprintf("%s: no cell (%s, %s)", t.title, label, head))
}

// swap exchanges two columns in every row.
func swap(t table, a, b string) {
	i, j := slices.Index(t.heads, a), slices.Index(t.heads, b)
	for _, r := range t.rows {
		r.vals[i], r.vals[j] = r.vals[j], r.vals[i]
	}
}

// swapEngines exchanges every molecule's GTFock and NWChem columns.
func swapEngines(t table) {
	for _, h := range t.heads {
		if f, ok := strings.CutSuffix(h, " GTFock"); ok {
			swap(t, h, f+" NWChem")
		}
	}
}

// clone deep-copies the values, so a plant mutates only its copy.
func (r results) clone() results {
	cp := func(ts []table) []table {
		out := slices.Clone(ts)
		for i := range out {
			out[i].rows = slices.Clone(out[i].rows)
			for j := range out[i].rows {
				out[i].rows[j].vals = slices.Clone(out[i].rows[j].vals)
			}
		}
		return out
	}
	return results{cp(r.quick), cp(r.cross)}
}
