package main

import (
	"fmt"
	"os"
	"time"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/core"
	"gtfock/internal/dist"
	"gtfock/internal/nwchem"
	"gtfock/internal/reorder"
	"gtfock/internal/screen"
)

// system bundles everything the experiments need for one test molecule,
// computed lazily and cached: the natural (atom-ordered) basis for the
// NWChem baseline and the cell-reordered basis for GTFock, with screening
// shared via permutation.
type system struct {
	formula string
	alkane  bool // 1D chain (affects the NWChem t_int factor, Sec. IV-B)
	mol     *chem.Molecule
	bs      *basis.Set        // natural order
	scr     *screen.Screening // natural order
	rbs     *basis.Set        // cell-reordered (Sec. III-D)
	rscr    *screen.Screening // reordered screening
}

type simKey struct {
	formula string
	cores   int
	engine  string
}

// lab holds the experiment state: molecule systems and simulation results,
// each computed once.
type lab struct {
	cfg     dist.Config
	tau     float64
	mols    []string // flakes, then as many alkanes
	cores   []int    // ascending (Table III's header row)
	systems map[string]*system
	sims    map[simKey]*dist.RunStats
}

var (
	// paperSet is the paper's four test systems (Table II).
	paperSet = []string{"C96H24", "C150H30", "C100H202", "C144H290"}
	// quickSet and quickCores are scaled-down stand-ins with the same
	// 2D/1D structure, and fewer core counts (-quick).
	quickSet   = []string{"C24H12", "C54H18", "C30H62", "C40H82"}
	quickCores = []int{12, 108, 432}
)

func newLab(cfg dist.Config, tau float64, mols []string, cores []int) *lab {
	return &lab{
		cfg: cfg, tau: tau, mols: mols, cores: cores,
		systems: map[string]*system{},
		sims:    map[simKey]*dist.RunStats{},
	}
}

// flake and alkane return the first molecule of each kind; lastFlake is
// the largest flake (C150H30 in the paper set).
func (l *lab) flake() string     { return l.mols[0] }
func (l *lab) lastFlake() string { return l.mols[len(l.mols)/2-1] }
func (l *lab) alkane() string    { return l.mols[len(l.mols)/2] }

// buildMolecule returns a paper molecule, or a generated CnH(2n+2)
// alkane, and whether it is an alkane.
func buildMolecule(formula string) (*chem.Molecule, bool, error) {
	var n, h int
	_, err := fmt.Sscanf(formula, "C%dH%d", &n, &h)
	alkane := err == nil && h == 2*n+2
	if m, err := chem.PaperMolecule(formula); err == nil || !alkane {
		return m, alkane, err
	}
	return chem.Alkane(n), true, nil
}

// system returns (building if needed) the cached data for a molecule.
func (l *lab) system(formula string) *system {
	if s, ok := l.systems[formula]; ok {
		return s
	}
	start := time.Now()
	mol, alk, err := buildMolecule(formula)
	check(err)
	bs, err := basis.Build(mol, "cc-pvdz")
	check(err)
	fmt.Fprintf(os.Stderr, "[setup] %s: screening %d shells...", formula, bs.NumShells())
	scr := screen.Compute(bs, l.tau)
	order := reorder.Cell(bs, 0)
	rbs := bs.Permute(order)
	rscr := scr.Permute(order, rbs)
	fmt.Fprintf(os.Stderr, " done in %.1fs\n", time.Since(start).Seconds())
	s := &system{
		formula: formula, alkane: alk, mol: mol,
		bs: bs, scr: scr, rbs: rbs, rscr: rscr,
	}
	l.systems[formula] = s
	return s
}

// config returns the machine config with the molecule-appropriate NWChem
// integral-speed factor: primitive pre-screening helps more on alkanes,
// the paper's Sec. IV-B direction. Our Table V measures the flake gaining
// more (EXPERIMENTS.md "Table V", a documented gap).
func (l *lab) config(s *system) dist.Config {
	cfg := l.cfg
	cfg.TIntNWChemFactor = 0.85
	if s.alkane {
		cfg.TIntNWChemFactor = 0.55
	}
	return cfg
}

// simulate returns cached DES results for (molecule, cores, engine).
func (l *lab) simulate(formula string, cores int, engine string) *dist.RunStats {
	key := simKey{formula, cores, engine}
	if st, ok := l.sims[key]; ok {
		return st
	}
	s := l.system(formula)
	cfg := l.config(s)
	start := time.Now()
	sim, bs, scr := nwchem.Simulate, s.bs, s.scr
	if engine == "gtfock" {
		sim, bs, scr = core.Simulate, s.rbs, s.rscr
	}
	st, err := sim(bs, scr, cfg, cores)
	check(err)
	if d := time.Since(start); d > 2*time.Second {
		fmt.Fprintf(os.Stderr, "[sim] %s %s @%d cores: %.1fs\n",
			formula, engine, cores, d.Seconds())
	}
	l.sims[key] = st
	return st
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "paper:", err)
		os.Exit(1)
	}
}
