package gtfock_test

import (
	"math"
	"testing"

	"gtfock"
	"gtfock/internal/linalg"
)

// End-to-end smoke test of the public API: build a molecule, basis,
// screening, run a parallel Fock build and a full SCF.
func TestPublicAPIEndToEnd(t *testing.T) {
	mol := gtfock.Methane()
	bs, err := gtfock.BuildBasis(mol, "sto-3g")
	if err != nil {
		t.Fatal(err)
	}
	scr := gtfock.ComputeScreening(bs, 0)
	if scr.Tau != gtfock.DefaultTau {
		t.Fatalf("default tau not applied: %g", scr.Tau)
	}

	d := linalg.Identity(bs.NumFuncs).Scale(0.1)
	res := gtfock.BuildFock(bs, scr, d, gtfock.FockOptions{Prow: 2, Pcol: 2})
	if res.G.SymmetryError() > 1e-10 {
		t.Fatal("G not symmetric")
	}
	base, err := gtfock.BuildFockBaseline(bs, scr, d, gtfock.BaselineOptions{Procs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if diff := linalg.MaxAbsDiff(res.G, base.G); diff > 1e-9 {
		t.Fatalf("engines disagree by %g", diff)
	}

	hf, err := gtfock.RunHF(mol, gtfock.SCFOptions{BasisName: "sto-3g"})
	if err != nil {
		t.Fatal(err)
	}
	if !hf.Converged || hf.Energy >= 0 {
		t.Fatalf("SCF failed: converged=%v E=%g", hf.Converged, hf.Energy)
	}
}

func TestPublicAPISimulation(t *testing.T) {
	mol := gtfock.Alkane(8)
	bs, err := gtfock.BuildBasis(mol, "cc-pvdz")
	if err != nil {
		t.Fatal(err)
	}
	scr := gtfock.ComputeScreening(bs, 0)
	cfg := gtfock.Lonestar()
	gt, err := gtfock.SimulateFock(bs, scr, cfg, 108)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := gtfock.SimulateFockBaseline(bs, scr, cfg, 108)
	if err != nil {
		t.Fatal(err)
	}
	if gt.TFockAvg() <= 0 || nw.TFockAvg() <= 0 {
		t.Fatal("simulations produced no time")
	}
	// The headline result at scale: GTFock's parallel overhead is far
	// below the baseline's.
	if gt.TOverheadAvg() >= nw.TOverheadAvg() {
		t.Fatalf("GTFock overhead %g not below baseline %g",
			gt.TOverheadAvg(), nw.TOverheadAvg())
	}
}

func TestPublicAPIReorder(t *testing.T) {
	mol := gtfock.Alkane(6)
	bs, _ := gtfock.BuildBasis(mol, "sto-3g")
	rb := gtfock.ReorderShells(bs)
	if rb.NumShells() != bs.NumShells() || rb.NumFuncs != bs.NumFuncs {
		t.Fatal("reorder changed totals")
	}
	if _, err := gtfock.PaperMolecule("C96H24"); err != nil {
		t.Fatal(err)
	}
	if math.Abs(gtfock.Benzene().NuclearRepulsion()-
		gtfock.GrapheneFlake(1).NuclearRepulsion()) > 1e-12 {
		t.Fatal("Benzene != GrapheneFlake(1)")
	}
}
