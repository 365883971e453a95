package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"gtfock/internal/chem"
	"gtfock/internal/scf"
)

// loadResumeState decides what a -resume run trusts: nothing when there is
// no file (cold start), the previous generation when the latest is torn,
// and never a checkpoint taken for another basis, molecule or ordering.
func TestLoadResumeState(t *testing.T) {
	mol := chem.Hydrogen2(0.74)
	path := filepath.Join(t.TempDir(), "h2.ckpt")

	if ck, err := loadResumeState(path, mol, "sto-3g", ""); ck != nil || err != nil {
		t.Fatalf("missing file: (%v, %v), want (nil, nil)", ck, err)
	}

	// Two generations: iteration 1 rotated to .prev, iteration 2 latest.
	for iters := 1; iters <= 2; iters++ {
		res, err := scf.RunHF(mol, scf.Options{BasisName: "sto-3g", MaxIter: iters})
		if err != nil {
			t.Fatal(err)
		}
		if err := scf.SaveCheckpoint(path, res, "sto-3g"); err != nil {
			t.Fatal(err)
		}
	}
	ck, err := loadResumeState(path, mol, "sto-3g", "")
	if err != nil || ck == nil || ck.Iter != 2 {
		t.Fatalf("healthy load: (%+v, %v), want iteration 2", ck, err)
	}

	for _, tc := range []struct {
		name       string
		mol        *chem.Molecule
		basis, ord string
		want       string
	}{
		{"another basis", mol, "cc-pvdz", "", "checkpoint is for"},
		{"another formula", chem.Methane(), "sto-3g", "", "checkpoint is for"},
		{"another ordering", mol, "sto-3g", "cell", "shell ordering"},
	} {
		ck, err := loadResumeState(path, tc.mol, tc.basis, tc.ord)
		if ck != nil || err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: (%v, %v), want an error containing %q", tc.name, ck, err, tc.want)
		}
	}

	// A torn latest file costs one iteration, not the run.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err = loadResumeState(path, mol, "sto-3g", "")
	if err != nil || ck == nil || ck.Iter != 1 {
		t.Fatalf("torn latest: (%+v, %v), want the .prev generation, iteration 1", ck, err)
	}
}

// A resumed run's table continues the global numbering: after resuming
// from iteration 3 its rows are numbered 4, 5, ... exactly as OnIteration
// (and the checkpoints) number them.
func TestIterTableNumbersGlobally(t *testing.T) {
	mol := chem.Methane()
	path := filepath.Join(t.TempDir(), "ch4.ckpt")
	if _, err := scf.RunHF(mol, scf.Options{BasisName: "sto-3g", MaxIter: 3, CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}
	ck, err := loadResumeState(path, mol, "sto-3g", "")
	if err != nil || ck == nil || ck.Iter != 3 {
		t.Fatalf("load: (%+v, %v), want iteration 3", ck, err)
	}
	var want []string
	res, err := scf.RunHF(mol, scf.Options{
		BasisName: "sto-3g", InitialFock: ck.Fock(), StartIter: ck.Iter,
		OnIteration: func(n int, _ scf.Iteration) { want = append(want, strconv.Itoa(n)) },
	})
	if err != nil || !res.Converged {
		t.Fatalf("resumed run: %v", err)
	}
	lines := strings.Split(strings.TrimSuffix(iterTable(ck.Iter, res.Iterations), "\n"), "\n")
	var got []string
	for _, l := range lines[1:] {
		got = append(got, strings.Fields(l)[0])
	}
	if strings.Join(got, " ") != strings.Join(want, " ") || got[0] != "4" {
		t.Errorf("rows numbered %v, OnIteration %v; want both from 4", got, want)
	}
	if row := iterTable(0, []scf.Iteration{{PurifyIters: 12}}); !strings.Contains(row, "\n   1 ") || !strings.HasSuffix(row, "  (purify: 12 iters)\n") {
		t.Errorf("table %q: want row 1 with the purification suffix", row)
	}
}

// -checkpoint keeps its file contract: RunHF leaves a converged run's file
// at an earlier iteration, so hf saves the converged iterate itself,
// under the run's global numbering — and leaves a run that stopped short
// with its last iteration, as RunHF wrote it.
func TestCheckpointHoldsConvergedIterate(t *testing.T) {
	mol := chem.Methane()
	path := filepath.Join(t.TempDir(), "ch4.ckpt")
	short, err := scf.RunHF(mol, scf.Options{BasisName: "sto-3g", MaxIter: 3, CheckpointPath: path})
	if err != nil || short.Converged {
		t.Fatalf("short run: converged=%v, %v", short != nil && short.Converged, err)
	}
	if err := saveConverged(path, short, "sto-3g"); err != nil {
		t.Fatal(err)
	}
	ck, err := loadResumeState(path, mol, "sto-3g", "")
	if err != nil || ck == nil || ck.Iter != 3 || ck.Converged {
		t.Fatalf("after a run cut at -maxiter 3: (%+v, %v), want iteration 3, not converged", ck, err)
	}

	res, err := scf.RunHF(mol, scf.Options{
		BasisName: "sto-3g", CheckpointPath: path, InitialFock: ck.Fock(), StartIter: ck.Iter,
	})
	if err != nil || !res.Converged {
		t.Fatalf("resumed run: %v", err)
	}
	if err := saveConverged(path, res, "sto-3g"); err != nil {
		t.Fatal(err)
	}
	ck, err = loadResumeState(path, mol, "sto-3g", "")
	if err != nil || ck == nil {
		t.Fatalf("after convergence: (%+v, %v)", ck, err)
	}
	if want := 3 + len(res.Iterations); ck.Iter != want || !ck.Converged || ck.Energy != res.Energy {
		t.Fatalf("file holds {iter:%d conv:%v E:%v}, want the converged iterate {iter:%d conv:true E:%v}",
			ck.Iter, ck.Converged, ck.Energy, want, res.Energy)
	}
	for i, v := range ck.Fock().Data {
		if v != res.F.Data[i] {
			t.Fatal("checkpointed Fock differs from the converged result's")
		}
	}
}
