package main

import (
	"os"
	"path/filepath"
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
