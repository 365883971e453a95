package scf

import (
	"context"
	"encoding/gob"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gtfock/internal/chem"
	"gtfock/internal/linalg"
)

func TestCheckpointRoundtrip(t *testing.T) {
	mol := chem.Methane()
	res, err := RunHF(mol, Options{BasisName: "sto-3g"})
	if err != nil || !res.Converged {
		t.Fatal("setup SCF failed")
	}
	path := filepath.Join(t.TempDir(), "ch4.ckpt")
	if err := SaveCheckpoint(path, res, "sto-3g"); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	nf := res.Basis.NumFuncs
	if err := ck.Validate("CH4", "sto-3g", "", nf); err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		what, formula, basis, reorder string
		numFuncs                      int
	}{
		{"formula", "H2", "sto-3g", "", nf},
		{"basis", "CH4", "6-31g", "", nf},
		{"size", "CH4", "sto-3g", "", nf + 1},
		// F is stored in the permuted basis: natural-order matrices must
		// not warm-start a cell-ordered run.
		{"reorder", "CH4", "sto-3g", "cell", nf},
	} {
		if err := ck.Validate(m.formula, m.basis, m.reorder, m.numFuncs); err == nil {
			t.Errorf("%s mismatch accepted", m.what)
		}
	}
	if linalg.MaxAbsDiff(ck.Fock(), res.F) != 0 ||
		linalg.MaxAbsDiff(ck.Density(), res.D) != 0 {
		t.Fatal("matrices did not roundtrip")
	}
	if ck.Energy != res.Energy || !ck.Converged {
		t.Fatal("scalars did not roundtrip")
	}
}

// Warm-starting from a converged Fock matrix must converge immediately to
// the same energy.
func TestWarmStartConvergesFast(t *testing.T) {
	mol := chem.Methane()
	cold, err := RunHF(mol, Options{BasisName: "sto-3g"})
	if err != nil || !cold.Converged {
		t.Fatal("cold SCF failed")
	}
	warm, err := RunHF(mol, Options{BasisName: "sto-3g", InitialFock: cold.F})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Converged {
		t.Fatal("warm SCF did not converge")
	}
	if math.Abs(warm.Energy-cold.Energy) > 1e-8 {
		t.Fatalf("warm %.10f vs cold %.10f", warm.Energy, cold.Energy)
	}
	if len(warm.Iterations) >= len(cold.Iterations) {
		t.Fatalf("warm start took %d iterations, cold took %d",
			len(warm.Iterations), len(cold.Iterations))
	}
}

func TestWarmStartShapeError(t *testing.T) {
	mol := chem.Methane()
	bad := linalg.NewMatrix(3, 3)
	if _, err := RunHF(mol, Options{BasisName: "sto-3g", InitialFock: bad}); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestLoadCheckpointErrors(t *testing.T) {
	if _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "missing.ckpt")); err == nil {
		t.Fatal("expected missing-file error")
	}
	// Corrupt file.
	p := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(p, []byte("not a gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(p); err == nil {
		t.Fatal("expected corrupt-file error")
	}
}

// saveTestCheckpoint writes a small valid checkpoint and returns its path.
func saveTestCheckpoint(t *testing.T, mutate func(*Checkpoint)) string {
	t.Helper()
	mol := chem.Methane()
	res, err := RunHF(mol, Options{BasisName: "sto-3g"})
	if err != nil || !res.Converged {
		t.Fatal("setup SCF failed")
	}
	path := filepath.Join(t.TempDir(), "ck.ckpt")
	if mutate == nil {
		if err := SaveCheckpoint(path, res, "sto-3g"); err != nil {
			t.Fatal(err)
		}
		return path
	}
	ck := Checkpoint{
		Version: checkpointVersion, Formula: "CH4", BasisName: "sto-3g",
		NumFuncs: res.Basis.NumFuncs, Converged: true, Energy: res.Energy,
		FData: append([]float64(nil), res.F.Data...),
		DData: append([]float64(nil), res.D.Data...),
	}
	mutate(&ck)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := gob.NewEncoder(f).Encode(&ck); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadCheckpointRejectsTruncated(t *testing.T) {
	path := saveTestCheckpoint(t, nil)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("expected error loading truncated checkpoint")
	}
}

func TestLoadCheckpointRejectsNonFinite(t *testing.T) {
	path := saveTestCheckpoint(t, func(ck *Checkpoint) {
		ck.FData[3] = math.NaN()
	})
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("expected error for NaN-poisoned Fock data")
	}
	path = saveTestCheckpoint(t, func(ck *Checkpoint) {
		ck.DData[0] = math.Inf(1)
	})
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("expected error for Inf-poisoned density data")
	}
}

func TestLoadCheckpointRejectsBadShape(t *testing.T) {
	path := saveTestCheckpoint(t, func(ck *Checkpoint) { ck.NumFuncs = -4 })
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("expected error for negative NumFuncs")
	}
	path = saveTestCheckpoint(t, func(ck *Checkpoint) { ck.FData = ck.FData[:5] })
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("expected error for short FData")
	}
}

// A NaN-poisoned warm start must fail fast with a descriptive error, not
// run silently to MaxIter.
func TestRunHFRejectsNaNInitialFock(t *testing.T) {
	mol := chem.Methane()
	cold, err := RunHF(mol, Options{BasisName: "sto-3g"})
	if err != nil || !cold.Converged {
		t.Fatal("cold SCF failed")
	}
	bad := cold.F.Clone()
	bad.Set(2, 3, math.NaN())
	_, err = RunHF(mol, Options{BasisName: "sto-3g", InitialFock: bad})
	if err == nil {
		t.Fatal("expected numerical blow-up error")
	}
	if !strings.Contains(err.Error(), "blow-up at iteration 1") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if !errors.Is(err, ErrNumericalBlowUp) {
		t.Fatalf("error does not wrap ErrNumericalBlowUp: %v", err)
	}
}

// CheckpointPath must leave a completed iteration on disk — for a
// converged run one before the converged iteration, which is never
// written — with the iteration counter and energy matching that
// iteration of the result, and no temporary-file residue from the atomic
// renames.
func TestCheckpointPathSavesEachIteration(t *testing.T) {
	mol := chem.Methane()
	dir := t.TempDir()
	path := filepath.Join(dir, "scf.ckpt")
	res, err := RunHF(mol, Options{BasisName: "sto-3g", CheckpointPath: path})
	if err != nil || !res.Converged {
		t.Fatal("SCF failed")
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Iter < 1 || ck.Iter >= len(res.Iterations) {
		t.Fatalf("checkpoint Iter = %d, want one of 1..%d", ck.Iter, len(res.Iterations)-1)
	}
	if ck.Converged || ck.Energy != res.Iterations[ck.Iter-1].Energy {
		t.Fatalf("checkpoint state {conv:%v E:%v} does not match iteration %d {conv:false E:%v}",
			ck.Converged, ck.Energy, ck.Iter, res.Iterations[ck.Iter-1].Energy)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("atomic save left a .tmp file behind")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if n := e.Name(); n != filepath.Base(path) && n != filepath.Base(path)+PrevSuffix {
			t.Fatalf("unexpected residue %q in %s", n, dir)
		}
	}
	// A previous generation, if the cadence wrote twice, is an older
	// complete iteration.
	if prev, err := LoadCheckpoint(path + PrevSuffix); err == nil && prev.Iter >= ck.Iter {
		t.Fatalf("previous generation holds iteration %d, latest %d", prev.Iter, ck.Iter)
	} else if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("unreadable previous generation: %v", err)
	}
}

// A torn or corrupted latest checkpoint must fall back to the previous
// generation — losing one iteration, not the run.
func TestLoadCheckpointFallback(t *testing.T) {
	mol := chem.Methane()
	res, err := RunHF(mol, Options{BasisName: "sto-3g"})
	if err != nil || !res.Converged {
		t.Fatal("setup SCF failed")
	}
	path := filepath.Join(t.TempDir(), "fb.ckpt")

	// Two generations: iteration 7 rotated to .prev, iteration 8 latest.
	ck := Checkpoint{
		Version: checkpointVersion, Formula: "CH4", BasisName: "sto-3g",
		NumFuncs: res.Basis.NumFuncs, Iter: 7, Energy: res.Energy,
		FData: append([]float64(nil), res.F.Data...),
		DData: append([]float64(nil), res.D.Data...),
	}
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	ck.Iter = 8
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpointFallback(path)
	if err != nil || got.Iter != 8 {
		t.Fatalf("healthy fallback load: iter=%v err=%v, want 8", got, err)
	}

	// Truncate the latest (a crash mid-write that somehow survived the
	// atomic rename discipline): fallback returns iteration 7.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = LoadCheckpointFallback(path)
	if err != nil {
		t.Fatalf("fallback after truncation: %v", err)
	}
	if got.Iter != 7 {
		t.Fatalf("fallback loaded iter %d, want previous generation 7", got.Iter)
	}

	// Both generations corrupt: the latest error surfaces.
	if err := os.WriteFile(path+PrevSuffix, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpointFallback(path); err == nil {
		t.Fatal("expected error when both generations are corrupt")
	}

	// Neither generation exists: os.ErrNotExist, the cold-start signal.
	missing := filepath.Join(t.TempDir(), "none.ckpt")
	if _, err := LoadCheckpointFallback(missing); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing checkpoints: %v, want os.ErrNotExist", err)
	}
}

// A run cut short by MaxIter leaves a mid-SCF checkpoint; resuming from
// it with StartIter must converge to the cold energy and continue the
// iteration numbering.
func TestResumeFromMidRunCheckpoint(t *testing.T) {
	mol := chem.Methane()
	cold, err := RunHF(mol, Options{BasisName: "sto-3g"})
	if err != nil || !cold.Converged {
		t.Fatal("cold SCF failed")
	}
	path := filepath.Join(t.TempDir(), "mid.ckpt")
	short, err := RunHF(mol, Options{BasisName: "sto-3g", MaxIter: 3, CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if short.Converged {
		t.Skip("converged within 3 iterations; nothing to resume")
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Iter != 3 || ck.Converged {
		t.Fatalf("mid-run checkpoint {iter:%d conv:%v}, want {3 false}", ck.Iter, ck.Converged)
	}
	warm, err := RunHF(mol, Options{
		BasisName: "sto-3g", CheckpointPath: path,
		InitialFock: ck.Fock(), StartIter: ck.Iter,
	})
	if err != nil || !warm.Converged {
		t.Fatal("resumed SCF did not converge")
	}
	if math.Abs(warm.Energy-cold.Energy) > 1e-8 {
		t.Fatalf("resumed E = %.10f, cold E = %.10f", warm.Energy, cold.Energy)
	}
	// The resumed run's iteration 1 is always written, under the
	// continued numbering; its converged iteration never is.
	final, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if last := 3 + len(warm.Iterations); final.Iter <= 3 || final.Iter >= last {
		t.Fatalf("final checkpoint Iter = %d, want continued numbering in 4..%d", final.Iter, last-1)
	}
	if final.Converged || final.Energy != warm.Iterations[final.Iter-4].Energy {
		t.Fatalf("final checkpoint {conv:%v E:%v}, want iteration %d's {conv:false E:%v}",
			final.Converged, final.Energy, final.Iter, warm.Iterations[final.Iter-4].Energy)
	}
}

// A run that leaves the loop at MaxIter returns the Fock matrix its last
// iteration built — the one Energy and D go with and the checkpoint
// writer was handed — not the DIIS extrapolation prepared for an
// iteration that never ran.
func TestMaxIterExitReturnsBuiltFock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "maxiter.ckpt")
	res, err := RunHF(chem.Methane(), Options{BasisName: "sto-3g", MaxIter: 3, CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("converged within 3 iterations; the MaxIter exit was not taken")
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Iter != 3 || ck.Energy != res.Energy {
		t.Fatalf("checkpoint {iter:%d E:%v}, want the run's last iteration {3 %v}", ck.Iter, ck.Energy, res.Energy)
	}
	if d := linalg.MaxAbsDiff(ck.Fock(), res.F); d != 0 {
		t.Errorf("res.F differs from the checkpoint of the same iteration by %g", d)
	}
	if d := linalg.MaxAbsDiff(ck.Density(), res.D); d != 0 {
		t.Errorf("res.D differs from the checkpoint of the same iteration by %g", d)
	}
}

// The checkpoint records the shell ordering its matrices use, so a
// resume under a different -reorder can be rejected.
func TestCheckpointRecordsReorder(t *testing.T) {
	mol := chem.Methane()
	path := filepath.Join(t.TempDir(), "ord.ckpt")
	res, err := RunHF(mol, Options{BasisName: "sto-3g", Reorder: "cell", CheckpointPath: path})
	if err != nil || !res.Converged {
		t.Fatal("SCF failed")
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Reorder != "cell" {
		t.Fatalf("checkpoint Reorder = %q, want cell", ck.Reorder)
	}
}

// Satellite coverage for the double-fault case: when BOTH the primary
// checkpoint and its .prev generation are corrupt, the fallback must
// fail loudly — a non-nil error, no checkpoint object, and not the
// cold-start ErrNotExist signal a caller would silently start over on.
func TestLoadCheckpointFallbackBothCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "both.ckpt")
	n := 4
	ck := Checkpoint{
		Version: checkpointVersion, Formula: "CH4", BasisName: "sto-3g",
		NumFuncs: n, Iter: 3, Energy: -40.0,
		FData: make([]float64, n*n), DData: make([]float64, n*n),
	}
	// Two healthy generations first, so both files exist.
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	ck.Iter = 4
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	// Corrupt them in different ways: garbage primary, truncated prev.
	if err := os.WriteFile(path, []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path + PrevSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+PrevSuffix, raw[:len(raw)/4], 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := LoadCheckpointFallback(path)
	if err == nil {
		t.Fatal("both generations corrupt: want a loud error, got nil")
	}
	if got != nil {
		t.Fatalf("both generations corrupt: got checkpoint %+v, want nil", got)
	}
	if errors.Is(err, os.ErrNotExist) {
		t.Fatalf("double corruption must not masquerade as a cold start: %v", err)
	}
}

// Canceling the run's context stops the SCF at the next iteration
// boundary with the cause in the error chain and the last completed
// iteration's checkpoint intact on disk.
func TestRunHFCanceledMidRun(t *testing.T) {
	mol := chem.Methane()
	path := filepath.Join(t.TempDir(), "cancel.ckpt")
	cause := errors.New("park for test")
	ctx, cancel := context.WithCancelCause(context.Background())
	stopAt := 2
	res, err := RunHF(mol, Options{
		BasisName:      "sto-3g",
		Ctx:            ctx,
		CheckpointPath: path,
		OnIteration: func(iter int, _ Iteration) {
			if iter >= stopAt {
				cancel(cause)
			}
		},
	})
	if err == nil {
		t.Fatalf("canceled run returned no error (res=%+v)", res)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("error %v does not carry the cancellation cause", err)
	}
	ck, lerr := LoadCheckpointFallback(path)
	if lerr != nil {
		t.Fatalf("checkpoint after cancel: %v", lerr)
	}
	if ck.Iter < stopAt {
		t.Fatalf("checkpoint at iter %d, want >= %d", ck.Iter, stopAt)
	}
	// The canceled run resumes from the checkpoint to the same answer a
	// cold run reaches.
	cold, err := RunHF(mol, Options{BasisName: "sto-3g"})
	if err != nil || !cold.Converged {
		t.Fatal("cold reference failed")
	}
	warm, err := RunHF(mol, Options{
		BasisName: "sto-3g", InitialFock: ck.Fock(), StartIter: ck.Iter,
	})
	if err != nil || !warm.Converged {
		t.Fatalf("resume after cancel: %v", err)
	}
	if d := math.Abs(warm.Energy - cold.Energy); d > 1e-9 {
		t.Fatalf("resumed energy off by %g", d)
	}
}
