package scf

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"gtfock/internal/linalg"
	"gtfock/internal/wal"
)

// Checkpoint is the on-disk SCF state: enough to warm-start a calculation
// (Options.InitialFock) or postprocess a converged one.
type Checkpoint struct {
	Version   int
	Formula   string
	BasisName string
	NumFuncs  int
	Iter      int    // SCF iteration this state was taken at (0 if unknown)
	Reorder   string // shell ordering the matrices are expressed in
	Converged bool
	Energy    float64
	FData     []float64
	DData     []float64
}

const checkpointVersion = 1

// PrevSuffix is appended to a checkpoint path to name the previous
// generation kept as the fallback for a corrupted or torn latest file.
const PrevSuffix = ".prev"

// Save writes the checkpoint to path atomically and durably
// (wal.WriteFile), so a crash — including a power loss — never leaves a
// torn checkpoint where a valid one stood. The current checkpoint is
// first rotated to path+PrevSuffix, so one older generation survives
// even a latest file that turns out unreadable; until the new file is
// renamed in, path itself may be absent, which is why resumers load
// through LoadCheckpointFallback.
func (ck *Checkpoint) Save(path string) error {
	if err := os.Rename(path, path+PrevSuffix); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return wal.WriteFile(path, false, func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(ck)
	})
}

// SaveCheckpoint writes the SCF state of res — its last iteration, under
// its global number — to path (gob encoding, atomic rename).
func SaveCheckpoint(path string, res *Result, basisName string) error {
	if res.F == nil || res.D == nil {
		return fmt.Errorf("scf: result has no matrices to checkpoint")
	}
	ck := Checkpoint{
		Version:   checkpointVersion,
		Formula:   res.Basis.Mol.Formula(),
		BasisName: basisName,
		NumFuncs:  res.Basis.NumFuncs,
		Iter:      res.StartIter + len(res.Iterations),
		Reorder:   res.Reorder,
		Converged: res.Converged,
		Energy:    res.Energy,
		FData:     res.F.Data,
		DData:     res.D.Data,
	}
	return ck.Save(path)
}

// LoadCheckpoint reads an SCF checkpoint from path.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ck Checkpoint
	if err := gob.NewDecoder(f).Decode(&ck); err != nil {
		return nil, fmt.Errorf("scf: corrupt checkpoint %s: %w", path, err)
	}
	if ck.Version != checkpointVersion {
		return nil, fmt.Errorf("scf: checkpoint version %d, want %d", ck.Version, checkpointVersion)
	}
	n := ck.NumFuncs
	if n <= 0 {
		return nil, fmt.Errorf("scf: checkpoint %s has invalid NumFuncs %d", path, n)
	}
	// Size the matrices in int64 so a hostile NumFuncs cannot wrap n*n.
	nn := int64(n) * int64(n)
	if int64(len(ck.FData)) != nn || int64(len(ck.DData)) != nn {
		return nil, fmt.Errorf("scf: checkpoint %s matrix sizes (%d, %d) inconsistent with %d functions",
			path, len(ck.FData), len(ck.DData), n)
	}
	for _, data := range [][]float64{ck.FData, ck.DData} {
		for _, v := range data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("scf: checkpoint %s contains non-finite matrix entries", path)
			}
		}
	}
	return &ck, nil
}

// LoadCheckpointFallback reads the checkpoint at path, falling back to
// the previous generation (path+PrevSuffix) when the latest file is
// missing, torn, or fails validation — a crash mid-save then costs one
// SCF iteration instead of the whole run. Only when neither generation
// is usable is the latest error returned (an os.ErrNotExist from both
// means a cold start).
func LoadCheckpointFallback(path string) (*Checkpoint, error) {
	ck, err := LoadCheckpoint(path)
	if err == nil {
		return ck, nil
	}
	prev, perr := LoadCheckpoint(path + PrevSuffix)
	if perr == nil {
		return prev, nil
	}
	return nil, err
}

// Fock reconstructs the checkpointed Fock matrix.
func (ck *Checkpoint) Fock() *linalg.Matrix {
	m := linalg.NewMatrix(ck.NumFuncs, ck.NumFuncs)
	copy(m.Data, ck.FData)
	return m
}

// Density reconstructs the checkpointed density matrix.
func (ck *Checkpoint) Density() *linalg.Matrix {
	m := linalg.NewMatrix(ck.NumFuncs, ck.NumFuncs)
	copy(m.Data, ck.DData)
	return m
}

// Validate checks that the checkpoint can warm-start a run on the given
// system: same molecule, basis and size, and the same shell ordering —
// F and D are stored in the permuted basis, so a matrix saved under one
// Options.Reorder is a wrong guess, silently, under another.
func (ck *Checkpoint) Validate(formula, basisName, reorder string, numFuncs int) error {
	if ck.Formula != formula || ck.BasisName != basisName || ck.NumFuncs != numFuncs {
		return fmt.Errorf("scf: checkpoint is for %s/%s (%d funcs), not %s/%s (%d funcs)",
			ck.Formula, ck.BasisName, ck.NumFuncs, formula, basisName, numFuncs)
	}
	if ck.Reorder != reorder {
		return fmt.Errorf("scf: checkpoint uses shell ordering %q, this run uses %q", ck.Reorder, reorder)
	}
	return nil
}
