// Package gtfock is a from-scratch Go reproduction of "A New Scalable
// Parallel Algorithm for Fock Matrix Construction" (Liu, Patel, Chow;
// IPDPS 2014) — the algorithm that became the GTFock library.
//
// The package is a façade over the subsystems in internal/: molecular
// geometry generators, Gaussian basis sets, a McMurchie-Davidson ERI
// engine, Cauchy-Schwarz screening, spatial shell reordering, a simulated
// one-sided communication runtime with discrete-event scaling simulation,
// the GTFock Fock-build algorithm and the NWChem-style baseline, SUMMA +
// canonical purification, and a restricted Hartree-Fock driver. The
// paper's analytic performance model (internal/model) is read by
// cmd/paper, not exported here.
//
// Quick start:
//
//	mol := gtfock.Methane()
//	res, err := gtfock.RunHF(mol, gtfock.SCFOptions{BasisName: "sto-3g"})
//	fmt.Println(res.Energy)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of every table and figure in the paper's evaluation.
package gtfock

import (
	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/core"
	"gtfock/internal/dist"
	"gtfock/internal/linalg"
	"gtfock/internal/nwchem"
	"gtfock/internal/reorder"
	"gtfock/internal/scf"
	"gtfock/internal/screen"
)

// Core data types, aliased from the implementing packages.
type (
	// Molecule is a list of atoms with generator helpers.
	Molecule = chem.Molecule
	// Atom is a nucleus (atomic number + position in Bohr).
	Atom = chem.Atom
	// Vec3 is a 3-vector in Bohr.
	Vec3 = chem.Vec3
	// BasisSet is a Gaussian basis instantiated on a molecule.
	BasisSet = basis.Set
	// Matrix is a dense row-major matrix.
	Matrix = linalg.Matrix
	// Screening holds Cauchy-Schwarz pair values and significant sets.
	Screening = screen.Screening
	// FockOptions configures a real-mode GTFock build.
	FockOptions = core.Options
	// FockResult is a completed real-mode Fock build.
	FockResult = core.Result
	// BaselineOptions configures the NWChem-style baseline build.
	BaselineOptions = nwchem.Options
	// SCFOptions configures a Hartree-Fock run.
	SCFOptions = scf.Options
	// SCFResult is a completed Hartree-Fock run.
	SCFResult = scf.Result
	// MachineConfig is the simulated machine description.
	MachineConfig = dist.Config
	// RunStats is per-process accounting of a build or simulation.
	RunStats = dist.RunStats
)

// DefaultTau is the paper's screening tolerance, 1e-10.
const DefaultTau = screen.DefaultTau

// Molecule generators (the paper's test systems).
var (
	// Alkane builds the linear alkane CnH(2n+2).
	Alkane = chem.Alkane
	// GrapheneFlake builds the hexagonal flake C(6k^2)H(6k).
	GrapheneFlake = chem.GrapheneFlake
	// Methane builds CH4.
	Methane = chem.Methane
	// Benzene builds C6H6.
	Benzene = chem.Benzene
	// PaperMolecule returns a paper test system by formula, e.g. "C96H24".
	PaperMolecule = chem.PaperMolecule
)

// BuildBasis instantiates a built-in basis set ("cc-pvdz" or "sto-3g") on
// a molecule.
func BuildBasis(mol *Molecule, name string) (*BasisSet, error) {
	return basis.Build(mol, name)
}

// ComputeScreening builds Cauchy-Schwarz screening data with drop
// tolerance tau (pass 0 for the paper's 1e-10).
func ComputeScreening(bs *BasisSet, tau float64) *Screening {
	return screen.Compute(bs, tau)
}

// ReorderShells applies the paper's spatial cell reordering (Sec. III-D)
// and returns the reordered basis. Recompute screening afterwards.
func ReorderShells(bs *BasisSet) *BasisSet {
	return bs.Permute(reorder.Cell(bs, 0))
}

// BuildFock runs the paper's parallel Fock construction (Algorithm 4) on
// goroutine processes and returns the symmetric two-electron matrix G
// (F = H_core + G) with full communication accounting. The density d
// follows eq. (3)'s convention (D = C_occ C_occ^T for closed shells).
func BuildFock(bs *BasisSet, scr *Screening, d *Matrix, opt FockOptions) FockResult {
	return core.Build(bs, scr, d, opt)
}

// BuildFockBaseline runs the NWChem-style baseline (Algorithm 2).
func BuildFockBaseline(bs *BasisSet, scr *Screening, d *Matrix, opt BaselineOptions) (nwchem.Result, error) {
	return nwchem.Build(bs, scr, d, opt)
}

// SimulateFock runs the paper-scale discrete-event simulation of the
// GTFock algorithm on `cores` total cores of the configured machine.
func SimulateFock(bs *BasisSet, scr *Screening, cfg MachineConfig, cores int) (*RunStats, error) {
	return core.Simulate(bs, scr, cfg, cores)
}

// SimulateFockBaseline simulates the NWChem-style baseline at scale.
func SimulateFockBaseline(bs *BasisSet, scr *Screening, cfg MachineConfig, cores int) (*RunStats, error) {
	return nwchem.Simulate(bs, scr, cfg, cores)
}

// RunHF performs a restricted closed-shell Hartree-Fock calculation.
func RunHF(mol *Molecule, opt SCFOptions) (*SCFResult, error) {
	return scf.RunHF(mol, opt)
}

// Lonestar returns the paper's machine constants (Table I).
func Lonestar() MachineConfig { return dist.Lonestar() }
