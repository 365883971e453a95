// Quickstart: compute the restricted Hartree-Fock energy of methane with
// the paper's parallel Fock-build algorithm, in a dozen lines of the
// public API.
package main

import (
	"fmt"
	"log"

	"gtfock"
)

func main() {
	mol := gtfock.Methane()
	res, err := gtfock.RunHF(mol, gtfock.SCFOptions{
		BasisName: "sto-3g",
		Prow:      2, Pcol: 2, // 4 goroutine "processes"
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RHF/STO-3G %s\n", mol.Formula())
	for i, it := range res.Iterations {
		fmt.Printf("  iter %2d  E = %14.8f Ha  dE = %10.2e\n", i+1, it.Energy, it.DeltaE)
	}
	fmt.Printf("converged=%v  E = %.8f Hartree\n", res.Converged, res.Energy)
	fmt.Printf("last Fock build moved %.3f MB per process in %.0f one-sided calls\n",
		res.FockStats.VolumeAvgMB(), res.FockStats.CallsAvg())
}
