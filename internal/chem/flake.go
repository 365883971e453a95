package chem

import (
	"fmt"
	"math"
	"sort"
)

// GrapheneFlake generates the hexagonally symmetric graphene flake of
// order k >= 1: formula C(6k^2)H(6k). The family contains the paper's "2D
// planar" test molecules:
//
//	k=1: C6H6 (benzene)     k=2: C24H12 (coronene)
//	k=3: C54H18             k=4: C96H24
//	k=5: C150H30
//
// The flake lies in the z=0 plane. Carbon atoms come first (sorted by
// position for determinism), then edge hydrogens.
func GrapheneFlake(k int) *Molecule {
	if k < 1 {
		panic("chem: GrapheneFlake requires k >= 1")
	}
	// Ring centers on a triangular lattice: axial coordinates (q, r) with
	// max(|q|, |r|, |q+r|) <= k-1 gives the hexagon of 3k^2-3k+1 rings.
	var rings [][2]int
	for q := -(k - 1); q <= k-1; q++ {
		for r := -(k - 1); r <= k-1; r++ {
			if abs(q+r) <= k-1 {
				rings = append(rings, [2]int{q, r})
			}
		}
	}
	return honeycomb(rings, fmt.Sprintf("C%dH%d graphene flake (k=%d)", 6*k*k, 6*k, k))
}

// honeycomb builds the union of hexagonal rings centered at the given
// axial lattice coordinates, hydrogen-terminating every edge carbon
// (degree-2 vertices of the honeycomb).
func honeycomb(rings [][2]int, name string) *Molecule {
	cc := ccAromaticA * BohrPerAngstrom
	ch := chAromaticA * BohrPerAngstrom
	ringDist := cc * math.Sqrt(3) // distance between adjacent ring centers

	type key struct{ x, y int64 }
	seen := map[key]Vec3{}
	quantize := func(p Vec3) key {
		const q = 1e6
		return key{int64(math.Round(p.X * q)), int64(math.Round(p.Y * q))}
	}
	for _, qr := range rings {
		center := Vec3{
			X: ringDist * (float64(qr[0]) + float64(qr[1])/2),
			Y: ringDist * math.Sqrt(3) / 2 * float64(qr[1]),
		}
		// Six vertices at 30, 90, ..., 330 degrees, circumradius cc.
		for v := 0; v < 6; v++ {
			ang := math.Pi/6 + float64(v)*math.Pi/3
			p := center.Add(Vec3{X: cc * math.Cos(ang), Y: cc * math.Sin(ang)})
			seen[quantize(p)] = p
		}
	}
	carbons := make([]Vec3, 0, len(seen))
	for _, p := range seen {
		carbons = append(carbons, p)
	}
	sort.Slice(carbons, func(i, j int) bool {
		if carbons[i].Y != carbons[j].Y {
			return carbons[i].Y < carbons[j].Y
		}
		return carbons[i].X < carbons[j].X
	})

	mol := &Molecule{Name: name}
	for _, c := range carbons {
		mol.Atoms = append(mol.Atoms, Atom{Z: ZCarbon, Pos: c})
	}
	// Hydrogens terminate carbons with fewer than 3 carbon neighbors.
	bondTol := 1.1 * cc
	for i, c := range carbons {
		var nbrSum Vec3
		deg := 0
		for j, c2 := range carbons {
			if i == j {
				continue
			}
			if c.Dist(c2) < bondTol {
				deg++
				nbrSum = nbrSum.Add(c2.Sub(c).Unit())
			}
		}
		if deg == 2 {
			dir := nbrSum.Scale(-1).Unit()
			mol.Atoms = append(mol.Atoms, Atom{Z: ZHydrogen, Pos: c.Add(dir.Scale(ch))})
		} else if deg < 2 {
			panic(fmt.Sprintf("chem: honeycomb carbon %d has degree %d", i, deg))
		}
	}
	return mol
}

// Benzene returns C6H6 (GrapheneFlake order 1).
func Benzene() *Molecule { return GrapheneFlake(1) }

// PaperMolecule returns one of the paper's named test systems by formula:
// C96H24, C150H30, C100H202, C144H290, C24H12, C10H22.
func PaperMolecule(formula string) (*Molecule, error) {
	switch formula {
	case "C6H6":
		return GrapheneFlake(1), nil
	case "C24H12":
		return GrapheneFlake(2), nil
	case "C54H18":
		return GrapheneFlake(3), nil
	case "C96H24":
		return GrapheneFlake(4), nil
	case "C150H30":
		return GrapheneFlake(5), nil
	case "C10H22":
		return Alkane(10), nil
	case "C100H202":
		return Alkane(100), nil
	case "C144H290":
		return Alkane(144), nil
	case "CH4":
		return Methane(), nil
	case "H2":
		return Hydrogen2(0), nil
	default:
		return nil, fmt.Errorf("chem: unknown paper molecule %q", formula)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
