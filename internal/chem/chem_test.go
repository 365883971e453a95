package chem

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVecOps(t *testing.T) {
	v := Vec3{1, 2, 3}
	w := Vec3{4, 5, 6}
	if v.Add(w) != (Vec3{5, 7, 9}) {
		t.Fatal("Add")
	}
	if v.Sub(w) != (Vec3{-3, -3, -3}) {
		t.Fatal("Sub")
	}
	if v.Dot(w) != 32 {
		t.Fatal("Dot")
	}
	if v.Cross(w) != (Vec3{-3, 6, -3}) {
		t.Fatal("Cross")
	}
	if math.Abs(v.Norm()-math.Sqrt(14)) > 1e-15 {
		t.Fatal("Norm")
	}
	if math.Abs(v.Unit().Norm()-1) > 1e-15 {
		t.Fatal("Unit")
	}
}

func TestCrossOrthogonality(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := Vec3{math.Mod(ax, 10), math.Mod(ay, 10), math.Mod(az, 10)}
		b := Vec3{math.Mod(bx, 10), math.Mod(by, 10), math.Mod(bz, 10)}
		c := a.Cross(b)
		scale := 1 + a.Norm()*b.Norm()
		return math.Abs(c.Dot(a))/scale < 1e-9 && math.Abs(c.Dot(b))/scale < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPerpendicular(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		v := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		if v.Norm() < 1e-6 {
			continue
		}
		p := perpendicular(v)
		if math.Abs(p.Norm()-1) > 1e-12 {
			t.Fatal("perpendicular not unit")
		}
		if math.Abs(p.Dot(v))/v.Norm() > 1e-12 {
			t.Fatal("perpendicular not orthogonal")
		}
	}
}

func TestRotateAboutPreservesNormAndAxis(t *testing.T) {
	axis := Vec3{0, 0, 1}
	v := Vec3{1, 0, 0}
	r := rotateAbout(v, axis, math.Pi/2)
	if r.Sub(Vec3{0, 1, 0}).Norm() > 1e-14 {
		t.Fatalf("rotateAbout 90deg about z: got %+v", r)
	}
	if math.Abs(rotateAbout(axis, axis, 1.234).Sub(axis).Norm()) > 1e-14 {
		t.Fatal("rotation moved the axis")
	}
}

func TestMethane(t *testing.T) {
	m := Methane()
	if m.Formula() != "CH4" {
		t.Fatalf("formula = %s", m.Formula())
	}
	if m.NumElectrons() != 10 {
		t.Fatalf("electrons = %d", m.NumElectrons())
	}
	// All C-H distances equal to chBond.
	want := chBondA * BohrPerAngstrom
	for _, a := range m.Atoms[1:] {
		if math.Abs(a.Pos.Dist(m.Atoms[0].Pos)-want) > 1e-10 {
			t.Fatal("C-H bond length wrong")
		}
	}
	// H-C-H angles are tetrahedral.
	for i := 1; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			cos := m.Atoms[i].Pos.Unit().Dot(m.Atoms[j].Pos.Unit())
			if math.Abs(cos-(-1.0/3.0)) > 1e-10 {
				t.Fatalf("H-C-H cos angle = %v, want -1/3", cos)
			}
		}
	}
}

func TestAlkaneFormulas(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 25, 100, 144} {
		m := Alkane(n)
		carbons, hydrogens := 0, 0
		for _, a := range m.Atoms {
			switch a.Z {
			case ZCarbon:
				carbons++
			case ZHydrogen:
				hydrogens++
			}
		}
		if carbons != n || hydrogens != 2*n+2 {
			t.Fatalf("Alkane(%d) = C%dH%d, want C%dH%d", n, carbons, hydrogens, n, 2*n+2)
		}
	}
}

func TestAlkaneGeometrySane(t *testing.T) {
	m := Alkane(10)
	if m.Formula() != "C10H22" {
		t.Fatalf("formula = %s", m.Formula())
	}
	// No two atoms closer than ~0.9 Angstrom.
	if m.MinInterAtomicDistance() < 0.9*BohrPerAngstrom {
		t.Fatalf("atoms too close: %v Bohr", m.MinInterAtomicDistance())
	}
	// Backbone C-C distances are the bond length.
	want := ccSingleBondA * BohrPerAngstrom
	for i := 0; i+1 < 10; i++ {
		d := m.Atoms[i].Pos.Dist(m.Atoms[i+1].Pos)
		if math.Abs(d-want) > 1e-9 {
			t.Fatalf("C%d-C%d distance %v, want %v", i, i+1, d, want)
		}
	}
	// Chain extends along x (1D structure).
	min, max := m.BoundingBox()
	if (max.X-min.X) < 5*(max.Z-min.Z) || (max.X-min.X) < 5*(max.Y-min.Y) {
		t.Fatal("alkane is not chain-like along x")
	}
}

func TestGrapheneFlakeFormulas(t *testing.T) {
	for k := 1; k <= 5; k++ {
		m := GrapheneFlake(k)
		carbons, hydrogens := 0, 0
		for _, a := range m.Atoms {
			switch a.Z {
			case ZCarbon:
				carbons++
			case ZHydrogen:
				hydrogens++
			}
		}
		if carbons != 6*k*k || hydrogens != 6*k {
			t.Fatalf("GrapheneFlake(%d) = C%dH%d, want C%dH%d",
				k, carbons, hydrogens, 6*k*k, 6*k)
		}
	}
}

func TestGrapheneFlakePlanarAndSane(t *testing.T) {
	m := GrapheneFlake(4) // C96H24
	if m.Formula() != "C96H24" {
		t.Fatalf("formula = %s", m.Formula())
	}
	for _, a := range m.Atoms {
		if math.Abs(a.Pos.Z) > 1e-12 {
			t.Fatal("flake not planar")
		}
	}
	if m.MinInterAtomicDistance() < 1.0*BohrPerAngstrom {
		t.Fatalf("atoms too close: %v Bohr", m.MinInterAtomicDistance())
	}
	// Every carbon has exactly 3 neighbors (C or H) at bonding distance.
	bondMax := 1.6 * BohrPerAngstrom
	for i, a := range m.Atoms {
		if a.Z != ZCarbon {
			continue
		}
		deg := 0
		for j, b := range m.Atoms {
			if i != j && a.Pos.Dist(b.Pos) < bondMax {
				deg++
			}
		}
		if deg != 3 {
			t.Fatalf("carbon %d has degree %d, want 3", i, deg)
		}
	}
}

func TestBenzeneIsHexagon(t *testing.T) {
	m := Benzene()
	if m.Formula() != "C6H6" {
		t.Fatalf("formula = %s", m.Formula())
	}
	// All carbons at equal distance from centroid.
	var c Vec3
	for _, a := range m.Atoms[:6] {
		c = c.Add(a.Pos)
	}
	c = c.Scale(1.0 / 6)
	r0 := m.Atoms[0].Pos.Dist(c)
	for _, a := range m.Atoms[:6] {
		if math.Abs(a.Pos.Dist(c)-r0) > 1e-9 {
			t.Fatal("benzene carbons not on a circle")
		}
	}
}

func TestPaperMolecules(t *testing.T) {
	cases := map[string]struct{ atoms, electrons int }{
		"C24H12":   {36, 156},
		"C96H24":   {120, 600},
		"C150H30":  {180, 930},
		"C10H22":   {32, 82},
		"C100H202": {302, 802},
		"C144H290": {434, 1154},
	}
	for formula, want := range cases {
		m, err := PaperMolecule(formula)
		if err != nil {
			t.Fatalf("%s: %v", formula, err)
		}
		if m.Formula() != formula {
			t.Fatalf("formula %s != %s", m.Formula(), formula)
		}
		if m.NumAtoms() != want.atoms {
			t.Fatalf("%s atoms = %d, want %d", formula, m.NumAtoms(), want.atoms)
		}
		if m.NumElectrons() != want.electrons {
			t.Fatalf("%s electrons = %d, want %d", formula, m.NumElectrons(), want.electrons)
		}
		if m.NumElectrons()%2 != 0 {
			t.Fatalf("%s not closed-shell", formula)
		}
	}
	if _, err := PaperMolecule("XYZ99"); err == nil {
		t.Fatal("expected error for unknown molecule")
	}
}

func TestNuclearRepulsionH2(t *testing.T) {
	m := Hydrogen2(0.741)
	want := 1.0 / (0.741 * BohrPerAngstrom)
	if math.Abs(m.NuclearRepulsion()-want) > 1e-12 {
		t.Fatalf("E_nn = %v, want %v", m.NuclearRepulsion(), want)
	}
}

func TestNuclearRepulsionTranslationInvariant(t *testing.T) {
	m := Methane()
	e0 := m.NuclearRepulsion()
	m.Translate(Vec3{3, -2, 7})
	if math.Abs(m.NuclearRepulsion()-e0) > 1e-10 {
		t.Fatal("E_nn not translation invariant")
	}
}

func TestBoundingBox(t *testing.T) {
	m := &Molecule{Atoms: []Atom{
		{Z: 1, Pos: Vec3{-1, 0, 2}},
		{Z: 1, Pos: Vec3{3, -4, 1}},
	}}
	min, max := m.BoundingBox()
	if min != (Vec3{-1, -4, 1}) || max != (Vec3{3, 0, 2}) {
		t.Fatalf("bbox = %+v %+v", min, max)
	}
}

func TestSymbol(t *testing.T) {
	if Symbol(1) != "H" || Symbol(6) != "C" {
		t.Fatal("Symbol")
	}
	if Symbol(8) != "Z8" {
		t.Fatalf("Symbol(8) = %s", Symbol(8))
	}
}

func TestHydrogenDirectionsTetrahedral(t *testing.T) {
	// CH2 case: two neighbors at the backbone angle; the two H directions
	// must be unit, symmetric, and at ~tetrahedral angle to each other.
	c := Vec3{}
	n1 := Vec3{1, 0, 0.3}.Unit()
	n2 := Vec3{-1, 0, 0.3}.Unit()
	dirs := hydrogenDirections(c, []Vec3{n1, n2})
	if len(dirs) != 2 {
		t.Fatalf("CH2 got %d dirs", len(dirs))
	}
	cos := dirs[0].Dot(dirs[1])
	wantCos := math.Cos(tetAngleDeg * math.Pi / 180)
	if math.Abs(cos-wantCos) > 1e-9 {
		t.Fatalf("H-C-H cos = %v, want %v", cos, wantCos)
	}
	// CH3 case: three dirs, mutually equal angles.
	dirs3 := hydrogenDirections(c, []Vec3{n1})
	if len(dirs3) != 3 {
		t.Fatalf("CH3 got %d dirs", len(dirs3))
	}
	for i := 0; i < 3; i++ {
		if math.Abs(dirs3[i].Norm()-1) > 1e-12 {
			t.Fatal("CH3 dir not unit")
		}
		// angle to C-C bond is tetrahedral
		if math.Abs(dirs3[i].Dot(n1)-wantCos) > 1e-9 {
			t.Fatal("CH3 C-H not at tetrahedral angle to C-C")
		}
	}
}
