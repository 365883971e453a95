package reorder

import (
	"reflect"
	"sort"
	"testing"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/screen"
)

func isPermutation(t *testing.T, p []int, n int) {
	t.Helper()
	if len(p) != n {
		t.Fatalf("length %d, want %d", len(p), n)
	}
	s := append([]int(nil), p...)
	sort.Ints(s)
	for i, v := range s {
		if v != i {
			t.Fatalf("not a permutation: %v", p)
		}
	}
}

func TestIdentityAndRandomArePermutations(t *testing.T) {
	isPermutation(t, Identity(17), 17)
	isPermutation(t, Random(17, 3), 17)
	a, b := Random(40, 1), Random(40, 2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave the same permutation")
	}
}

func TestCellIsPermutation(t *testing.T) {
	mol := chem.Alkane(12)
	bs, err := basis.Build(mol, "sto-3g")
	if err != nil {
		t.Fatal(err)
	}
	isPermutation(t, Cell(bs, 0), bs.NumShells())
	isPermutation(t, Cell(bs, 2.0), bs.NumShells())
}

// For shell centers on a literal line along x, cell ordering must sort
// shells by x (single y/z row, x-fastest numbering).
func TestCellOrderSortsLineByX(t *testing.T) {
	mol := &chem.Molecule{Name: "H chain"}
	// Emit atoms in scrambled x order.
	for _, i := range []int{5, 0, 9, 2, 7, 1, 8, 3, 6, 4} {
		mol.Atoms = append(mol.Atoms, chem.Atom{
			Z: chem.ZHydrogen, Pos: chem.Vec3{X: 2 * float64(i)},
		})
	}
	bs, _ := basis.Build(mol, "sto-3g")
	order := Cell(bs, 1.0)
	perm := bs.Permute(order)
	for i := 1; i < perm.NumShells(); i++ {
		if perm.Shells[i].Center.X < perm.Shells[i-1].Center.X {
			t.Fatalf("cell order not monotone in x at %d", i)
		}
	}
}

// The headline property (Sec. III-D): cell ordering shrinks the index
// spread of the significant sets versus the generator's atom order, and
// dramatically versus a random order.
func TestCellOrderingReducesPhiSpread(t *testing.T) {
	mol := chem.Alkane(40)
	bs, _ := basis.Build(mol, "sto-3g")
	tau := 1e-10

	spread := func(b *basis.Set) float64 {
		s := screen.Compute(b, tau)
		return IndexSpread(s.Phi, b.NumShells())
	}

	natural := spread(bs)
	cell := spread(bs.Permute(Cell(bs, 0)))
	random := spread(bs.Permute(Random(bs.NumShells(), 7)))

	if cell >= random {
		t.Fatalf("cell spread %g not better than random %g", cell, random)
	}
	if cell >= natural {
		// The alkane generator emits all carbons then all hydrogens, so
		// natural order already interleaves poorly; cell must win.
		t.Fatalf("cell spread %g not better than natural %g", cell, natural)
	}
}

func TestSpreadHelpers(t *testing.T) {
	// Phi sets covering the full index range have spread 1.
	phi := [][]int{{0, 9}, {0, 9}}
	if got := IndexSpread(phi, 10); got != 1 {
		t.Fatalf("spread = %v, want 1", got)
	}
	// Singleton sets have spread 1/n.
	phi = [][]int{{3}, {4}}
	if got := IndexSpread(phi, 10); got != 0.1 {
		t.Fatalf("spread = %v, want 0.1", got)
	}
}

// ByName is the one name -> ordering switch of the drivers: a nil function
// for the atom order under both its spellings, Cell at the default edge
// for "cell", an error for anything else.
func TestByName(t *testing.T) {
	bs, err := basis.Build(chem.Alkane(6), "sto-3g")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "natural"} {
		if by, err := ByName(name); err != nil || by != nil {
			t.Errorf("ByName(%q) = non-nil ordering or error %v, want the atom order", name, err)
		}
	}
	by, err := ByName("cell")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := by(bs), Cell(bs, 0); !reflect.DeepEqual(got, want) {
		t.Errorf("ByName(cell) = %v, want Cell's %v", got, want)
	}
	for _, name := range []string{"morton", "zigzag"} {
		if _, err := ByName(name); err == nil {
			t.Errorf("ByName(%q) accepted", name)
		}
	}
}
