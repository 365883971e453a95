package core

import (
	"math/rand"
	"testing"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/integrals"
	"gtfock/internal/linalg"
	"gtfock/internal/screen"
)

// The family-aware selection on every basis of the library, on H2,
// methane, propane and a propane with no symmetry: over all tasks,
// collect visits every KeepQuartet orbit exactly once (checked against
// a brute-force walk of the orbits); inside each task the quartets of
// one bra family x ket family are contiguous, the sibling groups
// ERIBatch computes together; and StoreBytes still bounds the store such
// a build records — recorded for real where the build is cheap, from the
// selection's own quartet and value counts elsewhere.
func TestFamilySelectionCoversOrbitsOnce(t *testing.T) {
	jittered := func() *chem.Molecule {
		mol := chem.Alkane(3)
		rng := rand.New(rand.NewSource(7))
		for i := range mol.Atoms {
			p := &mol.Atoms[i].Pos
			p.X += (2*rng.Float64() - 1) * 0.01
			p.Y += (2*rng.Float64() - 1) * 0.01
			p.Z += (2*rng.Float64() - 1) * 0.01
		}
		return mol
	}
	mols := []struct {
		name string
		mol  func() *chem.Molecule
	}{
		{"H2", func() *chem.Molecule { return chem.Hydrogen2(0) }},
		{"CH4", chem.Methane},
		{"alkane:3", func() *chem.Molecule { return chem.Alkane(3) }},
		{"alkane:3_jittered", jittered},
	}
	record := map[string]bool{
		"H2/sto-3g": true, "H2/6-31g": true, "H2/cc-pvdz": true, "H2/cc-pvtz": true,
		"CH4/sto-3g": true, "CH4/6-31g": true, "alkane:3/sto-3g": true,
	}
	for _, mc := range mols {
		for _, bname := range basis.Names() {
			name := mc.name + "/" + bname
			t.Run(name, func(t *testing.T) {
				bs, err := basis.Build(mc.mol(), bname)
				if err != nil {
					t.Fatal(err)
				}
				scr := screen.Compute(bs, 1e-11)
				pt := scr.PairTable(integrals.PrimTol)
				quartets, values := checkFamilySelection(t, bs, scr, pt)
				ns := bs.NumShells()
				tasks := int64(ns * (ns + 1) / 2)
				index, vals := integrals.ERIStoreBytes(ns, tasks, quartets, values)
				if record[name] {
					store := integrals.NewERIStore(ns, 0, nil, 1, nil)
					d := linalg.NewMatrix(bs.NumFuncs, bs.NumFuncs)
					if res := Build(bs, scr, d, Options{ERIStore: store, PairTable: pt}); res.Err != nil {
						t.Fatal(res.Err)
					}
					st := store.Stats()
					if st.QuartetsStored != quartets || st.BytesStored/8 != values {
						t.Fatalf("store recorded %d quartets / %d values, selection %d / %d",
							st.QuartetsStored, st.BytesStored/8, quartets, values)
					}
					index, vals = integrals.ERIStoreBytes(ns, tasks, st.QuartetsStored, st.BytesStored/8)
				}
				boundIndex, boundValues := StoreBytes(bs)
				if index > boundIndex || vals > boundValues {
					t.Fatalf("store holds %d index + %d value bytes, bound %d + %d", index, vals, boundIndex, boundValues)
				}
			})
		}
	}
}

// checkFamilySelection runs collect on every task of bs and checks the
// orbit cover and the sibling adjacency; it returns the quartets
// selected and the integral values they hold.
func checkFamilySelection(t *testing.T, bs *basis.Set, scr *screen.Screening, pt *integrals.PairTable) (quartets, values int64) {
	t.Helper()
	ns := bs.NumShells()
	ln := testDoTaskLane(bs, scr, pt, linalg.NewMatrix(bs.NumFuncs, bs.NumFuncs))
	// An orbit of (mp|nq) is its pair of unordered shell pairs, the pairs
	// indexed a = hi(hi+1)/2 + lo and the orbit by the larger pair first.
	pairIdx := func(i, j int) int {
		if i < j {
			i, j = j, i
		}
		return i*(i+1)/2 + j
	}
	orbit := func(m, p, n, q int) int {
		a, b := pairIdx(m, p), pairIdx(n, q)
		if a < b {
			a, b = b, a
		}
		return a*(a+1)/2 + b
	}
	np := ns * (ns + 1) / 2
	seen := make([]uint8, np*(np+1)/2)
	for m := 0; m < ns; m++ {
		for n := 0; n < ns; n++ {
			if !SymmetryCheck(m, n) {
				continue
			}
			ln.collect(m, n)
			// Sibling adjacency: a (bra family, ket family) run, once
			// ended, never restarts within the task.
			done := map[[2]int]bool{}
			var cur [2]int
			for k, lb := range ln.labels {
				p, q := int(lb&0xffff), int(lb>>16)
				if !scr.KeepQuartet(m, p, n, q) {
					t.Fatalf("task (%d,%d) selected (%d%d|%d%d), which KeepQuartet drops", m, n, m, p, n, q)
				}
				o := orbit(m, p, n, q)
				if seen[o]++; seen[o] > 1 {
					t.Fatalf("orbit of (%d%d|%d%d) visited twice", m, p, n, q)
				}
				key := [2]int{pt.Family(p), pt.Family(q)}
				if k > 0 && key != cur {
					done[cur] = true
					if done[key] {
						t.Fatalf("task (%d,%d): family pair %v split at quartet %d", m, n, key, k)
					}
				}
				cur = key
				quartets++
				values += int64(bs.ShellFuncs(m) * bs.ShellFuncs(p) * bs.ShellFuncs(n) * bs.ShellFuncs(q))
			}
		}
	}
	// Brute force over the orbits: each one KeepQuartet keeps was
	// visited, and nothing else was.
	for m := 0; m < ns; m++ {
		for p := 0; p <= m; p++ {
			for n := 0; n <= m; n++ {
				for q := 0; q <= n; q++ {
					if n == m && q > p {
						break
					}
					keep, o := scr.KeepQuartet(m, p, n, q), orbit(m, p, n, q)
					if keep != (seen[o] == 1) {
						t.Fatalf("orbit (%d%d|%d%d): KeepQuartet %v, visited %d times", m, p, n, q, keep, seen[o])
					}
				}
			}
		}
	}
	if quartets == 0 {
		t.Fatal("no quartet selected")
	}
	return quartets, values
}
