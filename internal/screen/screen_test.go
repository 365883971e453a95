package screen

import (
	"math"
	"testing"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/integrals"
)

func build(t *testing.T, mol *chem.Molecule, name string) *basis.Set {
	t.Helper()
	bs, err := basis.Build(mol, name)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

func TestPairValuesSymmetricNonNegative(t *testing.T) {
	bs := build(t, chem.Alkane(3), "sto-3g")
	s := Compute(bs, 1e-10)
	n := bs.NumShells()
	for m := 0; m < n; m++ {
		for p := 0; p < n; p++ {
			if s.PairValue(m, p) < 0 {
				t.Fatal("negative pair value")
			}
			if s.PairValue(m, p) != s.PairValue(p, m) {
				t.Fatal("pair values not symmetric")
			}
		}
	}
	if s.MaxPairValue <= 0 {
		t.Fatal("MaxPairValue not positive")
	}
}

// Pair values must upper-bound every integral in any quartet touching the
// pair: |(ij|kl)| <= Q(M,N) Q(P,Q) (Cauchy-Schwarz at shell level).
func TestPairValuesBoundIntegrals(t *testing.T) {
	bs := build(t, chem.Alkane(2), "sto-3g")
	s := Compute(bs, 1e-10)
	eng := integrals.NewEngine()
	n := bs.NumShells()
	for m := 0; m < n; m++ {
		for nn := 0; nn < n; nn++ {
			pmn := eng.Pair(&bs.Shells[m], &bs.Shells[nn])
			for p := 0; p < n; p++ {
				for q := 0; q < n; q++ {
					ppq := eng.Pair(&bs.Shells[p], &bs.Shells[q])
					batch := eng.ERI(pmn, ppq)
					bound := s.PairValue(m, nn)*s.PairValue(p, q) + 1e-13
					for _, v := range batch {
						if math.Abs(v) > bound {
							t.Fatalf("|(%d%d|%d%d)| = %g exceeds bound %g",
								m, nn, p, q, math.Abs(v), bound)
						}
					}
				}
			}
		}
	}
}

func TestPhiSortedAndSignificant(t *testing.T) {
	bs := build(t, chem.Alkane(12), "cc-pvdz")
	s := Compute(bs, 1e-10)
	for m, phi := range s.Phi {
		for i, p := range phi {
			if i > 0 && phi[i-1] >= p {
				t.Fatal("Phi not strictly ascending")
			}
			if !s.Significant(m, p) {
				t.Fatal("Phi member not significant")
			}
		}
		// Every shell is significant with itself (diagonal is the max of
		// its own block, >= tau/m for any reasonable tau).
		found := false
		for _, p := range phi {
			if p == m {
				found = true
			}
		}
		if !found {
			t.Fatalf("shell %d not in its own Phi", m)
		}
	}
}

// Screening must actually drop pairs for a long chain: distant shell pairs
// are insignificant, so avg |Phi| << n_shells.
func TestScreeningDropsDistantPairs(t *testing.T) {
	bs := build(t, chem.Alkane(30), "sto-3g")
	s := Compute(bs, 1e-10)
	n := float64(bs.NumShells())
	if b := s.AvgPhi(); b >= 0.9*n {
		t.Fatalf("screening ineffective: B = %g of %g shells", b, n)
	}
}

// Tighter tau keeps more quartets; looser tau keeps fewer.
func TestQuartetCountMonotoneInTau(t *testing.T) {
	bs := build(t, chem.Alkane(8), "sto-3g")
	tight := Compute(bs, 1e-12).UniqueQuartetCount()
	mid := Compute(bs, 1e-10).UniqueQuartetCount()
	loose := Compute(bs, 1e-6).UniqueQuartetCount()
	if !(tight >= mid && mid >= loose) {
		t.Fatalf("quartet counts not monotone: %d %d %d", tight, mid, loose)
	}
	if loose <= 0 {
		t.Fatal("no quartets survive loose screening")
	}
}

// Brute-force cross-check of UniqueQuartetCount on a small system.
func TestUniqueQuartetCountBruteForce(t *testing.T) {
	bs := build(t, chem.Alkane(2), "sto-3g")
	for _, tau := range []float64{1e-10, 1e-6, 1e-3} {
		s := Compute(bs, tau)
		n := bs.NumShells()
		sigCut := tau / s.MaxPairValue
		// Enumerate unordered significant pairs.
		type pair struct{ m, p int }
		var pairs []pair
		for m := 0; m < n; m++ {
			for p := 0; p <= m; p++ {
				if s.PairValue(m, p) >= sigCut {
					pairs = append(pairs, pair{m, p})
				}
			}
		}
		var want int64
		for i := range pairs {
			for j := i; j < len(pairs); j++ {
				if s.PairValue(pairs[i].m, pairs[i].p)*
					s.PairValue(pairs[j].m, pairs[j].p) >= tau {
					want++
				}
			}
		}
		if got := s.UniqueQuartetCount(); got != want {
			t.Fatalf("tau=%g: UniqueQuartetCount = %d, brute force %d", tau, got, want)
		}
		if len(pairs) != s.SignificantPairCount() {
			t.Fatalf("SignificantPairCount mismatch")
		}
	}
}

func TestKeepQuartetMatchesDefinition(t *testing.T) {
	bs := build(t, chem.Alkane(4), "sto-3g")
	s := Compute(bs, 1e-8)
	n := bs.NumShells()
	for m := 0; m < n; m += 2 {
		for p := 0; p < n; p += 3 {
			for nn := 0; nn < n; nn += 2 {
				for q := 0; q < n; q += 3 {
					want := s.PairValue(m, p)*s.PairValue(nn, q) >= s.Tau
					if s.KeepQuartet(m, p, nn, q) != want {
						t.Fatal("KeepQuartet mismatch")
					}
				}
			}
		}
	}
}

func TestWWeights(t *testing.T) {
	bs := build(t, chem.Alkane(5), "cc-pvdz")
	s := Compute(bs, 1e-10)
	for m, phi := range s.Phi {
		var want float64
		for _, p := range phi {
			want += float64(bs.ShellFuncs(m) * bs.ShellFuncs(p))
		}
		if math.Abs(s.W[m]-want) > 1e-9 {
			t.Fatalf("W[%d] = %g, want %g", m, s.W[m], want)
		}
	}
}

// The 1D alkane loses a larger fraction of quartets to screening than the
// 2D flake of comparable shell count (the paper's Sec. IV-B observation
// that linear alkanes have much more screening).
func TestAlkaneScreensMoreThanFlake(t *testing.T) {
	alk := build(t, chem.Alkane(60), "sto-3g") // ~75 Angstrom chain, 302 shells
	flk := build(t, chem.GrapheneFlake(4), "sto-3g")
	salk := Compute(alk, 1e-10)
	sflk := Compute(flk, 1e-10)
	fracAlk := salk.AvgPhi() / float64(alk.NumShells())
	fracFlk := sflk.AvgPhi() / float64(flk.NumShells())
	if fracAlk >= fracFlk {
		t.Fatalf("expected alkane Phi fraction (%g) < flake (%g)", fracAlk, fracFlk)
	}
}

// Permuted screening must equal a from-scratch computation on the
// permuted basis.
func TestPermuteMatchesRecompute(t *testing.T) {
	bs := build(t, chem.Alkane(6), "sto-3g")
	s := Compute(bs, 1e-10)
	order := make([]int, bs.NumShells())
	for i := range order {
		order[i] = len(order) - 1 - i // reversal
	}
	pbs := bs.Permute(order)
	perm := s.Permute(order, pbs)
	direct := Compute(pbs, 1e-10)
	n := pbs.NumShells()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if math.Abs(perm.PairValue(i, j)-direct.PairValue(i, j)) > 1e-12 {
				t.Fatalf("pair value mismatch at %d,%d", i, j)
			}
		}
		if len(perm.Phi[i]) != len(direct.Phi[i]) {
			t.Fatalf("Phi size mismatch at %d", i)
		}
		for k := range perm.Phi[i] {
			if perm.Phi[i][k] != direct.Phi[i][k] {
				t.Fatalf("Phi mismatch at %d", i)
			}
		}
		if math.Abs(perm.W[i]-direct.W[i]) > 1e-9 {
			t.Fatalf("W mismatch at %d", i)
		}
	}
	if perm.UniqueQuartetCount() != direct.UniqueQuartetCount() {
		t.Fatal("quartet count changed under permutation")
	}
}

func TestAvgPhiOverlapBounds(t *testing.T) {
	bs := build(t, chem.Alkane(10), "sto-3g")
	s := Compute(bs, 1e-10)
	q := s.AvgPhiOverlap()
	if q < 0 || q > s.AvgPhi()+1e-9 {
		t.Fatalf("q = %g out of range (B = %g)", q, s.AvgPhi())
	}
	if q == 0 {
		t.Fatal("expected some Phi overlap between consecutive shells")
	}
}

var screeningSink *Screening

// Diagnosis only (make microbench): the Schwarz screen of the set-up's
// molecules, alkane:6/STO-3G (scf_replay's) and CH4/cc-pVDZ (scf_d's).
func BenchmarkScreenCompute(b *testing.B) {
	for _, c := range []struct {
		name, basis string
		mol         *chem.Molecule
	}{
		{"alkane6_sto3g", "sto-3g", chem.Alkane(6)},
		{"CH4_ccpvdz", "cc-pvdz", chem.Methane()},
	} {
		bs, err := basis.Build(c.mol, c.basis)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				screeningSink = Compute(bs, DefaultTau)
			}
		})
	}
}
