package integrals

import (
	"math"
	"slices"
	"testing"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
)

// FuzzBoys checks the Boys function invariants for arbitrary inputs:
// bounds, monotonicity in m, and the downward recursion identity; a
// negative or NaN argument must be refused, not tabulated.
func FuzzBoys(f *testing.F) {
	f.Add(0.0)
	f.Add(1e-15)
	f.Add(0.5)
	f.Add(34.999)
	f.Add(35.001)
	f.Add(1e4)
	// Seeds at the tabulation's interesting points: interval edges (worst
	// Taylor truncation), the last grid point, and the table/asymptotic
	// crossover at boysXMax = 36 + 1/16.
	f.Add(1.0/16 + 1e-12)
	f.Add(3.0 + 1.0/16)
	f.Add(35.9375)
	f.Add(36.0)
	f.Add(36.062499999)
	f.Add(36.0625)
	f.Add(36.062500001)
	// What must not reach the table index: NaN, -0, negatives, overflow.
	f.Add(math.NaN())
	f.Add(math.Copysign(0, -1))
	f.Add(-1e-300)
	f.Add(-3.0)
	f.Add(math.MaxFloat64)
	f.Fuzz(func(t *testing.T, x float64) {
		if !(x >= 0) {
			defer func() {
				if recover() == nil {
					t.Fatalf("Boys accepted x = %v", x)
				}
			}()
		}
		const mmax = 12
		out := Boys(mmax, x, nil)
		ex := math.Exp(-x)
		for m := 0; m <= mmax; m++ {
			if out[m] < 0 || out[m] > 1 {
				t.Fatalf("F_%d(%g) = %g out of [0,1]", m, x, out[m])
			}
			if m > 0 && out[m] > out[m-1]+1e-15 {
				t.Fatalf("F not monotone in m at x=%g", x)
			}
			if m < mmax {
				lhs := float64(2*m+1) * out[m]
				rhs := 2*x*out[m+1] + ex
				if math.Abs(lhs-rhs) > 1e-10*(1+math.Abs(lhs)) {
					t.Fatalf("recursion identity broken at m=%d x=%g: %g vs %g",
						m, x, lhs, rhs)
				}
			}
		}
	})
}

// FuzzERIKernelClasses drives arbitrary geometries, exponents and
// contraction depths through every specialized-kernel class key (L
// clamped to 0..2 per shell, so canonical, mirrored and sp/sd-aliased
// keys are all reachable) and cross-checks the dispatched result against
// the general MD path. depth picks 1, 3 or 8 primitives per shell (8
// only for all-s/p keys, to keep a (dd|dd) execution short); prune turns
// on PrimTol so pairs may lose primitives. family adds a sibling to the
// bra's second shell (bit 0) and to the ket's (bit 1) — same exponents
// and centre, its own coefficients; of the shell's L with bit 2, else s
// beside a p or d and p beside an s — and checks every member of the
// resulting sibling group against its own kernel and the general path
// (see checkFamilyGroup).
func FuzzERIKernelClasses(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), false, 1.0, 0.5, 0.3, 2.0, 0.5, -0.4, 1.0, uint8(0))
	f.Add(uint8(2), uint8(2), uint8(2), uint8(2), uint8(0), false, 0.8, 1.5, 0.9, 0.2, -1.1, 0.7, 0.0, uint8(0))
	f.Add(uint8(1), uint8(2), uint8(2), uint8(1), uint8(1), false, 11.0, 0.1, 3.3, 0.6, 0.0, 0.0, 0.0, uint8(0))
	f.Add(uint8(0), uint8(2), uint8(1), uint8(1), uint8(0), true, 2.5, 2.5, 2.5, 2.5, 0.3, 0.3, 0.3, uint8(0))
	// The straight-line s/p kernels: canonical and mirrored orientations,
	// sp aliasing ps, each contraction depth, coincident centres (g = 0)
	// and far ones (Boys argument >= 36), with and without pruning.
	f.Add(uint8(1), uint8(0), uint8(1), uint8(0), uint8(1), false, 1.0, 0.5, 0.3, 2.0, 0.5, -0.4, 1.0, uint8(0))
	f.Add(uint8(0), uint8(1), uint8(1), uint8(0), uint8(2), false, 0.7, 1.9, 4.0, 0.2, 0.0, 0.0, 0.0, uint8(0))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(0), uint8(2), true, 3.0, 0.4, 1.3, 0.9, 1.5, -0.8, 0.6, uint8(0))
	f.Add(uint8(1), uint8(0), uint8(1), uint8(1), uint8(1), false, 5.0, 6.0, 7.0, 8.0, 7.9, 7.9, 7.9, uint8(0))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), uint8(2), true, 0.3, 2.2, 0.6, 1.1, -2.5, 3.5, 0.1, uint8(0))
	f.Add(uint8(0), uint8(0), uint8(1), uint8(1), uint8(0), false, 1.2, 1.2, 0.8, 0.8, 0.0, 0.0, 0.0, uint8(0))
	// Sibling groups: s+p and s+s families on either side or both,
	// mirrored, with misaligned primitives under pruning, coincident
	// centres and a d first shell; (p,d) siblings have no set kernel
	// and run member by member.
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(1), false, 1.0, 0.5, 0.3, 2.0, 0.5, -0.4, 1.0, uint8(3))
	f.Add(uint8(1), uint8(0), uint8(0), uint8(0), uint8(2), true, 3.0, 0.4, 1.3, 0.9, 1.5, -0.8, 0.6, uint8(1))
	f.Add(uint8(0), uint8(0), uint8(1), uint8(0), uint8(1), false, 0.7, 1.9, 4.0, 0.2, 0.0, 0.0, 0.0, uint8(2))
	f.Add(uint8(2), uint8(0), uint8(0), uint8(0), uint8(1), true, 0.8, 1.5, 0.9, 0.2, -1.1, 0.7, 0.0, uint8(3))
	f.Add(uint8(1), uint8(1), uint8(0), uint8(2), uint8(0), false, 11.0, 0.1, 3.3, 0.6, 0.0, 0.0, 0.0, uint8(3))
	f.Add(uint8(1), uint8(0), uint8(2), uint8(0), uint8(1), true, 0.3, 2.2, 0.6, 1.1, -2.5, 3.5, 0.1, uint8(7))
	f.Fuzz(func(t *testing.T, la, lb, lc, ld, depth uint8, prune bool, e1, e2, e3, e4, gx, gy, gz float64, family uint8) {
		for _, v := range []float64{e1, e2, e3, e4, gx, gy, gz} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		clampE := func(e float64) float64 {
			e = math.Abs(e)
			if e < 1e-2 || e > 1e3 {
				return 1.0
			}
			return e
		}
		clampG := func(g float64) float64 {
			if math.Abs(g) > 8 {
				return math.Mod(g, 8)
			}
			return g
		}
		ls := [4]int{int(la % 3), int(lb % 3), int(lc % 3), int(ld % 3)}
		nprim := [3]int{1, 3, 8}[depth%3]
		if nprim == 8 && (ls[0] == 2 || ls[1] == 2 || ls[2] == 2 || ls[3] == 2) {
			nprim = 3
		}
		mk := func(l int, e, x, y, z float64) *basis.Shell {
			// Exponents fan out from the fuzzed one by factors of 2.5 in
			// both directions; coefficients alternate in sign.
			exps := make([]float64, nprim)
			coefs := make([]float64, nprim)
			for i := range exps {
				exps[i] = clampE(e) * math.Pow(2.5, float64(i-nprim/2))
				coefs[i] = float64(1-2*(i%2)) / float64(1+i)
			}
			return rawShell(l, chem.Vec3{X: clampG(x), Y: clampG(y), Z: clampG(z)}, exps, coefs)
		}
		primTol := 0.0
		if prune {
			primTol = 1e-6
		}
		fast := NewEngine()
		slow := NewEngine()
		slow.DisableFastKernels = true
		sh := [4]*basis.Shell{mk(ls[0], e1, gx, gy, gz), mk(ls[1], e2, gy, gz, gx), mk(ls[2], e3, -gx, gz, gy), mk(ls[3], e4, gz, -gy, gx)}
		if family&3 == 0 {
			bra, ket := NewShellPair(sh[0], sh[1], primTol), NewShellPair(sh[2], sh[3], primTol)
			checkKernel(t, "fuzzed quartet", fast, slow, bra, ket, nil)
			if fast.Stats.FastQuartets != 1 || fast.Stats.GeneralQuartets != 0 {
				t.Fatalf("L<=2 quartet not served by a kernel: %+v", fast.Stats)
			}
			return
		}
		// A sibling of b: same exponents and centre, coefficients
		// reversed; the family in (L, index) order.
		fam := func(b *basis.Shell, with bool) []*basis.Shell {
			if !with {
				return []*basis.Shell{b}
			}
			coefs := append([]float64(nil), b.Coefs...)
			slices.Reverse(coefs)
			l := min(b.L, 1) ^ 1
			if family&4 != 0 {
				l = b.L
			}
			sib := rawShell(l, b.Center, b.Exps, coefs)
			if sib.L < b.L {
				return []*basis.Shell{sib, b}
			}
			return []*basis.Shell{b, sib}
		}
		g := newFamilyGroup(sh[0], fam(sh[1], family&1 != 0), sh[2], fam(sh[3], family&2 != 0), primTol)
		checkFamilyGroup(t, "fuzzed sibling group", g, false)
	})
}
