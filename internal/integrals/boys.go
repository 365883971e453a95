// Package integrals implements the molecular integrals the paper's system
// needs: contracted Gaussian electron repulsion integrals (ERIs) computed
// in shell-quartet batches via the McMurchie-Davidson scheme, the
// one-electron overlap/kinetic/nuclear-attraction integrals, and an
// independent Obara-Saika implementation used as a cross-check oracle in
// tests. It plays the role of the ERD integrals package in the paper's
// software stack.
//
// Cartesian integrals are evaluated over raw polynomial Gaussians
// x^i y^j z^k exp(-a r^2); normalization lives in the contraction
// coefficients (see basis.Build), and d shells are transformed to the five
// real spherical components. ERIs are returned in batches
// (MN|PQ) = { (ij|kl) : i in M, j in N, k in P, l in Q } as the paper
// defines them (Sec. II-C).
package integrals

import (
	"fmt"
	"math"
	"unsafe"
)

// maxBoysM is the largest Boys order the tables support: enough for
// (dd|dd) with nuclear-attraction headroom.
const maxBoysM = 24

// Boys tabulation. Every order m (and exp(-x), stored as one more order)
// has its own row per grid interval: the eight Taylor coefficients of
// F_m around the grid point x_i = i*boysDX, premultiplied so that
// F_m(x) = sum_k row[k] d^k with d = x - x_i — one 64-byte cache line,
// evaluated by boysPoly with no division and no long dependency chain.
// |d| <= boysDX/2, so the truncation error is below
// (boysDX/2)^8/8! ~ 5.8e-15 relative. A call reads two lines: the top
// order's and exp(-x)'s; the lower orders follow by downward recursion
// through the boysInvOdd reciprocals. From boysXMax on, F_0 is its
// asymptote and the orders go upward without the exp(-x) term, which is
// below 2.2e-16 there.
const (
	boysDX    = 1.0 / 8
	boysInvDX = 8.0
	boysGridN = 36*8 + 1 // grid points 0, 1/8, .., 36
	boysXMax  = (boysGridN - 0.5) * boysDX
	boysExp   = maxBoysM + 1 // the row set of exp(-x)
)

// boysTab lives in static storage (outside the collector's heap, so it
// does not move the GC's pacing), padded so that it can start on a cache
// line: the linker aligns data to 32 bytes only.
var boysStore [(maxBoysM+2)*boysGridN*8 + 7]float64

var boysTab = func() *[maxBoysM + 2][boysGridN][8]float64 {
	skip := -uintptr(unsafe.Pointer(&boysStore)) % 64 / 8
	return (*[maxBoysM + 2][boysGridN][8]float64)(unsafe.Pointer(&boysStore[skip]))
}()

// boysInvOdd[m] = 1/(2m-1), the downward recursion's divisor.
var boysInvOdd [maxBoysM + 1]float64

func init() {
	var f [maxBoysM + 8]float64
	for i := 0; i < boysGridN; i++ {
		x := float64(i) * boysDX
		boysSeries(maxBoysM+7, x, f[:])
		ex, w := math.Exp(-x), 1.0 // w = (-1)^k / k!
		for k := 0; k < 8; k++ {
			boysTab[boysExp][i][k] = ex * w
			for m := 0; m <= maxBoysM; m++ {
				boysTab[m][i][k] = f[m+k] * w
			}
			w /= -float64(k + 1)
		}
	}
	for m := 1; m <= maxBoysM; m++ {
		boysInvOdd[m] = 1 / float64(2*m-1)
	}
}

// boysPoly evaluates one table row at offset d from its grid point by
// Estrin's scheme: the four coefficient pairs are independent, so the
// dependency chain is three multiply-adds deep instead of Horner's seven.
func boysPoly(c *[8]float64, d float64) float64 {
	d2 := d * d
	return ((c[0] + c[1]*d) + (c[2]+c[3]*d)*d2) +
		((c[4]+c[5]*d)+(c[6]+c[7]*d)*d2)*(d2*d2)
}

// Boys computes the Boys function F_m(x) = int_0^1 t^{2m} exp(-x t^2) dt
// for m = 0..mmax into out (nil, or len > mmax), and returns out[:mmax+1].
// It agrees with the series reference (boysSeries) to 1e-14 relative. The
// straight-line kernels carry the same scheme unrolled (cmd/kernelgen).
func Boys(mmax int, x float64, out []float64) []float64 {
	switch {
	case mmax < 0 || mmax > maxBoysM:
		panic(fmt.Sprintf("integrals: Boys: mmax = %d outside 0..%d", mmax, maxBoysM))
	case out != nil && len(out) <= mmax:
		panic(fmt.Sprintf("integrals: Boys: len(out) = %d cannot hold orders 0..%d", len(out), mmax))
	case !(x >= 0):
		panic(fmt.Sprintf("integrals: Boys: x = %v is negative or NaN", x))
	}
	if out == nil {
		out = make([]float64, mmax+1)
	}
	out = out[:mmax+1]
	i := int(x*boysInvDX + 0.5)
	if uint(i) >= boysGridN {
		h := 0.5 / x
		out[0] = math.Sqrt(math.Pi / 2 * h)
		for m := 0; m < mmax; m++ {
			out[m+1] = float64(2*m+1) * h * out[m]
		}
		return out
	}
	d := x - float64(i)*boysDX
	out[mmax] = boysPoly(&boysTab[mmax][i], d)
	if mmax > 0 {
		ex := boysPoly(&boysTab[boysExp][i], d)
		for m := mmax; m > 0; m-- {
			out[m-1] = (2*x*out[m] + ex) * boysInvOdd[m]
		}
	}
	return out
}

// boysSeries is the reference implementation the table is built from (and
// that tests compare against): a convergent series at the top order with
// downward recursion, or the asymptotic upward path for large x.
func boysSeries(mmax int, x float64, out []float64) []float64 {
	if out == nil {
		out = make([]float64, mmax+1)
	}
	switch {
	case x < 1e-14:
		for m := 0; m <= mmax; m++ {
			out[m] = 1 / float64(2*m+1)
		}
	case x > 45:
		ex := math.Exp(-x)
		out[0] = 0.5 * math.Sqrt(math.Pi/x)
		for m := 0; m < mmax; m++ {
			out[m+1] = (float64(2*m+1)*out[m] - ex) / (2 * x)
		}
	default:
		// Series at the top order: F_m(x) = e^{-x} sum_k (2x)^k /
		// ((2m+1)(2m+3)...(2m+2k+1)).
		ex := math.Exp(-x)
		sum := 1.0 / float64(2*mmax+1)
		term := sum
		for k := 1; k < 400; k++ {
			term *= 2 * x / float64(2*mmax+2*k+1)
			sum += term
			if term < 1e-17*sum {
				break
			}
		}
		out[mmax] = ex * sum
		for m := mmax; m > 0; m-- {
			out[m-1] = (2*x*out[m] + ex) / float64(2*m-1)
		}
	}
	return out[:mmax+1]
}

// BoysSingle returns F_m(x).
func BoysSingle(m int, x float64) float64 {
	var buf [maxBoysM + 1]float64
	return Boys(m, x, buf[:])[m]
}
