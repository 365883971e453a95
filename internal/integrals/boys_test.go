package integrals

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// boysQuad evaluates F_m(x) by composite Gauss-Legendre quadrature on
// [0,1]: an independent (slow, accurate) reference.
func boysQuad(m int, x float64) float64 {
	// 5-point Gauss-Legendre nodes/weights on [-1,1].
	nodes := []float64{-0.9061798459386640, -0.5384693101056831, 0,
		0.5384693101056831, 0.9061798459386640}
	weights := []float64{0.2369268850561891, 0.4786286704993665,
		0.5688888888888889, 0.4786286704993665, 0.2369268850561891}
	const panels = 200
	h := 1.0 / panels
	var sum float64
	for p := 0; p < panels; p++ {
		a := float64(p) * h
		for i, t := range nodes {
			u := a + h/2*(t+1)
			sum += weights[i] * h / 2 * math.Pow(u, float64(2*m)) * math.Exp(-x*u*u)
		}
	}
	return sum
}

func TestBoysAgainstQuadrature(t *testing.T) {
	for _, m := range []int{0, 1, 2, 5, 8, 12} {
		for _, x := range []float64{0, 1e-8, 0.1, 0.5, 1, 3.3, 10, 25, 34.9, 35.1, 50, 200} {
			got := BoysSingle(m, x)
			want := boysQuad(m, x)
			tol := 1e-12 * (1 + want)
			if math.Abs(got-want) > tol {
				t.Errorf("F_%d(%g) = %.15g, quadrature %.15g", m, x, got, want)
			}
		}
	}
}

func TestBoysSmallXLimit(t *testing.T) {
	out := Boys(6, 0, nil)
	for m := 0; m <= 6; m++ {
		want := 1 / float64(2*m+1)
		if math.Abs(out[m]-want) > 1e-15 {
			t.Fatalf("F_%d(0) = %v, want %v", m, out[m], want)
		}
	}
}

func TestBoysRecursionIdentity(t *testing.T) {
	// (2m+1) F_m(x) = 2x F_{m+1}(x) + e^{-x}, also at interval midpoints
	// (worst truncation) and on both sides of the crossover.
	xs := []float64{0.2, 2, 17, 40, 90, boysDX / 2, 3 + boysDX/2, 17.5 + boysDX/2,
		boysXMax - boysDX/2, math.Nextafter(boysXMax, 0), boysXMax}
	for _, x := range xs {
		out := Boys(10, x, nil)
		ex := math.Exp(-x)
		for m := 0; m < 10; m++ {
			lhs := float64(2*m+1) * out[m]
			rhs := 2*x*out[m+1] + ex
			if math.Abs(lhs-rhs) > 1e-13*(1+math.Abs(lhs)) {
				t.Fatalf("recursion broken at m=%d x=%g: %v vs %v", m, x, lhs, rhs)
			}
		}
	}
}

func TestBoysMonotoneDecreasingInM(t *testing.T) {
	for _, x := range []float64{0, 1, 10, 60} {
		out := Boys(8, x, nil)
		for m := 1; m <= 8; m++ {
			if out[m] > out[m-1] {
				t.Fatalf("F_%d(%g) > F_%d(%g)", m, x, m-1, x)
			}
			if out[m] < 0 {
				t.Fatalf("F_%d(%g) negative", m, x)
			}
		}
	}
}

// boysSweepPoints lists, for every table interval, its grid point, both
// edges (the worst-case offsets |d| = boysDX/2) one ulp to either side,
// and a generic interior point; then the crossover one ulp to either side
// and the asymptotic range out to 200.
func boysSweepPoints() []float64 {
	var xs []float64
	around := func(x float64) {
		xs = append(xs, math.Nextafter(x, 0), x, math.Nextafter(x, math.Inf(1)))
	}
	for i := 0; i < boysGridN; i++ {
		x := float64(i) * boysDX
		xs = append(xs, x, x+0.3*boysDX)
		around(x + boysDX/2)
	}
	around(boysXMax)
	for x := boysXMax; x < 200; x *= 1.01 {
		xs = append(xs, x)
	}
	return append(xs, 44.9, 45.1, 200)
}

// Every order as its own call (the hot kernels ask for 0..8 directly, not
// through a recursion from 24) must reproduce the series reference to a
// relative bound over the whole domain.
func TestBoysTableAgainstSeries(t *testing.T) {
	var got, want [maxBoysM + 1]float64
	worst := 0.0
	for _, x := range boysSweepPoints() {
		for mmax := 0; mmax <= maxBoysM; mmax++ {
			Boys(mmax, x, got[:])
			boysSeries(mmax, x, want[:])
			for m := 0; m <= mmax; m++ {
				err := math.Abs(got[m] - want[m])
				if err > 1e-14*want[m]+1e-17 {
					t.Fatalf("Boys(%d, %.17g)[%d] = %.17g, series %.17g (rel %.2g)",
						mmax, x, m, got[m], want[m], err/want[m])
				}
				if r := (err - 1e-17) / want[m]; r > worst {
					worst = r
				}
			}
		}
	}
	t.Logf("worst relative error beyond 1e-17 absolute: %.2g", worst)
}

// A call must touch two cache lines: rows are 64 bytes, 64-byte aligned.
func TestBoysRowsAreCacheLines(t *testing.T) {
	if a := uintptr(unsafe.Pointer(boysTab)); a%64 != 0 || unsafe.Sizeof(boysTab[0][0]) != 64 {
		t.Fatalf("boysTab at %#x, row size %d", a, unsafe.Sizeof(boysTab[0][0]))
	}
	if n := unsafe.Sizeof(*boysTab); n > 500_000 {
		t.Fatalf("boysTab is %d bytes, budget 0.5 MB", n)
	}
}

// Boys rejects what it cannot serve, naming the argument.
func TestBoysRejectsBadArguments(t *testing.T) {
	for _, tc := range []struct {
		arg  string // the argument the message must name
		call func()
	}{
		{"mmax", func() { Boys(maxBoysM+1, 1, nil) }},
		{"mmax", func() { Boys(-1, 1, nil) }},
		{"len(out)", func() { Boys(4, 1, make([]float64, 4)) }},
		{"x =", func() { Boys(2, -1e-300, nil) }},
		{"x =", func() { Boys(2, math.NaN(), nil) }},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "Boys: "+tc.arg) {
					t.Errorf("want a panic naming %q, recovered %q", tc.arg, msg)
				}
			}()
			tc.call()
		}()
	}
	if got := Boys(3, math.Copysign(0, -1), nil); got[0] != 1 || got[3] != 1.0/7 {
		t.Errorf("Boys(3, -0) = %v", got)
	}
	for _, v := range Boys(maxBoysM, math.MaxFloat64, nil) {
		if !(v >= 0 && v < 1e-150) {
			t.Errorf("Boys(24, MaxFloat64) holds %g", v)
		}
	}
}

func TestBoysF0LargeX(t *testing.T) {
	// F_0(x) -> sqrt(pi/x)/2 as x -> inf.
	x := 500.0
	want := 0.5 * math.Sqrt(math.Pi/x)
	if math.Abs(BoysSingle(0, x)-want) > 1e-15 {
		t.Fatal("large-x asymptote")
	}
}

// benchBoys times Boys(mmax, x) over x uniform in [lo, hi).
func benchBoys(b *testing.B, mmax int, lo, hi float64) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = lo + (hi-lo)*rng.Float64()
	}
	var out [maxBoysM + 1]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Boys(mmax, xs[i%len(xs)], out[:])
	}
}

func BenchmarkBoys0(b *testing.B)   { benchBoys(b, 0, 0, 30) }
func BenchmarkBoys1(b *testing.B)   { benchBoys(b, 1, 0, 30) }
func BenchmarkBoys2(b *testing.B)   { benchBoys(b, 2, 0, 30) }
func BenchmarkBoys4(b *testing.B)   { benchBoys(b, 4, 0, 30) }
func BenchmarkBoys8(b *testing.B)   { benchBoys(b, 8, 0, 30) }
func BenchmarkBoys24(b *testing.B)  { benchBoys(b, 24, 0, 30) }
func BenchmarkBoysFar(b *testing.B) { benchBoys(b, 4, 36.5, 200) }
