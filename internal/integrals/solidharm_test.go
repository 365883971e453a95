package integrals

import (
	"math"
	"math/rand"
	"testing"
)

// momentDot computes <p|q> for two degree-l coefficient rows in the
// relative moment metric used by selfOverlapRel.
func momentDot(l int, a, b []float64) float64 {
	comps := CartComponents(l)
	var s float64
	for i, av := range a {
		if av == 0 {
			continue
		}
		for j, bv := range b {
			if bv == 0 {
				continue
			}
			px := comps[i].X + comps[j].X
			py := comps[i].Y + comps[j].Y
			pz := comps[i].Z + comps[j].Z
			if px%2 == 1 || py%2 == 1 || pz%2 == 1 {
				continue
			}
			s += av * bv * oddFactorial(px-1) * oddFactorial(py-1) * oddFactorial(pz-1)
		}
	}
	return s
}

// Generated solid harmonics must be mutually orthogonal with equal norms
// (the reference-component norm), for every supported l.
func TestSolidHarmonicsOrthogonalEqualNorm(t *testing.T) {
	for l := 2; l <= 5; l++ {
		m := generatedSphMatrix(l)
		if len(m) != 2*l+1 {
			t.Fatalf("l=%d: %d rows", l, len(m))
		}
		target := oddFactorial(2*((l+1)/2)-1) * oddFactorial(2*(l/2)-1)
		for i := range m {
			for j := range m {
				dot := momentDot(l, m[i], m[j])
				want := 0.0
				if i == j {
					want = target
				}
				if math.Abs(dot-want) > 1e-10*(1+target) {
					t.Fatalf("l=%d: <%d|%d> = %g, want %g", l, i, j, dot, want)
				}
			}
		}
	}
}

// The generated l=2 matrix must reproduce the hand-written d transform.
func TestGeneratedDMatchesHandWritten(t *testing.T) {
	gen := generatedSphMatrix(2)
	hand := sphMatrix(2)
	for i := range hand {
		for j := range hand[i] {
			if math.Abs(gen[i][j]-hand[i][j]) > 1e-12 {
				t.Fatalf("d transform row %d col %d: generated %g vs hand %g",
					i, j, gen[i][j], hand[i][j])
			}
		}
	}
}

// Spot-check known f-orbital shapes: the m=0 row must be proportional to
// 2z^3 - 3x^2 z - 3y^2 z and the m=-3 row to 3x^2 y - y^3.
func TestSolidHarmonicsFShapes(t *testing.T) {
	m := generatedSphMatrix(3)
	comps := CartComponents(3)
	idx := func(x, y, z int) int { return monomialIndex(3, Cart{x, y, z}) }
	// m = 0 is row 3 in the -l..l ordering.
	row := m[3]
	ratioZZZ := row[idx(0, 0, 3)]
	if ratioZZZ == 0 {
		t.Fatal("f m=0 has no z^3 term")
	}
	if math.Abs(row[idx(2, 0, 1)]/ratioZZZ-(-1.5)) > 1e-12 ||
		math.Abs(row[idx(0, 2, 1)]/ratioZZZ-(-1.5)) > 1e-12 {
		t.Fatalf("f m=0 shape wrong: %v", row)
	}
	for i, c := range comps {
		if c.Z != 3 && c != (Cart{2, 0, 1}) && c != (Cart{0, 2, 1}) && row[i] != 0 {
			t.Fatalf("f m=0 has spurious term %v", c)
		}
	}
	// m = -3 is row 0: 3x^2 y - y^3 (proportional).
	row = m[0]
	if row[idx(2, 1, 0)] == 0 || math.Abs(row[idx(0, 3, 0)]/row[idx(2, 1, 0)]-(-1.0/3)) > 1e-12 {
		t.Fatalf("f m=-3 shape wrong: %v", row)
	}
}

// The MD engine with f functions must agree with the Obara-Saika oracle.
func TestMDAgainstObaraSaikaFShells(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	e := NewEngine()
	cases := [][4]int{
		{3, 0, 0, 0}, {3, 1, 0, 0}, {3, 2, 1, 0}, {2, 2, 3, 0}, {3, 3, 1, 1}, {3, 0, 3, 0},
	}
	for _, ls := range cases {
		a := randShell(rng, ls[0])
		b := randShell(rng, ls[1])
		c := randShell(rng, ls[2])
		d := randShell(rng, ls[3])
		md := e.ERICart(e.Pair(a, b), e.Pair(c, d))
		os := ERICartOS(a, b, c, d)
		var scale float64
		for _, v := range os {
			if m := math.Abs(v); m > scale {
				scale = m
			}
		}
		for i := range md {
			if math.Abs(md[i]-os[i]) > 1e-9*(1+scale) {
				t.Fatalf("L=%v elem %d: MD %.14g vs OS %.14g", ls, i, md[i], os[i])
			}
		}
	}
}

// Spherical f batches have 7 components per f index.
func TestFSphericalBatchSize(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	e := NewEngine()
	f := randShell(rng, 3)
	s := randShell(rng, 0)
	batch := e.ERI(e.Pair(f, s), e.Pair(s, s))
	if len(batch) != 7 {
		t.Fatalf("f batch length %d, want 7", len(batch))
	}
}

func TestPolyHelpers(t *testing.T) {
	p := newPoly(0)
	p.c[0] = 2
	q := p.mulMono(1, 1, 0) // 2xy
	if q.l != 2 || q.c[monomialIndex(2, Cart{1, 1, 0})] != 2 {
		t.Fatal("mulMono")
	}
	r2 := p.mulR2() // 2x^2 + 2y^2 + 2z^2
	sum := 0.0
	for _, v := range r2.c {
		sum += v
	}
	if r2.l != 2 || sum != 6 {
		t.Fatalf("mulR2: %v", r2.c)
	}
	// <xy|xy> = 1 in the relative metric.
	xy := newPoly(2)
	xy.c[monomialIndex(2, Cart{1, 1, 0})] = 1
	if math.Abs(xy.selfOverlapRel()-1) > 1e-15 {
		t.Fatal("selfOverlapRel(xy)")
	}
	// <x^2|x^2> = 3.
	xx := newPoly(2)
	xx.c[monomialIndex(2, Cart{2, 0, 0})] = 1
	if math.Abs(xx.selfOverlapRel()-3) > 1e-15 {
		t.Fatal("selfOverlapRel(x^2)")
	}
}

// The straight-line d transform gives the matrix path's values: == on
// random slabs (so a -0 the matrix path turns into +0 compares equal),
// with exact zeros among the inputs and every slab width the transform
// layer uses, from one trailing value up.
func TestSphTransformDMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, rest := range []int{1, 2, 3, 5, 6, 9, 15, 25, 36, 75} {
		for trial := 0; trial < 20; trial++ {
			src := make([]float64, 6*rest)
			for i := range src {
				switch rng.Intn(8) {
				case 0:
					src[i] = 0
				case 1:
					src[i] = math.Copysign(0, -1)
				default:
					src[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
				}
			}
			got, want := make([]float64, 5*rest), make([]float64, 5*rest)
			for i := range got {
				got[i], want[i] = math.NaN(), math.NaN()
			}
			sphTransformD(src, got, rest)
			sphTransformMatrix(2, src, want, rest)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("rest %d trial %d: spherical [%d][%d] = %v, matrix %v", rest, trial, i/rest, i%rest, got[i], want[i])
				}
			}
		}
	}
}
