package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func randSym(rng *rand.Rand, n int) *Matrix {
	m := randMatrix(rng, n, n)
	m.Symmetrize()
	return m
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1.0
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(4)[%d][%d] = %v, want %v", i, j, id.At(i, j), want)
			}
		}
	}
}

func TestFromRowsAndAt(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("shape = %dx%d, want 2x3", m.Rows, m.Cols)
	}
	if m.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v, want 6", m.At(1, 2))
	}
	m.Set(0, 1, -7)
	if m.At(0, 1) != -7 {
		t.Fatalf("Set/At mismatch")
	}
	m.Add(0, 1, 2)
	if m.At(0, 1) != -5 {
		t.Fatalf("Add gave %v, want -5", m.At(0, 1))
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randMatrix(rng, 3, 5)
	tt := m.T().T()
	if MaxAbsDiff(m, tt) != 0 {
		t.Fatal("double transpose is not identity")
	}
	tr := m.T()
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if tr.At(j, i) != m.At(i, j) {
				t.Fatalf("T mismatch at %d,%d", i, j)
			}
		}
	}
}

// AddTranspose is Clone + AXPY(1, T) in place, bit for bit.
func TestAddTransposeMatchesCloneAXPY(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randMatrix(rng, 7, 7)
	want := m.Clone().AXPY(1, m.T())
	got := m.AddTranspose()
	for i, v := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
			t.Fatalf("element %d: %v, want %v", i, got.Data[i], v)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliases original")
	}
}

func TestTraceAndNorms(t *testing.T) {
	m := FromRows([][]float64{{1, -2}, {3, 4}})
	if m.Trace() != 5 {
		t.Fatalf("Trace = %v, want 5", m.Trace())
	}
	if m.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v, want 4", m.MaxAbs())
	}
	want := math.Sqrt(1 + 4 + 9 + 16)
	if math.Abs(m.FrobeniusNorm()-want) > 1e-15 {
		t.Fatalf("FrobeniusNorm = %v, want %v", m.FrobeniusNorm(), want)
	}
}

func TestSymmetrize(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {4, 3}})
	if m.SymmetryError() != 2 {
		t.Fatalf("SymmetryError = %v, want 2", m.SymmetryError())
	}
	m.Symmetrize()
	if m.SymmetryError() != 0 {
		t.Fatal("Symmetrize did not symmetrize")
	}
	if m.At(0, 1) != 3 {
		t.Fatalf("symmetrized off-diagonal = %v, want 3", m.At(0, 1))
	}
}

func TestGershgorinBoundsEigenvalues(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(8)
		a := randSym(rng, n)
		lo, hi := a.Gershgorin()
		eig := EigSym(a)
		for _, lam := range eig.Values {
			if lam < lo-1e-10 || lam > hi+1e-10 {
				t.Fatalf("eigenvalue %v outside Gershgorin [%v, %v]", lam, lo, hi)
			}
		}
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := MatMul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if MaxAbsDiff(c, want) > 1e-14 {
		t.Fatalf("MatMul = %v, want %v", c, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMatrix(rng, 7, 7)
	if MaxAbsDiff(MatMul(a, Identity(7)), a) > 1e-14 {
		t.Fatal("A*I != A")
	}
	if MaxAbsDiff(MatMul(Identity(7), a), a) > 1e-14 {
		t.Fatal("I*A != A")
	}
}

func TestGEMMAccumulate(t *testing.T) {
	a := FromRows([][]float64{{1, 0}, {0, 1}})
	b := FromRows([][]float64{{2, 3}, {4, 5}})
	c := FromRows([][]float64{{1, 1}, {1, 1}})
	GEMM(2, a, b, 3, c) // c = 2*b + 3*ones
	want := FromRows([][]float64{{7, 9}, {11, 13}})
	if MaxAbsDiff(c, want) > 1e-14 {
		t.Fatalf("GEMM accumulate wrong: %v", c)
	}
}

func TestMatVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	y := MatVec(a, []float64{1, 1, 1})
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MatVec = %v", y)
	}
}

func TestTraceMulMatchesProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randMatrix(rng, 6, 4)
	b := randMatrix(rng, 4, 6)
	got := TraceMul(a, b)
	want := MatMul(a, b).Trace()
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("TraceMul = %v, want %v", got, want)
	}
}

// Property: (AB)^T == B^T A^T.
func TestQuickMatMulTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a := randMatrix(r, m, k)
		b := randMatrix(r, k, n)
		lhs := MatMul(a, b).T()
		rhs := MatMul(b.T(), a.T())
		return MaxAbsDiff(lhs, rhs) < 1e-11
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: matmul is associative.
func TestQuickMatMulAssociativity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, l, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := randMatrix(r, m, k)
		b := randMatrix(r, k, l)
		c := randMatrix(r, l, n)
		lhs := MatMul(MatMul(a, b), c)
		rhs := MatMul(a, MatMul(b, c))
		return MaxAbsDiff(lhs, rhs) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEigSymReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 10, 25} {
		a := randSym(rng, n)
		eig := EigSym(a)
		// Check A = V diag V^T.
		lam := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			lam.Set(i, i, eig.Values[i])
		}
		recon := MatMul(MatMul(eig.Vectors, lam), eig.Vectors.T())
		if MaxAbsDiff(a, recon) > 1e-10*(1+a.MaxAbs()) {
			t.Fatalf("n=%d: eigendecomposition does not reconstruct A (err=%g)", n, MaxAbsDiff(a, recon))
		}
		// Check orthonormality of V.
		vtv := MatMul(eig.Vectors.T(), eig.Vectors)
		if MaxAbsDiff(vtv, Identity(n)) > 1e-11 {
			t.Fatalf("n=%d: eigenvectors not orthonormal", n)
		}
		// Check sorted ascending.
		for i := 1; i < n; i++ {
			if eig.Values[i] < eig.Values[i-1] {
				t.Fatalf("n=%d: eigenvalues not sorted", n)
			}
		}
	}
}

func TestEigSymKnownMatrix(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	eig := EigSym(a)
	if math.Abs(eig.Values[0]-1) > 1e-12 || math.Abs(eig.Values[1]-3) > 1e-12 {
		t.Fatalf("eigenvalues = %v, want [1 3]", eig.Values)
	}
}

func TestEigSymDiagonal(t *testing.T) {
	a := NewMatrix(3, 3)
	a.Set(0, 0, 3)
	a.Set(1, 1, -1)
	a.Set(2, 2, 2)
	eig := EigSym(a)
	want := []float64{-1, 2, 3}
	for i, w := range want {
		if math.Abs(eig.Values[i]-w) > 1e-13 {
			t.Fatalf("diag eig = %v, want %v", eig.Values, want)
		}
	}
}

func TestInvSqrtSym(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 12
	// Build an SPD matrix: A = B B^T + I.
	b := randMatrix(rng, n, n)
	a := MatMul(b, b.T())
	for i := 0; i < n; i++ {
		a.Add(i, i, 1)
	}
	x := InvSqrtSym(a, 0)
	// X A X should be I.
	xax := MatMul(MatMul(x, a), x)
	if MaxAbsDiff(xax, Identity(n)) > 1e-9 {
		t.Fatalf("X*A*X != I (err %g)", MaxAbsDiff(xax, Identity(n)))
	}
}

func TestAXPYScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	x := FromRows([][]float64{{10, 20}})
	a.AXPY(0.5, x)
	if a.At(0, 0) != 6 || a.At(0, 1) != 12 {
		t.Fatalf("AXPY result %v", a)
	}
	a.Scale(2)
	if a.At(0, 0) != 12 {
		t.Fatalf("Scale result %v", a)
	}
}

func TestZeroAndCopyFrom(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := NewMatrix(2, 2)
	b.CopyFrom(a)
	if MaxAbsDiff(a, b) != 0 {
		t.Fatal("CopyFrom mismatch")
	}
	a.Zero()
	if a.MaxAbs() != 0 {
		t.Fatal("Zero did not zero")
	}
	if b.MaxAbs() == 0 {
		t.Fatal("CopyFrom aliases source")
	}
}

func TestEqual(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{1, 2.000001}})
	if !Equal(a, b, 1e-5) {
		t.Fatal("Equal should accept within tol")
	}
	if Equal(a, b, 1e-8) {
		t.Fatal("Equal should reject outside tol")
	}
	if Equal(a, NewMatrix(2, 1), 1) {
		t.Fatal("Equal should reject shape mismatch")
	}
}

func BenchmarkMatMul256(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := randMatrix(rng, 256, 256)
	y := randMatrix(rng, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkEigSym64(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	a := randSym(rng, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EigSym(a)
	}
}
