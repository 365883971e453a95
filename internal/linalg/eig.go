package linalg

import (
	"math"
	"sort"
)

// EigResult holds the eigendecomposition A = V diag(Values) V^T of a real
// symmetric matrix. Eigenvalues are sorted in ascending order; column j of
// Vectors is the eigenvector for Values[j].
type EigResult struct {
	Values  []float64
	Vectors *Matrix
}

// EigSym computes the full eigendecomposition of the real symmetric
// matrix a (A = V diag V^T); the input is not modified. It plays the role
// of LAPACK's dsyev in the paper's software stack: Householder
// tridiagonalization + implicit QL for anything beyond trivial sizes,
// with the unconditionally convergent Jacobi method as oracle/fallback.
func EigSym(a *Matrix) EigResult {
	if a.Rows <= 8 {
		return EigSymJacobi(a)
	}
	return EigSymTridiag(a)
}

// EigSymJacobi computes the eigendecomposition with the cyclic Jacobi
// method: slower (O(n^3) per sweep) but unconditionally stable, used as
// an independent cross-check of EigSymTridiag and for tiny matrices.
func EigSymJacobi(a *Matrix) EigResult {
	if a.Rows != a.Cols {
		panic("linalg: EigSym of non-square matrix")
	}
	n := a.Rows
	w := a.Clone()
	v := Identity(n)
	if n <= 1 {
		vals := make([]float64, n)
		if n == 1 {
			vals[0] = w.At(0, 0)
		}
		return EigResult{Values: vals, Vectors: v}
	}

	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(w)
		if off <= 1e-14*(1+w.MaxAbs()) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				jacobiRotate(w, v, p, q)
			}
		}
	}

	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	// Sort eigenpairs ascending.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return vals[idx[i]] < vals[idx[j]] })
	sortedVals := make([]float64, n)
	sortedVecs := NewMatrix(n, n)
	for newj, oldj := range idx {
		sortedVals[newj] = vals[oldj]
		for i := 0; i < n; i++ {
			sortedVecs.Set(i, newj, v.At(i, oldj))
		}
	}
	return EigResult{Values: sortedVals, Vectors: sortedVecs}
}

// offDiagNorm returns sqrt(sum of squares of off-diagonal elements).
func offDiagNorm(a *Matrix) float64 {
	var s float64
	n := a.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := a.At(i, j)
			s += 2 * v * v
		}
	}
	return math.Sqrt(s)
}

// jacobiRotate applies one Jacobi rotation zeroing w[p][q], accumulating
// the rotation into v.
func jacobiRotate(w, v *Matrix, p, q int) {
	apq := w.At(p, q)
	if apq == 0 {
		return
	}
	app, aqq := w.At(p, p), w.At(q, q)
	theta := (aqq - app) / (2 * apq)
	var t float64
	if theta >= 0 {
		t = 1 / (theta + math.Sqrt(1+theta*theta))
	} else {
		t = -1 / (-theta + math.Sqrt(1+theta*theta))
	}
	c := 1 / math.Sqrt(1+t*t)
	s := t * c
	n := w.Rows

	// Update rows/columns p and q of w (symmetric update).
	for i := 0; i < n; i++ {
		if i == p || i == q {
			continue
		}
		aip, aiq := w.At(i, p), w.At(i, q)
		w.Set(i, p, c*aip-s*aiq)
		w.Set(p, i, c*aip-s*aiq)
		w.Set(i, q, s*aip+c*aiq)
		w.Set(q, i, s*aip+c*aiq)
	}
	w.Set(p, p, app-t*apq)
	w.Set(q, q, aqq+t*apq)
	w.Set(p, q, 0)
	w.Set(q, p, 0)

	// Accumulate rotation into eigenvector matrix.
	for i := 0; i < n; i++ {
		vip, viq := v.At(i, p), v.At(i, q)
		v.Set(i, p, c*vip-s*viq)
		v.Set(i, q, s*vip+c*viq)
	}
}

// InvSqrtSym returns s^{-1/2} for a symmetric positive definite matrix s
// (the basis orthogonalization matrix X of Algorithm 1, line 4). Eigenvalues
// below dropTol are treated as linear dependencies and their directions are
// projected out (canonical orthogonalization); pass 0 for the default 1e-10.
func InvSqrtSym(s *Matrix, dropTol float64) *Matrix {
	if dropTol <= 0 {
		dropTol = 1e-10
	}
	eig := EigSym(s)
	n := s.Rows
	// X = U diag(1/sqrt(lambda)) U^T
	scaled := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		lam := eig.Values[j]
		var f float64
		if lam > dropTol {
			f = 1 / math.Sqrt(lam)
		}
		for i := 0; i < n; i++ {
			scaled.Set(i, j, eig.Vectors.At(i, j)*f)
		}
	}
	return MatMul(scaled, eig.Vectors.T())
}
