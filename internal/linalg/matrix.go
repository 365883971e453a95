// Package linalg provides the dense linear algebra kernels used by the
// Fock-build and SCF code: a row-major dense matrix type, a cyclic Jacobi
// symmetric eigensolver, blocked (optionally parallel) matrix multiply,
// and the small helpers (trace, norms, Gershgorin bounds, S^{-1/2})
// required by Hartree-Fock and density purification.
//
// The package is deliberately self-contained (stdlib only); it plays the
// role MKL played in the paper's experimental setup.
package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero-initialized Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add adds v to element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets every element of m to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// CopyFrom copies the contents of src (same shape) into m.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("linalg: CopyFrom shape mismatch")
	}
	copy(m.Data, src.Data)
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix { return m.TInto(NewMatrix(m.Cols, m.Rows)) }

// TInto writes the transpose of m into dst (m.Cols x m.Rows, not m) and
// returns dst: T into a matrix the caller owns.
func (m *Matrix) TInto(dst *Matrix) *Matrix {
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		panic("linalg: TInto shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			dst.Data[j*dst.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return dst
}

// AddTranspose replaces the square m with m + m^T in place and returns
// m. Each element is the sum m.Clone().AXPY(1, m.T()) gives, bit for bit:
// a + b and b + a are the same double.
func (m *Matrix) AddTranspose() *Matrix {
	if m.Rows != m.Cols {
		panic("linalg: AddTranspose of non-square matrix")
	}
	n := m.Rows
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := m.Data[i*n+j] + m.Data[j*n+i]
			m.Data[i*n+j], m.Data[j*n+i] = v, v
		}
	}
	return m
}

// Scale multiplies every element of m by a, in place, and returns m.
func (m *Matrix) Scale(a float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= a
	}
	return m
}

// AXPY performs m += a*x elementwise (x must have the same shape).
func (m *Matrix) AXPY(a float64, x *Matrix) *Matrix {
	if m.Rows != x.Rows || m.Cols != x.Cols {
		panic("linalg: AXPY shape mismatch")
	}
	for i, v := range x.Data {
		m.Data[i] += a * v
	}
	return m
}

// Trace returns the sum of diagonal elements (square matrices only).
func (m *Matrix) Trace() float64 {
	if m.Rows != m.Cols {
		panic("linalg: Trace of non-square matrix")
	}
	var t float64
	for i := 0; i < m.Rows; i++ {
		t += m.Data[i*m.Cols+i]
	}
	return t
}

// MaxAbs returns max_ij |m_ij| (0 for an empty matrix).
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// MaxAbsDiff returns max_ij |a_ij - b_ij|.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("linalg: MaxAbsDiff shape mismatch")
	}
	var mx float64
	for i, v := range a.Data {
		if d := math.Abs(v - b.Data[i]); d > mx {
			mx = d
		}
	}
	return mx
}

// FrobeniusNorm returns sqrt(sum m_ij^2).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// SymmetryError returns max_ij |m_ij - m_ji| for a square matrix.
func (m *Matrix) SymmetryError() float64 {
	if m.Rows != m.Cols {
		panic("linalg: SymmetryError of non-square matrix")
	}
	var mx float64
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if d := math.Abs(m.At(i, j) - m.At(j, i)); d > mx {
				mx = d
			}
		}
	}
	return mx
}

// Symmetrize replaces m with (m + m^T)/2 in place.
func (m *Matrix) Symmetrize() {
	if m.Rows != m.Cols {
		panic("linalg: Symmetrize of non-square matrix")
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			v := 0.5 * (m.At(i, j) + m.At(j, i))
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
}

// Gershgorin returns lower and upper bounds on the eigenvalue spectrum of a
// square matrix using Gershgorin discs. Purification uses these to map the
// spectrum into [0, 1] without an eigensolve.
func (m *Matrix) Gershgorin() (lo, hi float64) {
	if m.Rows != m.Cols {
		panic("linalg: Gershgorin of non-square matrix")
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := 0; i < m.Rows; i++ {
		var r float64
		for j := 0; j < m.Cols; j++ {
			if j != i {
				r += math.Abs(m.At(i, j))
			}
		}
		d := m.At(i, i)
		if d-r < lo {
			lo = d - r
		}
		if d+r > hi {
			hi = d + r
		}
	}
	if m.Rows == 0 {
		return 0, 0
	}
	return lo, hi
}

// String renders a small matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Matrix %dx%d\n", m.Rows, m.Cols)
	for i := 0; i < m.Rows && i < 12; i++ {
		for j := 0; j < m.Cols && j < 12; j++ {
			fmt.Fprintf(&b, "% 12.6f ", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Equal reports whether a and b have the same shape and elements within tol.
func Equal(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	return MaxAbsDiff(a, b) <= tol
}
