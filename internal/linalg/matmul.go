package linalg

// MatMul returns a*b using a cache-blocked serial kernel.
func MatMul(a, b *Matrix) *Matrix {
	c := NewMatrix(a.Rows, b.Cols)
	GEMM(1, a, b, 0, c)
	return c
}

// GEMM computes c = alpha*a*b + beta*c with an ikj loop order (streams
// rows of b, vector-friendly inner loop). Shapes must conform; c must not
// alias a or b.
func GEMM(alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic("linalg: GEMM shape mismatch")
	}
	n, k := c.Cols, a.Cols
	for i := 0; i < a.Rows; i++ {
		ci := c.Data[i*n : (i+1)*n]
		if beta == 0 {
			for j := range ci {
				ci[j] = 0
			}
		} else if beta != 1 {
			for j := range ci {
				ci[j] *= beta
			}
		}
		ai := a.Data[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			av := alpha * ai[p]
			if av == 0 {
				continue
			}
			bp := b.Data[p*n : (p+1)*n]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
}

// MatVec returns a*x for a vector x (len a.Cols).
func MatVec(a *Matrix, x []float64) []float64 {
	if a.Cols != len(x) {
		panic("linalg: MatVec shape mismatch")
	}
	y := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// TraceMul returns trace(a*b) without forming the product.
func TraceMul(a, b *Matrix) float64 {
	if a.Cols != b.Rows || a.Rows != b.Cols {
		panic("linalg: TraceMul shape mismatch")
	}
	var t float64
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		for p, av := range arow {
			t += av * b.Data[p*b.Cols+i]
		}
	}
	return t
}
