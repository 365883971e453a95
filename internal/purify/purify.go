// Package purify implements the diagonalization-free density matrix
// computation used in the paper's Sec. IV-E: canonical (trace-conserving)
// purification [28] with the distributed matrix multiplications performed
// by the SUMMA algorithm [29] over the same 2D-blocked process grid as the
// Fock matrix — "the distribution of F and D is exactly the distribution
// needed for the SUMMA algorithm".
package purify

import (
	"fmt"
	"math"

	"gtfock/internal/dist"
	"gtfock/internal/linalg"
)

// DefaultTol is the idempotency tolerance Tr(rho - rho^2) < tol.
const DefaultTol = 1e-10

// InitialGuess returns the trace-correct linear map of the effective
// Hamiltonian h (in an orthogonal basis) onto [0, 1]:
//
//	rho_0 = lambda*(mu*I - h) + (nocc/n)*I,
//
// with mu = tr(h)/n and lambda chosen from Gershgorin spectral bounds so
// that the spectrum of rho_0 lies in [0, 1] and tr(rho_0) = nocc.
func InitialGuess(h *linalg.Matrix, nocc int) *linalg.Matrix {
	n := h.Rows
	hmin, hmax := h.Gershgorin()
	mu := h.Trace() / float64(n)
	q := float64(nocc) / float64(n)
	lambda := math.Inf(1)
	if hmax > mu {
		lambda = q / (hmax - mu)
	}
	if mu > hmin {
		if l2 := (1 - q) / (mu - hmin); l2 < lambda {
			lambda = l2
		}
	}
	if math.IsInf(lambda, 1) {
		lambda = 0 // h is a multiple of I
	}
	rho := h.Clone().Scale(-lambda)
	for i := 0; i < n; i++ {
		rho.Add(i, i, lambda*mu+q)
	}
	return rho
}

// Multiplier abstracts the matrix product used by the purification loop so
// the same iteration runs serially or over a distributed SUMMA grid.
type Multiplier interface {
	MatMul(a, b *linalg.Matrix) *linalg.Matrix
}

// serialMul is the plain single-process multiplier.
type serialMul struct{}

func (serialMul) MatMul(a, b *linalg.Matrix) *linalg.Matrix { return linalg.MatMul(a, b) }

// Canonical runs canonical purification on the effective Hamiltonian h (in
// an orthogonal basis) for nocc occupied orbitals, returning the
// idempotent density rho (tr = nocc), the iteration count, and an error if
// the loop fails to converge. Pass mul=nil for serial execution.
func Canonical(h *linalg.Matrix, nocc int, tol float64, maxIter int, mul Multiplier) (*linalg.Matrix, int, error) {
	if tol <= 0 {
		tol = DefaultTol
	}
	if maxIter <= 0 {
		maxIter = 200
	}
	if mul == nil {
		mul = serialMul{}
	}
	if nocc < 0 || nocc > h.Rows {
		return nil, 0, fmt.Errorf("purify: nocc=%d out of range for n=%d", nocc, h.Rows)
	}
	rho := InitialGuess(h, nocc)
	for it := 1; it <= maxIter; it++ {
		rho2 := mul.MatMul(rho, rho)
		rho3 := mul.MatMul(rho2, rho)
		trRho := rho.Trace()
		tr2 := rho2.Trace()
		tr3 := rho3.Trace()
		denomTr := trRho - tr2 // tr(rho - rho^2) >= 0
		if math.Abs(denomTr) < tol {
			return rho, it, nil
		}
		cn := (tr2 - tr3) / denomTr
		next := linalg.NewMatrix(rho.Rows, rho.Cols)
		if cn >= 0.5 {
			// rho <- ((1+cn) rho^2 - rho^3) / cn
			next.AXPY((1+cn)/cn, rho2)
			next.AXPY(-1/cn, rho3)
		} else {
			// rho <- ((1-2cn) rho + (1+cn) rho^2 - rho^3) / (1-cn)
			next.AXPY((1-2*cn)/(1-cn), rho)
			next.AXPY((1+cn)/(1-cn), rho2)
			next.AXPY(-1/(1-cn), rho3)
		}
		rho = next
	}
	return rho, maxIter, fmt.Errorf("purify: no convergence in %d iterations", maxIter)
}

// SUMMAMul is a Multiplier that executes every product with the SUMMA
// algorithm over a prow x pcol goroutine process grid of dist
// GlobalArrays, accounting communication into Stats.
type SUMMAMul struct {
	Prow, Pcol int
	Stats      *dist.RunStats
	// Iterations counts the matrix multiplications performed.
	Products int
}

// NewSUMMAMul creates a SUMMA multiplier on a prow x pcol grid.
func NewSUMMAMul(prow, pcol int) *SUMMAMul {
	if prow <= 0 {
		prow = 1
	}
	if pcol <= 0 {
		pcol = 1
	}
	return &SUMMAMul{Prow: prow, Pcol: pcol, Stats: dist.NewRunStats(prow * pcol)}
}

// MatMul computes a*b with SUMMA: process (i,j) owns block C_ij and
// accumulates sum_k A_ik * B_kj, fetching the A panel from its grid row
// and the B panel from its grid column for every k step.
func (s *SUMMAMul) MatMul(a, b *linalg.Matrix) *linalg.Matrix {
	if a.Cols != b.Rows {
		panic("purify: SUMMA shape mismatch")
	}
	s.Products++
	grid := dist.NewGrid2D(s.Prow, s.Pcol,
		dist.UniformCuts(a.Rows, s.Prow), dist.UniformCuts(b.Cols, s.Pcol))
	gaA := dist.NewGlobalArray(dist.NewGrid2D(s.Prow, s.Pcol,
		dist.UniformCuts(a.Rows, s.Prow), dist.UniformCuts(a.Cols, s.Pcol)), s.Stats)
	// Both grids are cut from the operands' own shapes, so the in-process
	// loads (and the gather below) cannot fail.
	_ = gaA.LoadMatrix(a)
	gaB := dist.NewGlobalArray(dist.NewGrid2D(s.Prow, s.Pcol,
		dist.UniformCuts(b.Rows, s.Prow), dist.UniformCuts(b.Cols, s.Pcol)), s.Stats)
	_ = gaB.LoadMatrix(b)
	gaC := dist.NewGlobalArray(grid, s.Stats)

	// k panels along the contraction dimension, one per grid column.
	nk := s.Pcol
	if s.Prow > nk {
		nk = s.Prow
	}
	panelCuts := dist.UniformCuts(a.Cols, nk)

	dist.RunProcs(s.Prow*s.Pcol, func(rank int) {
		i, j := grid.Coords(rank)
		r0, r1 := grid.RowCuts[i], grid.RowCuts[i+1]
		c0, c1 := grid.ColCuts[j], grid.ColCuts[j+1]
		if r0 >= r1 || c0 >= c1 {
			return
		}
		rows, cols := r1-r0, c1-c0
		cLocal := make([]float64, rows*cols)
		for k := 0; k < nk; k++ {
			k0, k1 := panelCuts[k], panelCuts[k+1]
			if k0 >= k1 {
				continue
			}
			kw := k1 - k0
			aPanel := make([]float64, rows*kw)
			bPanel := make([]float64, kw*cols)
			gaA.Get(rank, r0, r1, k0, k1, aPanel, kw)
			gaB.Get(rank, k0, k1, c0, c1, bPanel, cols)
			// cLocal += aPanel * bPanel
			for r := 0; r < rows; r++ {
				for kk := 0; kk < kw; kk++ {
					av := aPanel[r*kw+kk]
					if av == 0 {
						continue
					}
					brow := bPanel[kk*cols : (kk+1)*cols]
					crow := cLocal[r*cols : (r+1)*cols]
					for c, bv := range brow {
						crow[c] += av * bv
					}
				}
			}
		}
		gaC.Put(rank, r0, r1, c0, c1, cLocal, cols)
	})
	c, _ := gaC.ToMatrix()
	return c
}

// SimulatedTime models the virtual time of `products` SUMMA products of
// n x n matrices plus trace work, on `nodes` nodes (Sec. IV-E / Table IX):
// per product each process computes 2n^3/p flops at the machine's
// realized dense rate, transfers 2 n^2/sqrt(p) elements in 2*sqrt(p)
// panel fetches, and pays a synchronization overhead per panel step.
func SimulatedTime(n, nodes, products int, cfg dist.Config) float64 {
	p := float64(nodes)
	eff := cfg.DenseEfficiency
	if eff <= 0 {
		eff = 1
	}
	flops := 2 * math.Pow(float64(n), 3) / p
	rate := cfg.GFlopsPerNode * 1e9 * eff
	comp := flops / rate
	sq := math.Sqrt(p)
	bytes := int64(2 * float64(n) * float64(n) / sq * 8)
	comm := cfg.CommTime(int64(2*sq), bytes)
	sync := sq * cfg.SummaStepOverheadSec
	return float64(products) * (comp + comm + sync)
}
