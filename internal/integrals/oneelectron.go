package integrals

import (
	"math"
	"runtime"
	"sync"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/linalg"
)

// Overlap returns the overlap matrix S over the basis (spherical functions).
func Overlap(bs *basis.Set) *linalg.Matrix {
	return oneElectron(bs, (*oe1Worker).overlap)
}

// CoreHamiltonian returns H_core = T + V: the kinetic energy
// <i| -1/2 nabla^2 |j> plus the attraction <i| sum_C -Z_C/|r-R_C| |j> to
// the nuclei of the molecule the basis was built on. T and V of a shell
// pair are summed in its Cartesian block, in one pass over shell pairs.
func CoreHamiltonian(bs *basis.Set) *linalg.Matrix {
	return oneElectron(bs, (*oe1Worker).core)
}

// oe1Worker is one goroutine's one-electron state: the primitive-pair data
// of the shell pair in hand (see load) and every scratch buffer a block
// needs. Buffers grow to the largest pair seen and never shrink, so a
// warmed worker fills a block without allocating.
type oe1Worker struct {
	mol  *chem.Molecule
	a, b *basis.Shell
	// E-table strides: j runs to lb+2 because the kinetic term reads
	// E(i, j+2); esz is one dimension's table.
	jdim, tdim, esz int
	prims           []oe1Prim
	etab            []float64 // x, y, z tables of prims[k] at [3*esz*k, 3*esz*(k+1))

	boys       [maxBoysM + 1]float64
	raux, rsum []float64 // R-table scratch; rsum sums the nuclei's R tables
	cart       []float64
	sphScr     [2][]float64
}

type oe1Prim struct {
	p, bexp float64
	P       chem.Vec3
	sqp     float64 // sqrt(pi/p), the 1D overlap factor
	cck     float64 // c_a c_b exp(-mu |AB|^2)
}

// load makes (a, b) the worker's shell pair: per primitive pair its
// exponent data and x, y and z E tables, which S, T and V all read.
func (w *oe1Worker) load(a, b *basis.Shell) {
	w.a, w.b = a, b
	la, lb := a.L, b.L
	w.jdim, w.tdim = lb+3, la+lb+3
	w.esz = (la + 1) * w.jdim * w.tdim
	np := len(a.Exps) * len(b.Exps)
	w.prims = grow(&w.prims, np)
	w.etab = grow(&w.etab, 3*w.esz*np)
	ab2 := a.Center.Sub(b.Center).Norm2()
	k := 0
	for i, ea := range a.Exps {
		for j, eb := range b.Exps {
			p := ea + eb
			P := a.Center.Scale(ea / p).Add(b.Center.Scale(eb / p))
			w.prims[k] = oe1Prim{
				p: p, bexp: eb, P: P,
				sqp: math.Sqrt(math.Pi / p),
				cck: a.Coefs[i] * b.Coefs[j] * math.Exp(-ea*eb/p*ab2),
			}
			pa := P.Sub(a.Center)
			pb := P.Sub(b.Center)
			paD := [3]float64{pa.X, pa.Y, pa.Z}
			pbD := [3]float64{pb.X, pb.Y, pb.Z}
			et := w.etab[3*w.esz*k : 3*w.esz*(k+1)]
			for d := 0; d < 3; d++ {
				eTable(la, lb+2, 1/(2*p), paD[d], pbD[d], et[d*w.esz:(d+1)*w.esz], w.jdim, w.tdim)
			}
			k++
		}
	}
}

// eTables returns the x, y and z E tables of primitive pair k.
func (w *oe1Worker) eTables(k int) (ex, ey, ez []float64) {
	t := w.etab[3*w.esz*k : 3*w.esz*(k+1)]
	return t[:w.esz], t[w.esz : 2*w.esz], t[2*w.esz:]
}

// overlap returns the spherical overlap block of shells a and b, in
// worker scratch valid until the next call.
func (w *oe1Worker) overlap(a, b *basis.Shell) []float64 {
	w.load(a, b)
	ca, cb := CartComponents(a.L), CartComponents(b.L)
	cart := w.zeroCart(len(ca) * len(cb))
	for k := range w.prims {
		pr := &w.prims[k]
		ex, ey, ez := w.eTables(k)
		for ia, A := range ca {
			for ib, B := range cb {
				sx := w.e0(ex, A.X, B.X) * pr.sqp
				sy := w.e0(ey, A.Y, B.Y) * pr.sqp
				sz := w.e0(ez, A.Z, B.Z) * pr.sqp
				cart[ia*len(cb)+ib] += pr.cck * sx * sy * sz
			}
		}
	}
	return sphTransform2(a.L, b.L, cart, &w.sphScr)
}

// core returns the spherical T + V block of shells a and b, in worker
// scratch valid until the next call.
func (w *oe1Worker) core(a, b *basis.Shell) []float64 {
	w.load(a, b)
	cart := w.zeroCart(NumCart(a.L) * NumCart(b.L))
	w.kinetic(cart)
	w.nuclear(cart)
	return sphTransform2(a.L, b.L, cart, &w.sphScr)
}

func (w *oe1Worker) zeroCart(n int) []float64 {
	cart := grow(&w.cart, n)
	clear(cart)
	return cart
}

// e0 returns the t=0 MD coefficient E_0^{ij} of one dimension's table;
// with the sqrt(pi/p) factor this is the 1D overlap.
func (w *oe1Worker) e0(e []float64, i, j int) float64 {
	return e[(i*w.jdim+j)*w.tdim]
}

// kin1D returns the 1D kinetic integral (without the sqrt(pi/p) factor):
// -1/2 <i| d^2/dx^2 |j> = -1/2 j(j-1) S(i,j-2) + b(2j+1) S(i,j) - 2b^2 S(i,j+2).
func (w *oe1Worker) kin1D(e []float64, b float64, i, j int) float64 {
	v := b * float64(2*j+1) * w.e0(e, i, j)
	v -= 2 * b * b * w.e0(e, i, j+2)
	if j >= 2 {
		v -= 0.5 * float64(j) * float64(j-1) * w.e0(e, i, j-2)
	}
	return v
}

// kinetic adds the Cartesian kinetic block of the loaded pair into out.
func (w *oe1Worker) kinetic(out []float64) {
	ca, cb := CartComponents(w.a.L), CartComponents(w.b.L)
	for k := range w.prims {
		pr := &w.prims[k]
		ex, ey, ez := w.eTables(k)
		for ia, A := range ca {
			for ib, B := range cb {
				sx := w.e0(ex, A.X, B.X) * pr.sqp
				sy := w.e0(ey, A.Y, B.Y) * pr.sqp
				sz := w.e0(ez, A.Z, B.Z) * pr.sqp
				kx := w.kin1D(ex, pr.bexp, A.X, B.X) * pr.sqp
				ky := w.kin1D(ey, pr.bexp, A.Y, B.Y) * pr.sqp
				kz := w.kin1D(ez, pr.bexp, A.Z, B.Z) * pr.sqp
				out[ia*len(cb)+ib] += pr.cck * (kx*sy*sz + sx*ky*sz + sx*sy*kz)
			}
		}
	}
}

// nuclear adds the Cartesian nuclear-attraction block of the loaded pair
// into out. V is linear in each nucleus's Hermite R table, and the
// Hermite expansion E^x_t E^y_u E^z_v of a component pair does not depend
// on the nucleus. So per primitive pair the nuclei only sum their R
// tables, each weighted by -Z_C 2 pi/p (one Boys evaluation and one R
// table a nucleus), and every component pair contracts its E-products
// against that sum once.
func (w *oe1Worker) nuclear(out []float64) {
	ca, cb := CartComponents(w.a.L), CartComponents(w.b.L)
	ltot := w.a.L + w.b.L
	td := ltot + 1
	td3 := td * td * td
	w.raux = grow(&w.raux, (ltot+1)*td3)
	w.rsum = grow(&w.rsum, td3)
	for k := range w.prims {
		pr := &w.prims[k]
		clear(w.rsum)
		for _, atom := range w.mol.Atoms {
			pc := pr.P.Sub(atom.Pos)
			Boys(ltot, pr.p*pc.Norm2(), w.boys[:])
			pref := -float64(atom.Z) * 2 * math.Pi / pr.p
			for m := 0; m <= ltot; m++ {
				w.boys[m] *= pref // R is linear in the Boys values
			}
			for i, r := range hermiteRTable(ltot, pr.p, pc, w.boys[:], w.raux) {
				w.rsum[i] += r
			}
		}
		ex, ey, ez := w.eTables(k)
		for ia, A := range ca {
			for ib, B := range cb {
				exBase := (A.X*w.jdim + B.X) * w.tdim
				eyBase := (A.Y*w.jdim + B.Y) * w.tdim
				ezBase := (A.Z*w.jdim + B.Z) * w.tdim
				var s float64
				for t := 0; t <= A.X+B.X; t++ {
					for u := 0; u <= A.Y+B.Y; u++ {
						exy := ex[exBase+t] * ey[eyBase+u]
						r := w.rsum[(t*td+u)*td:]
						for v := 0; v <= A.Z+B.Z; v++ {
							s += exy * ez[ezBase+v] * r[v]
						}
					}
				}
				out[ia*len(cb)+ib] += pr.cck * s
			}
		}
	}
}

// oneElectron assembles a full matrix from the spherical per-shell-pair
// blocks block returns. Shell-pair rows are distributed over GOMAXPROCS
// goroutines, each with its own worker; each (si, sj) block writes a
// disjoint region of the matrix, so no synchronization is needed beyond
// the final join.
func oneElectron(bs *basis.Set, block func(w *oe1Worker, a, b *basis.Shell) []float64) *linalg.Matrix {
	m := linalg.NewMatrix(bs.NumFuncs, bs.NumFuncs)
	ns := len(bs.Shells)
	nw := runtime.GOMAXPROCS(0)
	if nw > ns {
		nw = ns
	}
	if nw < 1 {
		nw = 1
	}
	rows := make(chan int, ns)
	for si := 0; si < ns; si++ {
		rows <- si
	}
	close(rows)
	var wg sync.WaitGroup
	for range nw {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &oe1Worker{mol: bs.Mol}
			for si := range rows {
				for sj := si; sj < ns; sj++ {
					a, b := &bs.Shells[si], &bs.Shells[sj]
					sph := block(w, a, b)
					na, nb := a.NumFuncs(), b.NumFuncs()
					oi, oj := bs.Offsets[si], bs.Offsets[sj]
					for i := 0; i < na; i++ {
						for j := 0; j < nb; j++ {
							v := sph[i*nb+j]
							m.Set(oi+i, oj+j, v)
							m.Set(oj+j, oi+i, v)
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	return m
}

// sphTransform2 transforms a 2-index Cartesian block [na_c][nb_c] to
// spherical [na_s][nb_s].
func sphTransform2(la, lb int, cart []float64, scratch *[2][]float64) []float64 {
	// Transform second index: view as (na_c) slabs of length nb_c.
	cur := cart
	ncB, nsB := NumCart(lb), NumSph(lb)
	ncA, nsA := NumCart(la), NumSph(la)
	if lb > 1 {
		out := grow(&scratch[0], ncA*nsB)
		mat := sphMatrix(lb)
		for i := 0; i < ncA; i++ {
			for s := 0; s < nsB; s++ {
				var v float64
				for c := 0; c < ncB; c++ {
					if f := mat[s][c]; f != 0 {
						v += f * cur[i*ncB+c]
					}
				}
				out[i*nsB+s] = v
			}
		}
		cur = out
	}
	nb := nsB
	if la > 1 {
		out := grow(&scratch[1], nsA*nb)
		sphTransform1(la, cur, out, nb)
		cur = out
	}
	return cur
}
