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
	return oneElectron(bs, false)
}

// CoreHamiltonian returns H_core = T + V: the kinetic energy
// <i| -1/2 nabla^2 |j> plus the attraction <i| sum_C -Z_C/|r-R_C| |j> to
// the nuclei of the molecule the basis was built on. T and V of a shell
// pair are summed in its Cartesian block, in one pass over shell pairs.
func CoreHamiltonian(bs *basis.Set) *linalg.Matrix {
	return oneElectron(bs, true)
}

// oe1Worker is one goroutine's one-electron state: the primitive-pair data
// of the shell-family pair in hand (see load) and every scratch buffer a
// block needs. Buffers grow to the largest pair seen and never shrink, so
// a warmed worker fills a block without allocating.
//
// A shell family (see shellFamilies) shares its exponents and centre, so
// the shell pairs of one family pair share everything but their
// contraction coefficients: the primitive pairs, their E tables (E^{ij}_t
// does not depend on the shells' L, so the tables of the families'
// largest L hold every member's) and the nuclear sums (R^0_{tuv} does not
// depend on L either). load computes them once for all the member pairs.
type oe1Worker struct {
	bs      *basis.Set
	fam     []int32   // per shell: its family
	members [][]int32 // per family: its shells, by L
	// The loaded family pair (-1 before the first load), and whether it
	// was loaded for H_core: E tables deep enough for the kinetic term and
	// the nuclear sums.
	fa, fb   int32
	loadCore bool
	// a and b are the loaded families' last members, of largest L: the
	// E tables reach i = a.L and j = b.L, or b.L+2 for the kinetic term,
	// which reads E(i, j+2). esz is one dimension's table.
	a, b            *basis.Shell
	jdim, tdim, esz int
	prims           []oe1Prim
	etab            []float64 // x, y, z tables of prims[k] at [3*esz*k, 3*esz*(k+1))

	boys [maxBoysM + 1]float64
	raux []float64 // hermiteRTable scratch, L > 4
	// rsum holds per primitive pair k the nuclei's summed, scaled R
	// values (see nuclearSum) at [nr*k, nr*(k+1)), nr = hermCount(a.L+b.L).
	rsum   []float64
	nr     int
	cart   []float64
	sphScr [2][]float64
}

// oe1Prim is primitive pair k = i*len(b.Exps) + j of the loaded family
// pair, of exponents a.Exps[i] and b.Exps[j]; a member pair's factor is
// its coefficients' product times k3.
type oe1Prim struct {
	p, bexp float64
	P       chem.Vec3
	sqp     float64 // sqrt(pi/p), the 1D overlap factor
	k3      float64 // exp(-mu |AB|^2)
}

func newOE1Worker(bs *basis.Set, fam []int32, members [][]int32) *oe1Worker {
	return &oe1Worker{bs: bs, fam: fam, members: members, fa: -1, fb: -1}
}

// block returns the spherical S (core false) or T + V (core true) block
// of shells si and sj, in worker scratch valid until the next call. It
// loads their family pair first unless that is loaded, deep enough,
// already.
func (w *oe1Worker) block(si, sj int, core bool) []float64 {
	if fa, fb := w.fam[si], w.fam[sj]; fa != w.fa || fb != w.fb || core && !w.loadCore {
		w.load(fa, fb, core)
	}
	a, b := &w.bs.Shells[si], &w.bs.Shells[sj]
	cart := grow(&w.cart, NumCart(a.L)*NumCart(b.L))
	clear(cart)
	if core {
		w.kinetic(a, b, cart)
		w.nuclear(a, b, cart)
	} else {
		w.overlap(a, b, cart)
	}
	return sphTransform2(a.L, b.L, cart, &w.sphScr)
}

// load makes families (fa, fb) the worker's pair: per primitive pair its
// exponent data and x, y and z E tables, which S, T and V all read, and
// for H_core the tables' kinetic depth and the nuclear sums.
func (w *oe1Worker) load(fa, fb int32, core bool) {
	ma, mb := w.members[fa], w.members[fb]
	a, b := &w.bs.Shells[ma[len(ma)-1]], &w.bs.Shells[mb[len(mb)-1]]
	w.fa, w.fb, w.loadCore, w.a, w.b = fa, fb, core, a, b
	la, lb := a.L, b.L
	w.jdim, w.tdim = lb+1, la+lb+1
	if core {
		w.jdim, w.tdim = lb+3, la+lb+3
	}
	w.esz = (la + 1) * w.jdim * w.tdim
	np := len(a.Exps) * len(b.Exps)
	w.prims = grow(&w.prims, np)
	w.etab = grow(&w.etab, 3*w.esz*np)
	ab2 := a.Center.Sub(b.Center).Norm2()
	k := 0
	for _, ea := range a.Exps {
		for _, eb := range b.Exps {
			p := ea + eb
			P := a.Center.Scale(ea / p).Add(b.Center.Scale(eb / p))
			w.prims[k] = oe1Prim{
				p: p, bexp: eb, P: P,
				sqp: math.Sqrt(math.Pi / p),
				k3:  math.Exp(-ea * eb / p * ab2),
			}
			pa := P.Sub(a.Center)
			pb := P.Sub(b.Center)
			paD := [3]float64{pa.X, pa.Y, pa.Z}
			pbD := [3]float64{pb.X, pb.Y, pb.Z}
			et := w.etab[3*w.esz*k : 3*w.esz*(k+1)]
			for d := 0; d < 3; d++ {
				eTable(la, w.jdim-1, 1/(2*p), paD[d], pbD[d], et[d*w.esz:(d+1)*w.esz], w.jdim, w.tdim)
			}
			k++
		}
	}
	if core {
		w.nr = hermCount(la + lb)
		w.rsum = grow(&w.rsum, w.nr*np)
		for k := range w.prims {
			w.nuclearSum(&w.prims[k], w.rsum[w.nr*k:w.nr*(k+1)])
		}
	}
}

// eTables returns the x, y and z E tables of primitive pair k.
func (w *oe1Worker) eTables(k int) (ex, ey, ez []float64) {
	t := w.etab[3*w.esz*k : 3*w.esz*(k+1)]
	return t[:w.esz], t[w.esz : 2*w.esz], t[2*w.esz:]
}

// overlap adds the Cartesian overlap block of member pair (a, b) of the
// loaded family pair into out.
func (w *oe1Worker) overlap(a, b *basis.Shell, out []float64) {
	ca, cb := CartComponents(a.L), CartComponents(b.L)
	for i, cai := range a.Coefs {
		for j, cbj := range b.Coefs {
			k := i*len(b.Coefs) + j
			pr := &w.prims[k]
			c := cai * cbj * pr.k3
			ex, ey, ez := w.eTables(k)
			for ia, A := range ca {
				for ib, B := range cb {
					sx := w.e0(ex, A.X, B.X) * pr.sqp
					sy := w.e0(ey, A.Y, B.Y) * pr.sqp
					sz := w.e0(ez, A.Z, B.Z) * pr.sqp
					out[ia*len(cb)+ib] += c * sx * sy * sz
				}
			}
		}
	}
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

// kinetic adds the Cartesian kinetic block of member pair (a, b) of the
// loaded family pair into out.
func (w *oe1Worker) kinetic(a, b *basis.Shell, out []float64) {
	ca, cb := CartComponents(a.L), CartComponents(b.L)
	for i, cai := range a.Coefs {
		for j, cbj := range b.Coefs {
			k := i*len(b.Coefs) + j
			pr := &w.prims[k]
			c := cai * cbj * pr.k3
			ex, ey, ez := w.eTables(k)
			for ia, A := range ca {
				for ib, B := range cb {
					sx := w.e0(ex, A.X, B.X) * pr.sqp
					sy := w.e0(ey, A.Y, B.Y) * pr.sqp
					sz := w.e0(ez, A.Z, B.Z) * pr.sqp
					kx := w.kin1D(ex, pr.bexp, A.X, B.X) * pr.sqp
					ky := w.kin1D(ey, pr.bexp, A.Y, B.Y) * pr.sqp
					kz := w.kin1D(ez, pr.bexp, A.Z, B.Z) * pr.sqp
					out[ia*len(cb)+ib] += c * (kx*sy*sz + sx*ky*sz + sx*sy*kz)
				}
			}
		}
	}
}

// nuclear adds the Cartesian nuclear-attraction block of member pair
// (a, b) of the loaded family pair into out. V is linear in each
// nucleus's Hermite R values, and the Hermite expansion E^x_t E^y_u E^z_v
// of a component pair does not depend on the nucleus. So per primitive
// pair the nuclei only sum their R values (load's nuclearSum, once for
// the family pair), and every component pair contracts its E-products
// against that sum once.
func (w *oe1Worker) nuclear(a, b *basis.Shell, out []float64) {
	ca, cb := CartComponents(a.L), CartComponents(b.L)
	for i, cai := range a.Coefs {
		for j, cbj := range b.Coefs {
			k := i*len(b.Coefs) + j
			c := cai * cbj * w.prims[k].k3
			rs := w.rsum[w.nr*k : w.nr*(k+1)]
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
							pos := &hermPos[t][u]
							for v := 0; v <= A.Z+B.Z; v++ {
								s += exy * ez[ezBase+v] * rs[pos[v]]
							}
						}
					}
					out[ia*len(cb)+ib] += c * s
				}
			}
		}
	}
}

// nuclearSum sets rs to the sum over the nuclei C of -Z_C 2 pi/p times
// R^0_{tuv}(p, P - C), t+u+v <= L = a.L + b.L of the loaded pair, of
// primitive pair pr, in hermPos order. Up to L = 4 (every s/p/d pair) a
// nucleus costs what it costs an ERI kernel's primitive quartet: the
// Boys values read inline from the table (the top order's and e^-x's
// rows, then the downward recursion, as Boys computes them) and the
// straight-line genHermR{L}, whose output order is hermPos's. Beyond,
// Boys and the general recursion hermiteRTable fill a cube that is
// scattered into the same order.
func (w *oe1Worker) nuclearSum(pr *oe1Prim, rs []float64) {
	l := w.a.L + w.b.L
	f := w.boys[:l+1]
	twoPiP := 2 * math.Pi / pr.p
	clear(rs)
	if l > 4 {
		td := l + 1
		w.raux = grow(&w.raux, td*td*td*td)
		for _, atom := range w.bs.Mol.Atoms {
			pc := pr.P.Sub(atom.Pos)
			Boys(l, pr.p*pc.Norm2(), f)
			s := -float64(atom.Z) * twoPiP
			for m := range f {
				f[m] *= s // R is linear in the Boys values
			}
			cube := hermiteRTable(l, pr.p, pc, f, w.raux)
			for t := 0; t <= l; t++ {
				for u := 0; u <= l-t; u++ {
					for v := 0; v <= l-t-u; v++ {
						rs[hermPos[t][u][v]] += cube[(t*td+u)*td+v]
					}
				}
			}
		}
		return
	}
	var r [35]float64
	rn := r[:len(rs)]
	for _, atom := range w.bs.Mol.Atoms {
		pc := pr.P.Sub(atom.Pos)
		x := pr.p * pc.Norm2()
		if i := int(x*boysInvDX + 0.5); uint(i) < boysGridN {
			d := x - float64(i)*boysDX
			f[l] = boysPoly(&boysTab[l][i], d)
			if l > 0 {
				ex := boysPoly(&boysTab[boysExp][i], d)
				for m := l; m > 0; m-- {
					f[m-1] = (2*x*f[m] + ex) * boysInvOdd[m]
				}
			}
		} else {
			h := 0.5 / x
			f[0] = math.Sqrt(math.Pi / 2 * h)
			for m := 0; m < l; m++ {
				f[m+1] = float64(2*m+1) * h * f[m]
			}
		}
		s := -float64(atom.Z) * twoPiP
		switch l {
		case 0:
			r[0] = s * f[0]
		case 1:
			genHermR1(s, pr.p, pc.X, pc.Y, pc.Z, (*[2]float64)(f), (*[4]float64)(rn))
		case 2:
			genHermR2(s, pr.p, pc.X, pc.Y, pc.Z, (*[3]float64)(f), (*[10]float64)(rn))
		case 3:
			genHermR3(s, pr.p, pc.X, pc.Y, pc.Z, (*[4]float64)(f), (*[20]float64)(rn))
		case 4:
			genHermR4(s, pr.p, pc.X, pc.Y, pc.Z, (*[5]float64)(f), &r)
		}
		for i, v := range rn {
			rs[i] += v
		}
	}
}

// hermMaxL is the largest total order hermPos indexes: two g shells,
// beyond every basis set's f.
const hermMaxL = 8

// hermCount returns the number of Hermite indices (t,u,v) with
// t+u+v <= l.
func hermCount(l int) int { return (l + 1) * (l + 2) * (l + 3) / 6 }

// hermPos[t][u][v] is the position of Hermite index (t,u,v) in
// order-major order: order n = t+u+v from 0, within an order t, then u,
// descending. Up to order 4 this is genHermOff9's order, the one the
// generated genHermR{L} write in; the position of (t,u,v) is the count
// of lower orders, then of the larger t, then of the larger u in its
// order, v.
var hermPos = func() (pos [hermMaxL + 1][hermMaxL + 1][hermMaxL + 1]uint8) {
	for t := 0; t <= hermMaxL; t++ {
		for u := 0; u <= hermMaxL-t; u++ {
			for v := 0; v <= hermMaxL-t-u; v++ {
				n, wv := t+u+v, u+v
				pos[t][u][v] = uint8(hermCount(n-1) + wv*(wv+1)/2 + v)
			}
		}
	}
	return pos
}()

// oneElectron assembles S (core false) or H_core (core true) from the
// spherical per-shell-pair blocks. Rows of shell families are distributed
// over GOMAXPROCS goroutines, each with its own worker, which takes a
// row's family pairs one at a time and every shell pair of each: one
// load per family pair. Each (si, sj) block writes a disjoint region of
// the matrix, so no synchronization is needed beyond the final join.
func oneElectron(bs *basis.Set, core bool) *linalg.Matrix {
	m := linalg.NewMatrix(bs.NumFuncs, bs.NumFuncs)
	fam, members := shellFamilies(bs)
	var heads []int32
	for i, f := range fam {
		if f == int32(i) {
			heads = append(heads, f)
		}
	}
	nw := min(runtime.GOMAXPROCS(0), len(heads))
	if nw < 1 {
		nw = 1
	}
	rows := make(chan int, len(heads))
	for r := range heads {
		rows <- r
	}
	close(rows)
	var wg sync.WaitGroup
	for range nw {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := newOE1Worker(bs, fam, members)
			for r := range rows {
				ha := heads[r]
				for _, hb := range heads[r:] {
					for _, si := range members[ha] {
						for _, sj := range members[hb] {
							if ha == hb && sj < si {
								continue
							}
							a, b := &bs.Shells[si], &bs.Shells[sj]
							sph := w.block(int(si), int(sj), core)
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
