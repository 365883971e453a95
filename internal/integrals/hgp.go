package integrals

import (
	"math"
	"sync"

	"gtfock/internal/chem"
)

// This file implements a second production ERI path: the Head-Gordon-Pople
// organization of Obara-Saika — iterative vertical recurrences build the
// primitive class integrals (e0|f0)^(m), which are contracted once, and
// iterative horizontal recurrences assemble the general contracted
// (ab|cd) from the classes. Real integral packages (including ERD, the
// paper's engine) switch between such algorithms by shell class; here the
// HGP path is selectable per engine (Engine.UseHGP) and cross-validated
// against both the McMurchie-Davidson path and the recursive oracle.

// Per-level Cartesian index tables, built on first use (by whichever
// build worker gets there first, hence the Once).
var (
	cartTablesOnce sync.Once

	cartIndexTab []map[Cart]int
	lowerIdxTab  [][][3]int // [l][i][d] -> index at level l-1, or -1
	compExpTab   [][][3]int // [l][i][d] -> exponent of direction d
)

func initCartTables() { cartTablesOnce.Do(buildCartTables) }

func buildCartTables() {
	maxL := len(cartCache) - 1
	cartIndexTab = make([]map[Cart]int, maxL+1)
	lowerIdxTab = make([][][3]int, maxL+1)
	compExpTab = make([][][3]int, maxL+1)
	for l := 0; l <= maxL; l++ {
		comps := CartComponents(l)
		cartIndexTab[l] = make(map[Cart]int, len(comps))
		for i, c := range comps {
			cartIndexTab[l][c] = i
		}
	}
	for l := 0; l <= maxL; l++ {
		comps := CartComponents(l)
		lowerIdxTab[l] = make([][3]int, len(comps))
		compExpTab[l] = make([][3]int, len(comps))
		for i, c := range comps {
			compExpTab[l][i] = [3]int{c.X, c.Y, c.Z}
			for d := 0; d < 3; d++ {
				lc := c
				switch d {
				case 0:
					lc.X--
				case 1:
					lc.Y--
				default:
					lc.Z--
				}
				if lc.X < 0 || lc.Y < 0 || lc.Z < 0 || l == 0 {
					lowerIdxTab[l][i][d] = -1
				} else {
					lowerIdxTab[l][i][d] = cartIndexTab[l-1][lc]
				}
			}
		}
	}
}

// eriCartHGP computes the contracted Cartesian quartet batch with the
// HGP scheme. Result layout matches eriCart: [a][b][c][d] row-major.
func (e *Engine) eriCartHGP(bra, ket *ShellPair) []float64 {
	initCartTables()
	la, lb, lc, ld := bra.LA, bra.LB, ket.LA, ket.LB
	eMax, fMax := la+lb, lc+ld
	mTot := eMax + fMax

	// Contracted class accumulators ctr[e][f] over (cart_e x cart_f).
	ctr := make([][][]float64, eMax+1)
	for ee := 0; ee <= eMax; ee++ {
		ctr[ee] = make([][]float64, fMax+1)
		for ff := 0; ff <= fMax; ff++ {
			ctr[ee][ff] = make([]float64, NumCart(ee)*NumCart(ff))
		}
	}

	A := bra.A.Center
	C := ket.A.Center
	for bi := range bra.prims {
		bp := &bra.prims[bi]
		for ki := range ket.prims {
			kp := &ket.prims[ki]
			e.Stats.PrimQuartets++
			p, q := bp.p, kp.p
			s := 1 / (p + q)
			rho := p * q * s
			pref := bp.c * kp.c * math.Sqrt(s)
			W := bp.P.Scale(p * s).Add(kp.P.Scale(q * s))
			pq := bp.P.Sub(kp.P)
			Boys(mTot, rho*pq.Norm2(), e.boys[:])

			PA := bp.P.Sub(A)
			WP := W.Sub(bp.P)
			QC := kp.P.Sub(C)
			WQ := W.Sub(kp.P)
			pa := [3]float64{PA.X, PA.Y, PA.Z}
			wp := [3]float64{WP.X, WP.Y, WP.Z}
			qc := [3]float64{QC.X, QC.Y, QC.Z}
			wq := [3]float64{WQ.X, WQ.Y, WQ.Z}

			// vrrA[e][m]: (e0|00)^(m), m = 0..mTot-e.
			vrrA := make([][][]float64, eMax+1)
			vrrA[0] = make([][]float64, mTot+1)
			for m := 0; m <= mTot; m++ {
				vrrA[0][m] = []float64{pref * e.boys[m]}
			}
			for ee := 1; ee <= eMax; ee++ {
				nm := mTot - ee
				vrrA[ee] = make([][]float64, nm+1)
				nc := NumCart(ee)
				for m := 0; m <= nm; m++ {
					out := make([]float64, nc)
					for i := 0; i < nc; i++ {
						d := pickDir(ee, i)
						am := lowerIdxTab[ee][i][d]
						v := pa[d]*vrrA[ee-1][m][am] + wp[d]*vrrA[ee-1][m+1][am]
						if n := compExpTab[ee-1][am][d]; n > 0 {
							am2 := lowerIdxTab[ee-1][am][d]
							v += float64(n) / (2 * p) *
								(vrrA[ee-2][m][am2] - rho/p*vrrA[ee-2][m+1][am2])
						}
						out[i] = v
					}
					vrrA[ee][m] = out
				}
			}

			// vrr[e][f][m]: (e0|f0)^(m) over cart_e x cart_f;
			// f raised from vrrA via the ket vertical recurrence.
			vrr := make([][][][]float64, eMax+1)
			for ee := 0; ee <= eMax; ee++ {
				vrr[ee] = make([][][]float64, fMax+1)
				vrr[ee][0] = vrrA[ee]
			}
			for ff := 1; ff <= fMax; ff++ {
				ncF := NumCart(ff)
				for ee := 0; ee <= eMax; ee++ {
					nm := mTot - ee - ff
					if nm < 0 {
						continue
					}
					ncE := NumCart(ee)
					levels := make([][]float64, nm+1)
					for m := 0; m <= nm; m++ {
						out := make([]float64, ncE*ncF)
						for ci := 0; ci < ncF; ci++ {
							d := pickDir(ff, ci)
							cm := lowerIdxTab[ff][ci][d]
							var cm2 int
							n2 := compExpTab[ff-1][cm][d]
							if n2 > 0 {
								cm2 = lowerIdxTab[ff-1][cm][d]
							}
							for ai := 0; ai < ncE; ai++ {
								v := qc[d]*vrr[ee][ff-1][m][ai*NumCart(ff-1)+cm] +
									wq[d]*vrr[ee][ff-1][m+1][ai*NumCart(ff-1)+cm]
								if n2 > 0 {
									v += float64(n2) / (2 * q) *
										(vrr[ee][ff-2][m][ai*NumCart(ff-2)+cm2] -
											rho/q*vrr[ee][ff-2][m+1][ai*NumCart(ff-2)+cm2])
								}
								if na := compExpTab[ee][ai][d]; na > 0 {
									am := lowerIdxTab[ee][ai][d]
									v += float64(na) / (2 * (p + q)) *
										vrr[ee-1][ff-1][m+1][am*NumCart(ff-1)+cm]
								}
								out[ai*ncF+ci] = v
							}
						}
						levels[m] = out
					}
					vrr[ee][ff] = levels
				}
			}

			// Contract the m=0 classes.
			for ee := 0; ee <= eMax; ee++ {
				for ff := 0; ff <= fMax; ff++ {
					src := vrr[ee][ff][0]
					dst := ctr[ee][ff]
					for i, v := range src {
						dst[i] += v
					}
				}
			}
		}
	}

	// Horizontal recurrences on the contracted classes.
	ab := A.Sub(bra.B.Center)
	cd := C.Sub(ket.B.Center)
	// Bra HRR: for every ket class f = lc..lc+ld, build (la lb| f 0).
	braDone := make([][]float64, fMax+1) // (la lb | f 0): [a][b][f-cart]
	for ff := lc; ff <= fMax; ff++ {
		braDone[ff] = hrrSide(ctr, la, lb, ff, ab, true)
	}
	// Ket HRR on (la lb | c d).
	return hrrKet(braDone, la, lb, lc, ld, cd)
}

// pickDir returns the first direction with a nonzero exponent for
// component i of level l.
func pickDir(l, i int) int {
	exps := compExpTab[l][i]
	for d := 0; d < 3; d++ {
		if exps[d] > 0 {
			return d
		}
	}
	return 0
}

// hrrSide applies the bra horizontal recurrence
// (a, b+1 | f0) = ((a+1) b | f0) + AB_d (a b | f0)
// iteratively, returning the (la lb | f0) block laid out as
// [cart_la][cart_lb][cart_f].
func hrrSide(ctr [][][]float64, la, lb, ff int, ab chem.Vec3, bra bool) []float64 {
	abd := [3]float64{ab.X, ab.Y, ab.Z}
	ncF := NumCart(ff)
	// cur[b] maps class (a = la..la+lb-b, b) to arrays [cart_a][cart_b][cart_f].
	type key struct{ a, b int }
	cur := map[key][]float64{}
	for a := la; a <= la+lb; a++ {
		// (a 0 | f 0) from the contracted classes; b=0 cart count is 1.
		src := ctr[a][ff]
		out := make([]float64, NumCart(a)*1*ncF)
		copy(out, src)
		cur[key{a, 0}] = out
	}
	for b := 1; b <= lb; b++ {
		ncB := NumCart(b)
		for a := la; a <= la+lb-b; a++ {
			ncA := NumCart(a)
			up := cur[key{a + 1, b - 1}] // ((a+1)(b-1)|f)
			same := cur[key{a, b - 1}]   // (a(b-1)|f)
			ncBm := NumCart(b - 1)
			out := make([]float64, ncA*ncB*ncF)
			for bi := 0; bi < ncB; bi++ {
				d := pickDir(b, bi)
				bm := lowerIdxTab[b][bi][d]
				for ai := 0; ai < ncA; ai++ {
					// index of a raised in direction d at level a+1
					ar := raiseIdx(a, ai, d)
					for fi := 0; fi < ncF; fi++ {
						v := up[(ar*ncBm+bm)*ncF+fi] +
							abd[d]*same[(ai*ncBm+bm)*ncF+fi]
						out[(ai*ncB+bi)*ncF+fi] = v
					}
				}
			}
			cur[key{a, b}] = out
		}
	}
	return cur[key{la, lb}]
}

// hrrKet applies the ket horizontal recurrence to (la lb | f 0) blocks:
// (ab | c, d+1) = (ab | (c+1) d) + CD_d (ab | c d), returning the final
// batch [a][b][c][d].
func hrrKet(braDone [][]float64, la, lb, lc, ld int, cd chem.Vec3) []float64 {
	cdd := [3]float64{cd.X, cd.Y, cd.Z}
	nAB := NumCart(la) * NumCart(lb)
	type key struct{ c, d int }
	cur := map[key][]float64{}
	for c := lc; c <= lc+ld; c++ {
		cur[key{c, 0}] = braDone[c] // [ab][cart_c] with cart_d = 1
	}
	for d := 1; d <= ld; d++ {
		ncD := NumCart(d)
		for c := lc; c <= lc+ld-d; c++ {
			ncC := NumCart(c)
			up := cur[key{c + 1, d - 1}]
			same := cur[key{c, d - 1}]
			ncDm := NumCart(d - 1)
			out := make([]float64, nAB*ncC*ncD)
			for di := 0; di < ncD; di++ {
				dir := pickDir(d, di)
				dm := lowerIdxTab[d][di][dir]
				for ci := 0; ci < ncC; ci++ {
					cr := raiseIdx(c, ci, dir)
					for abi := 0; abi < nAB; abi++ {
						v := up[(abi*NumCart(c+1)+cr)*ncDm+dm] +
							cdd[dir]*same[(abi*ncC+ci)*ncDm+dm]
						out[(abi*ncC+ci)*ncD+di] = v
					}
				}
			}
			cur[key{c, d}] = out
		}
	}
	return cur[key{lc, ld}]
}

// raiseIdx returns the index at level l+1 of component i of level l raised
// in direction d.
func raiseIdx(l, i, d int) int {
	c := CartComponents(l)[i]
	switch d {
	case 0:
		c.X++
	case 1:
		c.Y++
	default:
		c.Z++
	}
	return cartIndexTab[l+1][c]
}
