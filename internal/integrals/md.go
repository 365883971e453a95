package integrals

import (
	"math"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
)

// primPair is the hot record of one surviving primitive pair, everything
// a kernel's primitive-quartet prologue reads, in 40 bytes: the combined
// exponent, the Gaussian product center, and the pair's share of the
// quartet prefactor,
//
//	c = sqrt(2) pi^{5/4} c_a c_b exp(-mu |AB|^2) / p,
//
// so that with s = 1/(p+q): alpha = p q s and pref = c c' sqrt(s)
// (= 2 pi^{5/2} / (p q sqrt(p+q)) times both contraction products and
// Gaussian product factors).
type primPair struct {
	p float64 // a + b
	P chem.Vec3
	c float64
}

// pairPref is sqrt(2) pi^{5/4}, the constant folded into primPair.c.
var pairPref = math.Sqrt(twoPiPow52)

// ShellPair is the precomputed bra or ket of an ERI: a pair of shells with
// per-primitive-pair MD expansion data. Pairs are the reusable unit of
// integral evaluation, mirroring how real ERI codes (including ERD, the
// paper's engine) organize computation. A pair is read-only once filled.
type ShellPair struct {
	A, B   *basis.Shell
	LA, LB int
	prims  []primPair
	// etab is the cold side of prims: the McMurchie-Davidson E expansion
	// tables, per primitive pair one (la+1) x (lb+1) x (la+lb+1) table
	// for each Cartesian dimension (see eTables). Only the general path
	// and the term folding below read it.
	etab []float64
	// terms holds the folded Hermite expansion terms the generated
	// kernels read, times the primitive pair's c, genTermSlots[class] per
	// primitive pair in prims order (empty for ss pairs, whose one term
	// is prims[i].c, and beyond d).
	terms []float64
}

// eTables returns the x, y and z E tables of primitive pair i.
func (sp *ShellPair) eTables(i int) (ex, ey, ez []float64) {
	n := (sp.LA + 1) * (sp.LB + 1) * (sp.LA + sp.LB + 1)
	t := sp.etab[3*n*i : 3*n*(i+1)]
	return t[:n], t[n : 2*n], t[2*n:]
}

// PrimTol is the primitive prescreening threshold of every production pair
// builder (scf.RunHF's run-wide table, each atomic guess's table,
// core.Build's fallback table, nwchem.Build's table). One value because one measured best: against
// keeping every primitive it moves the converged HF energy by |ΔE| ≤ 3e-11
// Ha on each benchmark input (1.5e-10 at alkane:10, 3.9e-10 at alkane:16;
// the suite promises 1e-9) in the same iteration counts, for 14 % less
// Fock time on alkane:3/sto-3g and 39 % at alkane:10 (EXPERIMENTS.md,
// "Screening knobs"). Tests, cmd/paper's Table V and benchmark/ pass
// their own values to NewShellPair / NewPairTable.
const PrimTol = 1e-12

// NewShellPair precomputes the MD data for shells a and b. Primitive pairs
// whose Gaussian-product magnitude |c_a c_b| exp(-mu|AB|^2) falls below
// primTol are dropped; pass 0 to keep everything. A positive primTol is the
// "primitive pre-screening" that gives NWChem's integral code its edge in
// the paper's Table V discussion.
func NewShellPair(a, b *basis.Shell, primTol float64) *ShellPair {
	sp := &ShellPair{}
	fillShellPair(sp, a, b, primTol, nil,
		func(n int) []primPair { return make([]primPair, n) },
		func(n int) []float64 { return make([]float64, n) })
	return sp
}

// fillShellPair builds sp in place, taking primitive-pair and E-table
// storage from the given allocators so a PairTable can carve thousands of
// pairs out of a handful of arena chunks. Allocators must return zeroed
// memory of exactly the requested length.
//
// bmax, when non-nil, widens the primitive screen to a pair family: it
// holds, per primitive of b, the largest |coefficient| among b's sibling
// shells paired with a, so every sibling keeps the union of the
// primitive pairs their own screens keep, in the same order; a primitive
// pair b's own screen drops stays with c = 0.
func fillShellPair(sp *ShellPair, a, b *basis.Shell, primTol float64, bmax []float64,
	palloc func(n int) []primPair, ealloc func(n int) []float64) {
	sp.A, sp.B, sp.LA, sp.LB = a, b, a.L, b.L
	ab := a.Center.Sub(b.Center)
	ab2 := ab.Norm2()
	la, lb := a.L, b.L
	tdim := la + lb + 1
	// One pass computes k3 = exp(-mu |AB|^2) of every primitive pair and
	// counts the survivors (-1 marks a dropped pair): arena allocators hand
	// out exactly-sized storage and never move it, and the fill below
	// reads k3 instead of calling math.Exp again.
	var k3buf [64]float64
	k3, n := k3buf[:0], 0
	for i, ea := range a.Exps {
		for j, eb := range b.Exps {
			k := math.Exp(-ea * eb / (ea + eb) * ab2)
			cb := math.Abs(b.Coefs[j])
			if bmax != nil {
				cb = bmax[j]
			}
			if primTol > 0 && math.Abs(a.Coefs[i])*cb*k < primTol {
				k = -1
			} else {
				n++
			}
			k3 = append(k3, k)
		}
	}
	prims := palloc(n)[:0]
	esz := (la + 1) * (lb + 1) * tdim
	var slots int
	var fillTerms func(c float64, e, t []float64)
	if cls := pairClassOf(la, lb); cls != ClassHi {
		slots, fillTerms = genTermSlots[cls], genTermFill[cls]
	}
	sp.etab = ealloc(n * 3 * esz)
	sp.terms = ealloc(n * slots)
	for i, ea := range a.Exps {
		for j, eb := range b.Exps {
			kab := k3[i*len(b.Exps)+j]
			if kab < 0 {
				continue
			}
			p := ea + eb
			P := a.Center.Scale(ea / p).Add(b.Center.Scale(eb / p))
			c := pairPref * a.Coefs[i] * b.Coefs[j] * kab / p
			if primTol > 0 && math.Abs(a.Coefs[i]*b.Coefs[j])*kab < primTol {
				c = 0 // kept for a sibling only
			}
			pa := P.Sub(a.Center)
			pb := P.Sub(b.Center)
			paD := [3]float64{pa.X, pa.Y, pa.Z}
			pbD := [3]float64{pb.X, pb.Y, pb.Z}
			k := len(prims)
			et := sp.etab[3*esz*k : 3*esz*(k+1)]
			for d := 0; d < 3; d++ {
				// The 1D E(0,0,0) carries no AB factor here; the full 3D
				// prefactor k3 rides in primPair.c so the per-dimension
				// tables stay well scaled.
				eTable(la, lb, 1/(2*p), paD[d], pbD[d], et[d*esz:(d+1)*esz], lb+1, tdim)
			}
			prims = append(prims, primPair{p: p, P: P, c: c})
			if slots > 0 {
				fillTerms(c, et, sp.terms[k*slots:(k+1)*slots])
			}
		}
	}
	sp.prims = prims
}

// eTable fills the MD expansion coefficients E_t^{ij} for one dimension:
// out[(i*jdim+j)*tdim+t], i <= la, j <= lb (jdim >= lb+1), t <= i+j
// (tdim >= la+lb+1), with E_0^{00} = 1.
func eTable(la, lb int, inv2p, pa, pb float64, out []float64, jdim, tdim int) {
	idx := func(i, j, t int) int { return (i*jdim+j)*tdim + t }
	get := func(i, j, t int) float64 {
		if t < 0 || t > i+j {
			return 0
		}
		return out[idx(i, j, t)]
	}
	out[idx(0, 0, 0)] = 1
	// Raise i with j = 0.
	for i := 0; i < la; i++ {
		for t := 0; t <= i+1; t++ {
			out[idx(i+1, 0, t)] = inv2p*get(i, 0, t-1) + pa*get(i, 0, t) +
				float64(t+1)*get(i, 0, t+1)
		}
	}
	// Raise j for every i.
	for i := 0; i <= la; i++ {
		for j := 0; j < lb && j < jdim-1; j++ {
			for t := 0; t <= i+j+1; t++ {
				out[idx(i, j+1, t)] = inv2p*get(i, j, t-1) + pb*get(i, j, t) +
					float64(t+1)*get(i, j, t+1)
			}
		}
	}
}

// hermiteRTable returns the Hermite Coulomb integrals R^0_{tuv}(alpha, PQ)
// for t+u+v <= L at [(t*td+u)*td+v] (td = L+1) of a td^3 slice of aux,
// computed in aux (size (L+1)*td^3) from the Boys values
// F_0..F_L(alpha*|PQ|^2) in boys. Entries with t+u+v > L are not set.
func hermiteRTable(l int, alpha float64, pq chem.Vec3, boys, aux []float64) []float64 {
	td := l + 1
	td2 := td * td
	td3 := td2 * td
	at := func(m, t, u, v int) int { return m*td3 + t*td2 + u*td + v }
	// m levels of R_{000}.
	f := 1.0
	for m := 0; m <= l; m++ {
		aux[at(m, 0, 0, 0)] = f * boys[m]
		f *= -2 * alpha
	}
	for ord := 1; ord <= l; ord++ {
		for m := 0; m <= l-ord; m++ {
			for t := 0; t <= ord; t++ {
				for u := 0; u <= ord-t; u++ {
					v := ord - t - u
					var val float64
					switch {
					case t > 0:
						if t > 1 {
							val += float64(t-1) * aux[at(m+1, t-2, u, v)]
						}
						val += pq.X * aux[at(m+1, t-1, u, v)]
					case u > 0:
						if u > 1 {
							val += float64(u-1) * aux[at(m+1, t, u-2, v)]
						}
						val += pq.Y * aux[at(m+1, t, u-1, v)]
					default:
						if v > 1 {
							val += float64(v-1) * aux[at(m+1, t, u, v-2)]
						}
						val += pq.Z * aux[at(m+1, t, u, v-1)]
					}
					aux[at(m, t, u, v)] = val
				}
			}
		}
	}
	return aux[:td3]
}

// Stats counts work done by an Engine.
type Stats struct {
	Quartets     int64 // shell quartets computed
	Integrals    int64 // basis-function ERIs produced (spherical)
	PrimQuartets int64 // primitive quartets surviving prescreening
	FastQuartets int64 // quartets served by any specialized kernel

	// FastQuartets split by quartet class: FastSP counts the all-s/p
	// classes, FastGen the classes with a d shell (FastQuartets = FastSP +
	// FastGen), and MirrorGen the subset of FastQuartets served through
	// the swap-and-transpose mirror wrapper. GeneralQuartets took the
	// general MD recursion (L > 2 on some shell, or DisableFastKernels);
	// Quartets = FastQuartets + GeneralQuartets.
	FastSP          int64
	FastGen         int64
	MirrorGen       int64
	GeneralQuartets int64

	// ByClass[bc][kc] counts quartets by bra and ket pair class
	// (ClassSS..ClassDD, with ClassHi for pairs beyond d), regardless of
	// which path served them.
	ByClass [NumPairClasses + 1][NumPairClasses + 1]int64
}

// GeneralFraction reports the fraction of quartets that took the general
// MD path (0 when no quartets were computed).
func (s *Stats) GeneralFraction() float64 {
	if s.Quartets == 0 {
		return 0
	}
	return float64(s.GeneralQuartets) / float64(s.Quartets)
}

// Engine computes ERI shell-quartet batches and one-electron integrals.
// Engines hold scratch buffers and are NOT safe for concurrent use; create
// one per goroutine (the Fock builders do).
type Engine struct {
	// PrimTol enables primitive pre-screening in pairs built through the
	// engine (see NewShellPair).
	PrimTol float64
	// DisableFastKernels forces every quartet through the general MD path
	// instead of the specialized kernels (kernels.go, kernels_gen.go): the
	// tests' reference path and an A/B knob; the kernels are on by default.
	DisableFastKernels bool
	Stats              Stats

	boys   [maxBoysM + 1]float64
	raux   []float64
	gtab   []float64
	cart   []float64
	sphScr [2][]float64
	out    []float64

	// PairScratch's pair and the storage it is filled into.
	pair       ShellPair
	pairPrims  []primPair
	pairFloats []float64

	// Scratch of the generated kernels beyond total Hermite order 4
	// (kernels_gen.go), fixed-size so they never touch the allocator: the
	// stride-9 Hermite recursion cube (its m = 0 plane holds the final R
	// values) and the g[braHermite][ketComp] two-phase intermediate. The
	// straight-line kernels keep R and g on their own stack. genCartT is
	// the growable mirror-transpose buffer.
	kraux9   [6561]float64
	genG     [35][36]float64
	genCartT []float64

	// Member sets of a kernel call: one holds eriCartAuto's one-member
	// bra and ket, set the bra and ket members of an ERIBatch sibling
	// group (kept apart because a group may run its members through
	// eriCartAuto).
	one    [2]memberSet
	set    [2]memberSet
	setOff [maxMembers][maxMembers]int
}

// NewEngine returns an Engine with prescreening disabled.
func NewEngine() *Engine { return &Engine{} }

// Pair builds a ShellPair using the engine's PrimTol.
func (e *Engine) Pair(a, b *basis.Shell) *ShellPair {
	return NewShellPair(a, b, e.PrimTol)
}

// PairScratch is Pair into engine-owned storage, for a pair used once:
// the result is valid until the next PairScratch call, and a warmed
// engine fills it without allocating.
func (e *Engine) PairScratch(a, b *basis.Shell) *ShellPair {
	used := 0
	fillShellPair(&e.pair, a, b, e.PrimTol, nil,
		func(n int) []primPair { return grow(&e.pairPrims, n) },
		func(n int) []float64 {
			if used+n > cap(e.pairFloats) {
				// Blocks already handed out keep the old buffer; the next
				// call finds room for both in this one.
				e.pairFloats = make([]float64, 2*(used+n))
				used = 0
			}
			blk := e.pairFloats[used : used+n : used+n]
			used += n
			clear(blk)
			return blk
		})
	return &e.pair
}

func (e *Engine) ensure(buf *[]float64, n int) []float64 { return grow(buf, n) }

// grow returns (*buf)[:n], reallocating only when the capacity is short.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// DefaultScratchBudget is the TrimScratch budget used when 0 is passed:
// comfortably above the ~120 KiB working set of a (dd|dd) quartet, so
// trimming is a no-op for ordinary basis sets.
const DefaultScratchBudget = 256 << 10

// ScratchBytes reports the engine's current growable scratch footprint in
// bytes (the fixed-size kernel scratch is excluded; it is part of the
// Engine struct itself. So is PairScratch's storage, one pair's worth).
func (e *Engine) ScratchBytes() int {
	n := cap(e.raux) + cap(e.gtab) + cap(e.cart) +
		cap(e.sphScr[0]) + cap(e.sphScr[1]) + cap(e.out) + cap(e.genCartT)
	return n * 8
}

// TrimScratch releases the engine's growable scratch if it exceeds budget
// bytes (0 means DefaultScratchBudget). ensure() deliberately never
// shrinks, so a single huge quartet would otherwise pin peak-sized
// buffers per worker for the rest of an SCF run; the Fock builders call
// this at episode boundaries (never inside a batch — returned batches
// alias the scratch).
func (e *Engine) TrimScratch(budget int) {
	if budget <= 0 {
		budget = DefaultScratchBudget
	}
	if e.ScratchBytes() <= budget {
		return
	}
	e.raux, e.gtab, e.cart = nil, nil, nil
	e.sphScr[0], e.sphScr[1], e.out = nil, nil, nil
	e.genCartT = nil
}

// ERI computes the contracted, spherical shell-quartet batch
// (bra.A bra.B | ket.A ket.B), returned row-major with indices
// [a][b][c][d]. The returned slice is engine-owned scratch, valid until
// the next engine call; copy it to retain it.
func (e *Engine) ERI(bra, ket *ShellPair) []float64 {
	cart := e.eriCartAuto(bra, ket)
	sph := sphTransform4(bra.LA, bra.LB, ket.LA, ket.LB, cart, &e.sphScr)
	n := len(sph)
	e.Stats.Quartets++
	e.Stats.Integrals += int64(n)
	out := e.ensure(&e.out, n)
	copy(out, sph)
	return out
}

// ERICart computes the contracted Cartesian quartet batch (used by tests
// to compare against the Obara-Saika oracle). Engine-owned scratch.
func (e *Engine) ERICart(bra, ket *ShellPair) []float64 {
	return e.eriCart(bra, ket)
}

const twoPiPow52 = 2 * 17.493418327624862846 // 2 * pi^{5/2}

func (e *Engine) eriCart(bra, ket *ShellPair) []float64 {
	la, lb, lc, ld := bra.LA, bra.LB, ket.LA, ket.LB
	ca, cb, cc2, cd := CartComponents(la), CartComponents(lb), CartComponents(lc), CartComponents(ld)
	na, nb, nc, nd := len(ca), len(cb), len(cc2), len(cd)
	nket := nc * nd
	ltot := la + lb + lc + ld
	lab := la + lb
	lcd := lc + ld
	tdAB := lab + 1
	td := ltot + 1
	td2, td3 := td*td, td*td*td

	cart := e.ensure(&e.cart, na*nb*nc*nd)
	for i := range cart {
		cart[i] = 0
	}
	raux := e.ensure(&e.raux, (ltot+1)*td3)
	gdim := tdAB * tdAB * tdAB
	gtab := e.ensure(&e.gtab, nket*gdim)

	jdimB := lb + 1
	jdimD := ld + 1
	tdimAB := lab + 1
	tdimCD := lcd + 1

	e.Stats.PrimQuartets += int64(len(bra.prims) * len(ket.prims))
	for bi := range bra.prims {
		bp := &bra.prims[bi]
		for ki := range ket.prims {
			kp := &ket.prims[ki]
			s := 1 / (bp.p + kp.p)
			alpha := bp.p * kp.p * s
			pref := bp.c * kp.c * math.Sqrt(s)
			pq := bp.P.Sub(kp.P)
			Boys(ltot, alpha*pq.Norm2(), e.boys[:])
			rtab := hermiteRTable(ltot, alpha, pq, e.boys[:], raux)

			// Build g[ketcomp][t][u][v] = sum_{tau,nu,phi}
			//   (-1)^{tau+nu+phi} Ecd R_{t+tau, u+nu, v+phi}.
			exC, eyC, ezC := ket.eTables(ki)
			for ic, cC := range cc2 {
				for id, cD := range cd {
					g := gtab[(ic*nd+id)*gdim : (ic*nd+id+1)*gdim]
					exBase := (cC.X*jdimD + cD.X) * tdimCD
					eyBase := (cC.Y*jdimD + cD.Y) * tdimCD
					ezBase := (cC.Z*jdimD + cD.Z) * tdimCD
					tmaxC := cC.X + cD.X
					umaxC := cC.Y + cD.Y
					vmaxC := cC.Z + cD.Z
					for t := 0; t <= lab; t++ {
						for u := 0; u <= lab-t; u++ {
							for v := 0; v <= lab-t-u; v++ {
								var s float64
								for tau := 0; tau <= tmaxC; tau++ {
									ex := exC[exBase+tau]
									if ex == 0 {
										continue
									}
									if tau&1 == 1 {
										ex = -ex
									}
									for nu := 0; nu <= umaxC; nu++ {
										ey := eyC[eyBase+nu]
										if ey == 0 {
											continue
										}
										if nu&1 == 1 {
											ey = -ey
										}
										exy := ex * ey
										rrow := rtab[(t+tau)*td2+(u+nu)*td:]
										for phi := 0; phi <= vmaxC; phi++ {
											ez := ezC[ezBase+phi]
											if ez == 0 {
												continue
											}
											if phi&1 == 1 {
												ez = -ez
											}
											s += exy * ez * rrow[v+phi]
										}
									}
								}
								g[(t*tdAB+u)*tdAB+v] = s
							}
						}
					}
				}
			}

			// Contract bra E coefficients with g.
			exA, eyA, ezA := bra.eTables(bi)
			for ia, cA := range ca {
				for ib, cB := range cb {
					exBase := (cA.X*jdimB + cB.X) * tdimAB
					eyBase := (cA.Y*jdimB + cB.Y) * tdimAB
					ezBase := (cA.Z*jdimB + cB.Z) * tdimAB
					tmax := cA.X + cB.X
					umax := cA.Y + cB.Y
					vmax := cA.Z + cB.Z
					braBase := (ia*nb + ib) * nket
					for kc := 0; kc < nket; kc++ {
						g := gtab[kc*gdim : (kc+1)*gdim]
						var s float64
						for t := 0; t <= tmax; t++ {
							ex := exA[exBase+t]
							if ex == 0 {
								continue
							}
							for u := 0; u <= umax; u++ {
								ey := eyA[eyBase+u]
								if ey == 0 {
									continue
								}
								exy := ex * ey
								grow := g[(t*tdAB+u)*tdAB:]
								for v := 0; v <= vmax; v++ {
									ez := ezA[ezBase+v]
									if ez != 0 {
										s += exy * ez * grow[v]
									}
								}
							}
						}
						cart[braBase+kc] += pref * s
					}
				}
			}
		}
	}
	return cart
}
