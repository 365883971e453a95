package integrals

// Specialized ERI kernels for every quartet class up to d shells. The
// general MD recursion in eriCart spends most of its time on branchy
// zero-checked loops over E and R tables that have a handful of nonzero
// entries with known positions. Every class is served by a generated
// kernel instead (kernels_gen.go, see cmd/kernelgen): the folded Hermite
// term coefficients of every primitive pair live in the ShellPair (built
// once when the pair is filled, one layout for bra and ket use), the ket
// primitives are contracted first into a small
// g[braHermite][ketComponent] intermediate, and the bra terms meet g once
// per bra primitive. Classes of total Hermite order <= 4 (every s/p class
// and the lightest d classes; (ss|ss) is the degenerate case, one F_0 per
// primitive quartet) are straight-line code over a compact R array with
// the Boys evaluation unrolled in place; the rest call Boys and loop over
// a fixed stride-9 R cube.
//
// Mirror classes reuse the same kernels: because R_{tuv}(-PQ) =
// (-1)^{t+u+v} R_{tuv}(PQ), a (Y|X) quartet is the transpose of the
// (X|Y) kernel called with the sides swapped. Dispatch lives in
// eriCartAuto; every kernel is cross-checked against the general MD path
// and the Obara-Saika oracle in kernels_test and kernels_gen_test.

import "gtfock/internal/chem"

// Shell-pair classes for kernel dispatch and per-class statistics: the
// seven distinct L<=2 pair layouts. sp and sd pairs are served by the
// ClassPS and ClassDS kernels because their flat E-table offsets and
// component-pair orders coincide numerically; pd and dp do not alias
// (their component-pair orders diverge) and are distinct classes.
const (
	ClassSS = iota
	ClassPS
	ClassPP
	ClassDS
	ClassPD
	ClassDP
	ClassDD
	// NumPairClasses counts the specialized pair classes above.
	NumPairClasses
)

// ClassHi buckets any pair carrying a shell beyond d; such quartets
// always take the general MD path.
const ClassHi = NumPairClasses

// pairClassTab maps la*3+lb (la, lb <= 2) to the pair class.
var pairClassTab = [9]int8{
	ClassSS, ClassPS, ClassDS,
	ClassPS, ClassPP, ClassPD,
	ClassDS, ClassDP, ClassDD,
}

var pairClassNames = [NumPairClasses + 1]string{
	"ss", "ps", "pp", "ds", "pd", "dp", "dd", "hi",
}

// PairClassName returns a short label for a pair-class index
// (ClassSS.."dd", with ClassHi as "hi").
func PairClassName(c int) string {
	if c < 0 || c > ClassHi {
		return "??"
	}
	return pairClassNames[c]
}

// pairClassOf returns the pair class of angular momenta (la, lb).
func pairClassOf(la, lb int) int {
	if la > 2 || lb > 2 {
		return ClassHi
	}
	return int(pairClassTab[la*3+lb])
}

// maxMembers bounds the member set one side of a kernel serves: the
// shell families of the basis library have two shells.
const maxMembers = 2

// memberSet holds the sibling pairs one side of a kernel call serves, in
// order: pairs of one first shell with second shells of one family, which
// the pair table gives the same primitive-pair list (see PairTable). A
// kernel reads only as many members as its side has; a one-member set is
// an ordinary quartet side.
type memberSet [maxMembers]*ShellPair

// eriCartAuto dispatches one quartet to its specialized kernel — a pure
// function of the two pair classes, served as one-member sets — falling
// back to the general MD path for anything beyond d.
func (e *Engine) eriCartAuto(bra, ket *ShellPair) []float64 {
	bc, kc := pairClassOf(bra.LA, bra.LB), pairClassOf(ket.LA, ket.LB)
	e.Stats.ByClass[bc][kc]++
	if e.DisableFastKernels || bc == ClassHi || kc == ClassHi {
		e.Stats.GeneralQuartets++
		return e.eriCart(bra, ket)
	}
	e.countFast(bc, kc)
	e.Stats.PrimQuartets += int64(len(bra.prims) * len(ket.prims))
	e.one[0][0], e.one[1][0] = bra, ket
	if fn := genKernels[bc][kc]; fn != nil {
		return fn(e, &e.one[0], &e.one[1])
	}
	// Non-canonical class (bra class < ket class): bra-ket symmetry makes
	// the swapped kernel's output exactly the [ket][bra] layout of this
	// quartet (within MD this is the R(-PQ) parity identity).
	e.Stats.MirrorGen++
	return e.transpose(genKernels[kc][bc](e, &e.one[1], &e.one[0]), cartLen(bra), cartLen(ket))
}

// countFast counts one quartet of classes (bc, kc) served by a kernel.
func (e *Engine) countFast(bc, kc int) {
	e.Stats.FastQuartets++
	if bc <= ClassPP && kc <= ClassPP {
		e.Stats.FastSP++
	} else {
		e.Stats.FastGen++
	}
}

// cartLen is the number of Cartesian component pairs of sp.
func cartLen(sp *ShellPair) int { return NumCart(sp.LA) * NumCart(sp.LB) }

// transpose returns the nb x nk transpose of the nk x nb block swapped,
// in separate scratch: swapped is kernel output that later members of a
// set still read.
func (e *Engine) transpose(swapped []float64, nb, nk int) []float64 {
	if nb == 1 || nk == 1 {
		return swapped[:nb*nk] // one row or column: the transpose is the identity
	}
	out := e.ensure(&e.genCartT, nb*nk)
	for i := 0; i < nk; i++ {
		col := swapped[i*nb : i*nb+nb]
		for j, v := range col {
			out[j*nk+i] = v
		}
	}
	return out
}

// sideOf returns the kernel-table side of the first n members of s, or
// -1 when no kernel serves it (a pair beyond d, or a family shape the
// generator was not given).
func sideOf(s *memberSet, n int) int {
	c0 := pairClassOf(s[0].LA, s[0].LB)
	if c0 == ClassHi {
		return -1
	}
	if n == 1 {
		return c0
	}
	c1 := pairClassOf(s[1].LA, s[1].LB)
	if c1 == ClassHi {
		return -1
	}
	return int(genPairSide[c0][c1])
}

// groupCart computes the nb x nk member quartets (e.set[0][i] |
// e.set[1][j]) of a sibling group with one kernel call, sharing each
// primitive quartet's prologue, Boys values and R across the members, and
// returns the kernel's output (mirrored: the swapped kernel's) for
// memberCart to read, each member's block offset in e.setOff. It returns
// nil when no kernel serves the side pair (beyond total order 4, a shape
// the generator was not given, or DisableFastKernels): memberCart then
// runs the members one at a time.
func (e *Engine) groupCart(nb, nk int) (cart []float64, mirror bool) {
	bra, ket := &e.set[0], &e.set[1]
	bs, ks := sideOf(bra, nb), sideOf(ket, nk)
	if e.DisableFastKernels || bs < 0 || ks < 0 {
		return nil, false
	}
	if fn := genKernels[bs][ks]; fn != nil {
		cart = fn(e, bra, ket)
	} else if fn := genKernels[ks][bs]; fn != nil {
		cart, mirror = fn(e, ket, bra), true
	} else {
		return nil, false
	}
	e.Stats.PrimQuartets += int64(len(bra[0].prims) * len(ket[0].prims))
	// Blocks are row-major over the kernel's own bra x ket members, so
	// the swapped kernel's are ket-major.
	off := 0
	for x := 0; x < nb*nk; x++ {
		i, j := x/nk, x%nk
		if mirror {
			i, j = x%nb, x/nb
		}
		e.setOff[i][j] = off
		off += cartLen(bra[i]) * cartLen(ket[j])
	}
	return cart, mirror
}

// memberCart returns the Cartesian block of member (i, j) of the group
// groupCart computed — transposed out of the swapped kernel's block when
// mirrored — or computes it on its own when cart is nil.
func (e *Engine) memberCart(cart []float64, mirror bool, i, j int) []float64 {
	b, k := e.set[0][i], e.set[1][j]
	if cart == nil {
		return e.eriCartAuto(b, k)
	}
	bc, kc := pairClassOf(b.LA, b.LB), pairClassOf(k.LA, k.LB)
	e.Stats.ByClass[bc][kc]++
	e.countFast(bc, kc)
	block := cart[e.setOff[i][j]:][:cartLen(b)*cartLen(k)]
	if !mirror {
		return block
	}
	e.Stats.MirrorGen++
	return e.transpose(block, cartLen(b), cartLen(k))
}

//go:generate go run gtfock/cmd/kernelgen -out kernels_gen.go

// hermiteR9 computes the Hermite Coulomb integrals R^0_{tuv} for
// t+u+v <= l (l <= 8), scaled by scale, into the m = 0 plane aux[:729]
// of the stride-9 recursion scratch, for the generated kernels of total
// order > 4: the fixed stride keeps the generation-time R offsets valid
// across every class sharing the cube, and reading the m = 0 plane in
// place saves a copy-out. Entries of order > l are left stale and must
// not be read.
func hermiteR9(l int, scale, alpha float64, pq chem.Vec3, boys []float64, aux *[6561]float64) {
	at := func(m, t, u, v int) int { return m*729 + t*81 + u*9 + v }
	f := scale
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
}
