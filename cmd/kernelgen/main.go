// Command kernelgen generates the specialized ERI kernels of
// internal/integrals/kernels_gen.go: every quartet class up to d shells,
// over member sets of sibling shell pairs.
//
// It walks the McMurchie-Davidson Hermite expansion at generation time:
// for each quartet class (a bra pair class x a ket pair class) it
// enumerates, per component pair, the sparse E-coefficient structure —
// every term is a product of up to three 1D E-table entries at a
// compile-time-known Hermite index — and emits branch-free Go in one
// shape for every class:
//
//  1. the folded term coefficients, times the primitive pair's
//     contraction factor c, are built once per primitive pair
//     (genTermsXX builders, called when a ShellPair is filled; one
//     layout for bra and ket use — the ket-side (-1)^(t+u+v) phase is a
//     sign in the kernel text; an ss pair's one term is c itself, read
//     from its primPair record),
//  2. per bra primitive, phase 1 accumulates the ket terms . R over the
//     ket primitives into the g[braHermite][ketComp] intermediate, and
//  3. phase 2 contracts the bra terms against g once per bra primitive.
//
// Every primitive quartet opens with the same prologue over the two
// 40-byte primPair records: s = 1/(p+q), alpha = p q s, and R scaled by
// sqrt(s) (emitPrologue).
//
// A kernel serves a member set per side: the sibling pairs of one shell
// family (shells on one atom with identical exponents, so the pair
// table lays their primitive pairs out alike). The prologue, the Boys
// values and R are computed once per primitive quartet at the highest
// order of the set; phase 1 runs once per ket member, phase 2 once per
// bra x ket member, each writing its own output block. A one-member set
// is an ordinary quartet.
//
// Classes of total Hermite order <= 4 — every all-s/p class, and the d
// classes up to (ds|ds), (pd|ps), (dd|ss) — are straight-line: the Boys
// values come from the tabulated scheme of boys.go unrolled in place into
// a local array (emitBoys), R is an unrolled recursion into a compact
// local array of at most 35 entries (genHermR1..4), g a local array, both
// phases fully unrolled. Higher orders, one-member sets only, call Boys
// and keep R in the fixed stride-9 cube so phase 1 can loop over the bra
// Hermite indices with constant ket offsets. Only canonical side pairs
// are emitted (the higher class on the bra, see side.rank); the mirrored
// combinations are served by calling the swapped kernel and transposing
// (bra-ket symmetry plus the R(-PQ) parity identity make the swapped
// output exactly the transpose).
//
// The generator re-derives the small amount of integrals-package layout
// it depends on (Cartesian component order, E-table flat indexing, the
// primPair/ShellPair/memberSet field set) rather than importing the
// package, so it builds standalone; the property sweep in
// kernels_gen_test.go is what actually pins the two in agreement.
// Regenerate with
//
//	go generate ./internal/integrals
//
// main_test.go fails the suite when the committed file drifts from what
// generate returns.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"log"
	"os"
	"sort"
	"strings"
)

type cart struct{ x, y, z int }

func (c cart) add(o cart) cart { return cart{c.x + o.x, c.y + o.y, c.z + o.z} }
func (c cart) ord() int        { return c.x + c.y + c.z }

// off9 is the flat offset of Hermite index c in the stride-9 R cube.
func (c cart) off9() int { return (c.x*rStride+c.y)*rStride + c.z }

// cartComponents mirrors integrals.CartComponents: lx descending, then
// ly descending.
func cartComponents(l int) []cart {
	var cs []cart
	for x := l; x >= 0; x-- {
		for y := l - x; y >= 0; y-- {
			cs = append(cs, cart{x, y, l - x - y})
		}
	}
	return cs
}

func numCart(l int) int { return (l + 1) * (l + 2) / 2 }

// rStride is the fixed per-dimension stride of the Hermite R cube of the
// classes beyond maxCompactOrd: bra t + ket tau reaches at most 4+4 = 8
// per dimension for (dd|dd), so 9 indices per dimension cover every
// class.
const rStride = 9

// maxCompactOrd is the largest total Hermite order served by the compact
// R array of the straight-line kernels: (pp|pp), 35 entries.
const maxCompactOrd = 4

// hermList enumerates the Hermite indices (t,u,v) order-major (total
// order 0..4; within an order t descending, then u descending), so the
// first hermPrefix[L] entries are exactly the indices a side of total
// angular momentum L reaches. It is both the row order of g and the
// layout of the compact R array.
var (
	hermList   []cart
	hermPrefix [maxCompactOrd + 1]int
	hermIndex  = map[cart]int{}
)

func init() {
	for ord := 0; ord <= maxCompactOrd; ord++ {
		for t := ord; t >= 0; t-- {
			for u := ord - t; u >= 0; u-- {
				c := cart{t, u, ord - t - u}
				hermIndex[c] = len(hermList)
				hermList = append(hermList, c)
			}
		}
		hermPrefix[ord] = len(hermList)
	}
}

// class is one shell-pair layout. sp and sd quartet sides are served by
// the ps and ds entries: their flat E-table offsets and component-pair
// orders coincide numerically, so the same builders and kernels apply.
// pd and dp do NOT alias (their component-pair orders diverge) and get
// separate entries.
type class struct {
	name   string
	la, lb int
}

func (c class) ord() int        { return c.la + c.lb }
func (c class) ncomp() int      { return numCart(c.la) * numCart(c.lb) }
func (c class) esz() int        { return (c.la + 1) * (c.lb + 1) * (c.la + c.lb + 1) }
func (c class) builder() string { return "genTerms" + strings.ToUpper(c.name) }

// classes in canonical dispatch order; indices must match the Class*
// constants in kernels.go.
var classes = []class{
	{"ss", 0, 0}, {"ps", 1, 0}, {"pp", 1, 1},
	{"ds", 2, 0}, {"pd", 1, 2}, {"dp", 2, 1}, {"dd", 2, 2},
}

// term is one constant-folded Hermite expansion term of a component
// pair: a product of E-table entries (one per dimension carrying
// angular momentum) and its Hermite index (t,u,v).
type term struct {
	slot    int
	factors []int // E-table flat offset per factor
	facDims []int // dimension of each factor
	herm    cart
}

// odd reports whether the ket-side phase (-1)^(t+u+v) flips the term.
func (t term) odd() bool { return t.herm.ord()%2 == 1 }

// classTerms is a class plus its full folded term structure: pairs[c]
// lists the terms of component pair c, slots is the total term count
// (the builder's output length). The ss class has one factor-free term
// (E^{000} = 1) and no slots: its coefficient is the primitive pair's c,
// read from the primPair record.
type classTerms struct {
	class
	pairs [][]term
	slots int
}

func buildTerms(c class) *classTerms {
	ct := &classTerms{class: c}
	ca, cb := cartComponents(c.la), cartComponents(c.lb)
	jdim, tdim := c.lb+1, c.la+c.lb+1
	for _, A := range ca {
		ax := [3]int{A.x, A.y, A.z}
		for _, B := range cb {
			bx := [3]int{B.x, B.y, B.z}
			terms := []term{{}}
			for d := 0; d < 3; d++ {
				i, j := ax[d], bx[d]
				if i+j == 0 {
					continue // E^{00}_0 = 1 contributes no factor
				}
				base := (i*jdim + j) * tdim
				var next []term
				for _, tm := range terms {
					for t := 0; t <= i+j; t++ {
						nt := term{
							factors: append(append([]int{}, tm.factors...), base+t),
							facDims: append(append([]int{}, tm.facDims...), d),
							herm:    tm.herm,
						}
						switch d {
						case 0:
							nt.herm.x += t
						case 1:
							nt.herm.y += t
						default:
							nt.herm.z += t
						}
						next = append(next, nt)
					}
				}
				terms = next
			}
			if c.ord() > 0 {
				for i := range terms {
					terms[i].slot = ct.slots
					ct.slots++
				}
			}
			ct.pairs = append(ct.pairs, terms)
		}
	}
	return ct
}

func emitHeader(w *bytes.Buffer) {
	fmt.Fprint(w, `// Code generated by gtfock/cmd/kernelgen; DO NOT EDIT.
//
// Specialized ERI kernels for every quartet class up to d shells,
// produced by constant-folding the McMurchie-Davidson Hermite expansion
// per component pair. See
// cmd/kernelgen and DESIGN.md section 8 for the scheme; regenerate with
//
//	go generate ./internal/integrals

package integrals

import "math"

`)
	var offs []string
	for _, c := range hermList {
		offs = append(offs, fmt.Sprint(c.off9()))
	}
	fmt.Fprintf(w, `// genHermOff9 lists the flat offsets of the Hermite indices (t,u,v) in
// the stride-9 R cube, order-major (order 0..4; within an order t then u
// descending), so the first entries are exactly the indices a bra of a
// given total angular momentum reaches.
var genHermOff9 = [%d]int16{%s}

`, len(hermList), strings.Join(offs, ", "))
}

func emitBuilder(w *bytes.Buffer, ct *classTerms) {
	fmt.Fprintf(w, "// %s fills t with the %d folded Hermite expansion terms of one\n", ct.builder(), ct.slots)
	fmt.Fprintf(w, "// primitive pair of a %s-class shell pair (la=%d, lb=%d), one slot per\n", ct.name, ct.la, ct.lb)
	fmt.Fprintf(w, "// E-coefficient product times the pair's factor c, from its x, y and z\n")
	fmt.Fprintf(w, "// E tables es.\n")
	fmt.Fprintf(w, "func %s(c float64, es, ts []float64) {\n", ct.builder())
	fmt.Fprintf(w, "t := (*[%d]float64)(ts)\n", ct.slots)
	for d := 0; d < 3; d++ {
		fmt.Fprintf(w, "e%d := (*[%d]float64)(es[%d:])\n", d, ct.esz(), d*ct.esz())
	}
	for _, pair := range ct.pairs {
		for _, tm := range pair {
			parts := []string{"c"}
			for k, off := range tm.factors {
				parts = append(parts, fmt.Sprintf("e%d[%d]", tm.facDims[k], off))
			}
			fmt.Fprintf(w, "t[%d] = %s\n", tm.slot, strings.Join(parts, " * "))
		}
	}
	fmt.Fprint(w, "}\n\n")
}

// rkey names one auxiliary Hermite integral R^m_{tuv}.
type rkey struct {
	m int
	h cart
}

func (k rkey) name() string { return fmt.Sprintf("a%d_%d%d%d", k.m, k.h.x, k.h.y, k.h.z) }

// rdeps returns the recursion inputs of R^m_{tuv} (order > 0), lowering
// the first nonzero of t, u, v: R^m_{tuv} = (t-1) R^{m+1}_{t-2,u,v} +
// PQ_x R^{m+1}_{t-1,u,v}. first is the (n-1) term (nil when n = 1).
func rdeps(k rkey) (first *rkey, second rkey, dim string, n int) {
	h := k.h
	var c *int
	switch {
	case h.x > 0:
		dim, c = "x", &h.x
	case h.y > 0:
		dim, c = "y", &h.y
	default:
		dim, c = "z", &h.z
	}
	n = *c
	*c = n - 1
	second = rkey{k.m + 1, h}
	if n > 1 {
		*c = n - 2
		first = &rkey{k.m + 1, h}
	}
	return
}

// emitHermR emits genHermR<l>: the unrolled Hermite recursion for total
// order <= l into the compact hermList-ordered array. Only the auxiliary
// R^m (m > 0) the outputs depend on are computed, as local scalars.
func emitHermR(w *bytes.Buffer, l int) {
	n := hermPrefix[l]
	need := map[rkey]bool{}
	var visit func(k rkey)
	visit = func(k rkey) {
		if need[k] {
			return
		}
		need[k] = true
		if k.h.ord() == 0 {
			return
		}
		first, second, _, _ := rdeps(k)
		if first != nil {
			visit(*first)
		}
		visit(second)
	}
	for _, h := range hermList[:n] {
		visit(rkey{0, h})
	}
	keys := make([]rkey, 0, len(need))
	for k := range need {
		keys = append(keys, k)
	}
	// Dependencies have strictly lower order: emit order-major, then m,
	// then hermList position.
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.h.ord() != b.h.ord() {
			return a.h.ord() < b.h.ord()
		}
		if a.m != b.m {
			return a.m < b.m
		}
		return hermIndex[a.h] < hermIndex[b.h]
	})

	fmt.Fprintf(w, "// genHermR%d fills r with the Hermite Coulomb integrals R^0_{tuv}(a, PQ),\n", l)
	fmt.Fprintf(w, "// t+u+v <= %d, scaled by s, in genHermOff9's index order, from the Boys\n", l)
	fmt.Fprintf(w, "// values f[m] = F_m(a |PQ|^2): the recursion unrolled, auxiliary orders\n")
	fmt.Fprintf(w, "// held in locals.\n")
	fmt.Fprintf(w, "func genHermR%d(s, a, x, y, z float64, f *[%d]float64, r *[%d]float64) {\n", l, l+1, n)
	fmt.Fprint(w, "m2a := -2 * a\n")
	lhs := func(k rkey) string {
		if k.m == 0 {
			return fmt.Sprintf("r[%d] =", hermIndex[k.h])
		}
		return k.name() + " :="
	}
	for _, k := range keys {
		if k.h.ord() == 0 {
			if k.m > 0 {
				fmt.Fprint(w, "s *= m2a\n")
			}
			fmt.Fprintf(w, "%s s * f[%d]\n", lhs(k), k.m)
			continue
		}
		first, second, dim, cnt := rdeps(k)
		expr := fmt.Sprintf("%s * %s", dim, second.name())
		if first != nil {
			if cnt == 2 {
				expr = fmt.Sprintf("%s + %s", first.name(), expr)
			} else {
				expr = fmt.Sprintf("%d*%s + %s", cnt-1, first.name(), expr)
			}
		}
		fmt.Fprintf(w, "%s %s\n", lhs(k), expr)
	}
	fmt.Fprint(w, "}\n\n")
}

// coef renders the coefficient of term tm of member m on the bra ("b")
// or ket ("k") side: its slot in the member's term row, or for the
// factor-free ss term the primitive pair's c, which emitTermRow loads.
func coef(sideName string, m int, tm term) string {
	if len(tm.factors) > 0 {
		return fmt.Sprintf("%st%d[%d]", sideName, m, tm.slot)
	}
	return fmt.Sprintf("%sc%d", sideName, m)
}

// emitTermRow loads member m's term row on the bra ("b", primitive bi)
// or ket ("k", primitive ki) side — for an ss member the c of its
// primitive pair into a local (member 0's record is the loop's bp/kp).
func emitTermRow(w *bytes.Buffer, sideName string, m int, ct *classTerms) {
	idx := map[string]string{"b": "bi", "k": "ki"}[sideName]
	switch {
	case ct.slots > 0:
		fmt.Fprintf(w, "%st%d := (*[%d]float64)(%s%d.terms[%d*%s:])\n", sideName, m, ct.slots, sideName, m, ct.slots, idx)
	case m == 0:
		fmt.Fprintf(w, "%sc0 := %sp.c\n", sideName, sideName)
	default:
		fmt.Fprintf(w, "%sc%d := %s%d.prims[%s].c\n", sideName, m, sideName, m, idx)
	}
}

// ketSum renders the phase-1 sum of one ket component pair's terms of
// ket member j against R, with rAt giving the R operand of a ket Hermite
// index; the ket phase is the emitted sign.
func ketSum(j int, terms []term, rAt func(cart) string) string {
	var b strings.Builder
	for i, tm := range terms {
		switch {
		case tm.odd():
			b.WriteString(" - ")
		case i > 0:
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "%s*%s", coef("k", j, tm), rAt(tm.herm))
	}
	return strings.TrimPrefix(b.String(), " ")
}

// side is the member set one side of a kernel serves: the pair classes
// of its sibling pairs, in the order the pair table lists them (lower L
// first). A one-member side is an ordinary quartet side.
type side []*classTerms

func (s side) name() string {
	var b strings.Builder
	for _, c := range s {
		b.WriteString(c.name)
	}
	return b.String()
}

func (s side) maxOrd() int {
	o := 0
	for _, c := range s {
		o = max(o, c.ord())
	}
	return o
}

// id is the side's name in the kernel table: its pair class constant for
// one member, a side constant for a set.
func (s side) id() string {
	if len(s) == 1 {
		return "Class" + strings.ToUpper(s[0].name)
	}
	return "side" + strings.ToUpper(s.name())
}

// rank orders sides for the canonical orientation of a kernel: the side
// with the higher class on the bra, as phase 1 — the per-primitive-
// quartet part — then runs the cheaper ket terms; more members next,
// then the classes in member order. Distinct sides rank distinctly.
func (s side) rank() []int {
	idx := func(c *classTerms) int {
		for i := range classes {
			if classes[i].name == c.name {
				return i
			}
		}
		panic("unknown class " + c.name)
	}
	top := 0
	for _, c := range s {
		top = max(top, idx(c))
	}
	r := []int{top, len(s)}
	for _, c := range s {
		r = append(r, idx(c))
	}
	return r
}

// canonical reports whether (bra|ket) is the emitted orientation of its
// side pair.
func canonical(bra, ket side) bool {
	a, b := bra.rank(), ket.rank()
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] > b[i]
		}
	}
	return len(a) >= len(b)
}

func kernelName(bra, ket side) string { return "eriGen_" + bra.name() + "_" + ket.name() }

// familyShapes are the angular momenta of the shell families of the
// basis library (shells on one atom with identical exponents), lower L
// first: the Pople 2s+2p shells (sto-3g, 6-31g) and the two contracted s
// shells of cc-pVXZ carbon. Paired with a first shell of L <= 2 each
// gives a two-member side.
var familyShapes = [][2]int{{0, 1}, {0, 0}}

// classOf mirrors integrals.pairClassOf for la, lb <= 2.
func classOf(la, lb int) int {
	return [9]int{0, 1, 3, 1, 2, 4, 3, 5, 6}[la*3+lb]
}

// sides lists the kernel table's sides: one per pair class (in class
// order, so a one-member side's id is its class), then the two-member
// sides of familyShapes.
func sides(cts []*classTerms) []side {
	var out []side
	for _, ct := range cts {
		out = append(out, side{ct})
	}
	for lm := 0; lm <= 2; lm++ {
		for _, sh := range familyShapes {
			out = append(out, side{cts[classOf(lm, sh[0])], cts[classOf(lm, sh[1])]})
		}
	}
	return out
}

// emitPrologue opens a kernel over the member sets bra and ket: its
// members, the zeroed output of total entries, then the bra-primitive
// and ket-primitive loops (over member 0's primitive pairs, which every
// member shares) up to the shared per-primitive-quartet scalars and the
// ket members' term rows. decls precede the loops; zeroG is the
// per-bra-primitive reset of the g intermediates.
func emitPrologue(w *bytes.Buffer, bra, ket side, total int, decls, zeroG string) {
	name := kernelName(bra, ket)
	if len(bra) == 1 && len(ket) == 1 {
		fmt.Fprintf(w, "// %s computes a contracted Cartesian (%s|%s)-class quartet,\n", name, bra[0].name, ket[0].name)
		fmt.Fprintf(w, "// row-major over bra then ket component pairs (%d x %d).\n", bra[0].ncomp(), ket[0].ncomp())
	} else {
		fmt.Fprintf(w, "// %s computes the contracted Cartesian quartets of a\n", name)
		fmt.Fprintf(w, "// (%s|%s) member set, one row-major block per bra x ket member in\n", strings.Join(names(bra), ","), strings.Join(names(ket), ","))
		fmt.Fprint(w, "// bra-major order.\n")
	}
	fmt.Fprintf(w, "func %s(e *Engine, bra, ket *memberSet) []float64 {\n", name)
	for i := range bra {
		fmt.Fprintf(w, "b%d := bra[%d]\n", i, i)
	}
	for j := range ket {
		fmt.Fprintf(w, "k%d := ket[%d]\n", j, j)
	}
	fmt.Fprintf(w, "cart := e.ensure(&e.cart, %d)\n", total)
	fmt.Fprintf(w, "cv := (*[%d]float64)(cart)\n", total)
	fmt.Fprintf(w, "*cv = [%d]float64{}\n", total)
	fmt.Fprint(w, decls)
	fmt.Fprint(w, "for bi := range b0.prims {\n")
	fmt.Fprint(w, "bp := &b0.prims[bi]\n")
	fmt.Fprint(w, zeroG)
	fmt.Fprint(w, "for ki := range k0.prims {\n")
	fmt.Fprint(w, "kp := &k0.prims[ki]\n")
	fmt.Fprint(w, "s := 1 / (bp.p + kp.p)\n")
	fmt.Fprint(w, "alpha := bp.p * kp.p * s\n")
	fmt.Fprint(w, "sq := math.Sqrt(s)\n")
	fmt.Fprint(w, "pq := bp.P.Sub(kp.P)\n")
	if len(ket) == 1 && ket[0].ord() == 0 {
		return // a lone ss ket's c scales R (emitKernelFlat)
	}
	for j, k := range ket {
		emitTermRow(w, "k", j, k)
	}
}

func names(s side) []string {
	var out []string
	for _, c := range s {
		out = append(out, c.name)
	}
	return out
}

// emitBoys emits x = alpha |PQ|^2 and the Boys values f[m] = F_m(x),
// m <= l: integrals.Boys unrolled for a fixed order. Below the crossover
// the top order and exp(-x) are one table row each (the unsigned index
// test doubles as the rows' bounds check) and the lower orders follow by
// downward recursion with constant reciprocals; above it F_0 is its
// asymptote and the orders go upward.
func emitBoys(w *bytes.Buffer, l int) {
	fmt.Fprint(w, "x := alpha * pq.Norm2()\n")
	fmt.Fprint(w, "if i := int(x*boysInvDX + 0.5); uint(i) < boysGridN {\n")
	fmt.Fprint(w, "d := x - float64(i)*boysDX\n")
	fmt.Fprintf(w, "f[%d] = boysPoly(&boysTab[%d][i], d)\n", l, l)
	if l > 0 {
		fmt.Fprint(w, "ex := boysPoly(&boysTab[boysExp][i], d)\n")
	}
	for m := l; m > 1; m-- {
		fmt.Fprintf(w, "f[%d] = (2*x*f[%d] + ex) * (1.0 / %d)\n", m-1, m, 2*m-1)
	}
	if l > 0 {
		fmt.Fprint(w, "f[0] = 2*x*f[1] + ex\n")
	}
	fmt.Fprint(w, "} else {\n")
	fmt.Fprint(w, "h := 0.5 / x\n")
	fmt.Fprint(w, "f[0] = math.Sqrt(math.Pi / 2 * h)\n")
	if l > 0 {
		fmt.Fprint(w, "f[1] = h * f[0]\n")
	}
	for m := 1; m < l; m++ {
		fmt.Fprintf(w, "f[%d] = %d * h * f[%d]\n", m+1, 2*m+1, m)
	}
	fmt.Fprint(w, "}\n")
}

// emitKernelFlat emits a straight-line kernel over the member sets bra
// and ket, of total order at most maxCompactOrd: one compact R per
// primitive quartet at the sets' highest order, phase 1 fully unrolled
// per ket member into its local g, phase 2 per bra x ket member into its
// output block.
func emitKernelFlat(w *bytes.Buffer, bra, ket side) {
	ltot := bra.maxOrd() + ket.maxOrd()
	nbh := hermPrefix[bra.maxOrd()]
	off := make([][]int, len(bra))
	total := 0
	for i, b := range bra {
		off[i] = make([]int, len(ket))
		for j, k := range ket {
			off[i][j] = total
			total += b.ncomp() * k.ncomp()
		}
	}
	decls := fmt.Sprintf("var f [%d]float64\n", ltot+1)
	rAt := func(h cart) string { return "r0" } // R_000 of an order-0 set
	if ltot > 0 {
		decls += fmt.Sprintf("var r [%d]float64\n", hermPrefix[ltot])
		rAt = func(h cart) string { return fmt.Sprintf("r[%d]", hermIndex[h]) }
	}
	var zeroG strings.Builder
	for j, k := range ket {
		fmt.Fprintf(&zeroG, "var g%d [%d]float64\n", j, nbh*k.ncomp())
	}
	emitPrologue(w, bra, ket, total, decls, zeroG.String())
	emitBoys(w, ltot)
	// A lone ss ket's one coefficient, kp.c, scales R instead of every
	// phase-1 term.
	scale, foldC := "sq", len(ket) == 1 && ket[0].ord() == 0
	if foldC {
		scale = "sq * kp.c"
	}
	if ltot > 0 {
		fmt.Fprintf(w, "genHermR%d(%s, alpha, pq.X, pq.Y, pq.Z, &f, &r)\n", ltot, scale)
	} else {
		fmt.Fprintf(w, "r0 := %s * f[0]\n", scale)
	}
	// Phase 1, per ket member: its terms against R at every
	// bra-reachable Hermite index, accumulated over the ket primitives.
	for j, k := range ket {
		nk := k.ncomp()
		for h := 0; h < nbh; h++ {
			for kc, pair := range k.pairs {
				rh := func(tau cart) string { return rAt(hermList[h].add(tau)) }
				sum := ketSum(j, pair, rh)
				if foldC {
					sum = rh(cart{})
				}
				fmt.Fprintf(w, "g%d[%d] += %s\n", j, h*nk+kc, sum)
			}
		}
	}
	fmt.Fprint(w, "}\n")
	// Phase 2, per bra x ket member: bra terms against g, once per bra
	// primitive.
	for i, b := range bra {
		emitTermRow(w, "b", i, b)
		for j, k := range ket {
			nk := k.ncomp()
			for ab, terms := range b.pairs {
				for kc := 0; kc < nk; kc++ {
					var parts []string
					for _, tm := range terms {
						parts = append(parts, fmt.Sprintf("%s*g%d[%d]", coef("b", i, tm), j, hermIndex[tm.herm]*nk+kc))
					}
					fmt.Fprintf(w, "cv[%d] += %s\n", off[i][j]+ab*nk+kc, strings.Join(parts, " + "))
				}
			}
		}
	}
	fmt.Fprint(w, "}\nreturn cart\n}\n\n")
}

// emitKernelCube emits a one-member kernel for a class beyond
// maxCompactOrd: R in the stride-9 cube, phase 1 looping over the bra
// Hermite indices with constant ket offsets, phase 2 one fused axpy loop
// per bra component pair.
func emitKernelCube(w *bytes.Buffer, b, k *classTerms) {
	nk := k.ncomp()
	ltot := b.ord() + k.ord()
	nbh := hermPrefix[b.ord()]
	emitPrologue(w, side{b}, side{k}, b.ncomp()*nk, "",
		fmt.Sprintf("for h := 0; h < %d; h++ {\n*(*[%d]float64)(e.genG[h][:]) = [%d]float64{}\n}\n", nbh, nk, nk))
	fmt.Fprintf(w, "Boys(%d, alpha*pq.Norm2(), e.boys[:%d])\n", ltot, ltot+1)
	fmt.Fprintf(w, "hermiteR9(%d, sq, alpha, pq, e.boys[:], &e.kraux9)\n", ltot)
	maxOff := 0
	for _, pair := range k.pairs {
		for _, tm := range pair {
			if o := tm.herm.off9(); o > maxOff {
				maxOff = o
			}
		}
	}
	// Phase 1. rr's constant re-slice length lets the compiler drop the
	// bounds checks on the constant offsets below.
	fmt.Fprintf(w, "for h := 0; h < %d; h++ {\n", nbh)
	fmt.Fprintf(w, "rr := e.kraux9[int(genHermOff9[h]):][:%d]\n", maxOff+1)
	fmt.Fprint(w, "gr := &e.genG[h]\n")
	for kc, pair := range k.pairs {
		fmt.Fprintf(w, "gr[%d] += %s\n", kc, ketSum(0, pair, func(tau cart) string {
			return fmt.Sprintf("rr[%d]", tau.off9())
		}))
	}
	fmt.Fprint(w, "}\n}\n")
	// Phase 2, once per bra primitive.
	fmt.Fprintf(w, "bt := (*[%d]float64)(b0.terms[%d*bi:])\n", b.slots, b.slots)
	for ab, terms := range b.pairs {
		fmt.Fprint(w, "{\n")
		fmt.Fprintf(w, "row := (*[%d]float64)(cart[%d:])\n", nk, ab*nk)
		var sum []string
		for i, tm := range terms {
			fmt.Fprintf(w, "c%d := bt[%d]\n", i, tm.slot)
			fmt.Fprintf(w, "g%d := &e.genG[%d]\n", i, hermIndex[tm.herm])
			sum = append(sum, fmt.Sprintf("c%d*g%d[kc]", i, i))
		}
		fmt.Fprintf(w, "for kc := 0; kc < %d; kc++ {\n", nk)
		fmt.Fprintf(w, "row[kc] += %s\n", strings.Join(sum, " + "))
		fmt.Fprint(w, "}\n}\n")
	}
	fmt.Fprint(w, "}\nreturn cart\n}\n\n")
}

// emitTables emits the per-class term-builder tables, the side
// constants and the side-pair dispatch table.
func emitTables(w *bytes.Buffer, cts []*classTerms, sds []side, kernels [][2]int) {
	fmt.Fprint(w, `// genTermSlots[c] is the number of folded terms per primitive pair of
// pair class c; genTermFill[c] builds them (nil for ss, which has none).
var genTermSlots = [NumPairClasses]int{
`)
	for _, ct := range cts {
		fmt.Fprintf(w, "Class%s: %d,\n", strings.ToUpper(ct.name), ct.slots)
	}
	fmt.Fprint(w, "}\n\nvar genTermFill = [NumPairClasses]func(c float64, es, ts []float64){\n")
	for _, ct := range cts[1:] {
		fmt.Fprintf(w, "Class%s: %s,\n", strings.ToUpper(ct.name), ct.builder())
	}
	fmt.Fprint(w, `}

// The two-member sides of the kernel table, after the NumPairClasses
// one-member sides (whose side id is their pair class).
const (
`)
	for i, sd := range sds[len(cts):] {
		if i == 0 {
			fmt.Fprintf(w, "%s = NumPairClasses + iota\n", sd.id())
		} else {
			fmt.Fprintf(w, "%s\n", sd.id())
		}
	}
	fmt.Fprint(w, `// numGenSides counts the sides of the kernel table.
numGenSides
)

// genPairSide maps the pair classes of a two-member side, in member
// order, to its side id; -1 marks a shape no kernel serves.
var genPairSide = [NumPairClasses][NumPairClasses]int8{
`)
	for c0 := range cts {
		var row []string
		for c1 := range cts {
			v := "-1"
			for _, sd := range sds[len(cts):] {
				if sd[0] == cts[c0] && sd[1] == cts[c1] {
					v = sd.id()
				}
			}
			row = append(row, v)
		}
		fmt.Fprintf(w, "{%s},\n", strings.Join(row, ", "))
	}
	fmt.Fprint(w, `}

// genKernels maps (bra side, ket side) to the kernel of every canonical
// side pair. nil entries are either the mirror of an emitted pair,
// served by calling it swapped and transposing, or two-member pairs
// beyond total order 4, whose members run one at a time.
var genKernels = [numGenSides][numGenSides]func(*Engine, *memberSet, *memberSet) []float64{
`)
	row := -1
	for _, bk := range kernels {
		b, k := bk[0], bk[1]
		if b != row {
			if row >= 0 {
				fmt.Fprint(w, "},\n")
			}
			fmt.Fprintf(w, "%s: {\n", sds[b].id())
			row = b
		}
		fmt.Fprintf(w, "%s: %s,\n", sds[k].id(), kernelName(sds[b], sds[k]))
	}
	fmt.Fprint(w, "},\n}\n")
}

// generate returns the gofmt-formatted source of kernels_gen.go.
func generate() ([]byte, error) {
	cts := make([]*classTerms, len(classes))
	for i, c := range classes {
		cts[i] = buildTerms(c)
	}

	var w bytes.Buffer
	emitHeader(&w)
	for _, ct := range cts[1:] {
		emitBuilder(&w, ct)
	}
	for l := 1; l <= maxCompactOrd; l++ {
		emitHermR(&w, l)
	}
	sds := sides(cts)
	var kernels [][2]int
	for b, bra := range sds {
		for k, ket := range sds {
			if !canonical(bra, ket) {
				continue
			}
			switch flat := bra.maxOrd()+ket.maxOrd() <= maxCompactOrd; {
			case flat:
				emitKernelFlat(&w, bra, ket)
			case len(bra) == 1 && len(ket) == 1:
				emitKernelCube(&w, bra[0], ket[0])
			default:
				continue
			}
			kernels = append(kernels, [2]int{b, k})
		}
	}
	emitTables(&w, cts, sds, kernels)

	src, err := format.Source(w.Bytes())
	if err != nil {
		return nil, fmt.Errorf("kernelgen: generated code does not parse: %v", err)
	}
	return src, nil
}

func main() {
	out := flag.String("out", "kernels_gen.go", "output file (Go source, package integrals)")
	flag.Parse()
	src, err := generate()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, src, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "kernelgen: wrote %s\n", *out)
}
