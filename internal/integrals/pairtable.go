package integrals

// PairTable is the build-wide precomputed shell-pair table: every
// Schwarz-significant ordered shell pair of a basis set, built once and
// shared read-only by all workers of a Fock build (and across SCF
// iterations), replacing the per-worker lazy map[int64]*ShellPair caches.
//
// Pairs are stored in one flat slice sorted by descending Schwarz value
// Q(m,p), so a quartet loop that walks kets in table order can stop at
// the first failing Schwarz product: Q(bra)*Q(ket) is monotone
// non-increasing along the list (Partners is the per-shell version of
// the same idea). Primitive-pair structs,
// E-coefficient tables and the generated kernels' folded Hermite terms
// are carved from one exactly sized store each (see fill) instead of
// thousands of small allocations.
//
// The table also knows the basis's shell families: shells on one atom
// with identical exponents (a Pople 2s and 2p, cc-pVXZ carbon's two
// contracted s shells). The stored pairs (m, p) of one first shell m and
// the second shells p of one family are siblings: they get one
// primitive-pair list (the union of what each keeps at primTol), so a
// kernel computes each primitive quartet's prologue, Boys values and R
// once for all of them (see ERIBatch).

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"gtfock/internal/basis"
)

// PairID indexes a shell pair within a PairTable.
type PairID int32

// NoPair marks an ordered shell pair that is not Schwarz-significant and
// therefore not stored.
const NoPair PairID = -1

// PairTable holds the precomputed significant shell pairs of one basis
// set. Read-only after construction.
type PairTable struct {
	Basis *basis.Set

	pairs []ShellPair
	q     []float64  // Schwarz value per pair, descending
	mp    [][2]int32 // shell indices (m, p) per pair
	index []PairID   // ns*ns ordered-pair index, NoPair if absent
	n     int

	fam      []int32           // per shell: the lowest shell index of its family
	pfam     []int32           // per pair (m, p): m*n + fam[p], equal for siblings
	partners [][]PartnerFamily // per first shell, see Partners
}

// PartnerFamily is the stored pairs (m, p) of one first shell m whose
// second shells p form one shell family, ordered by (L, shell index) —
// the member order of the kernels' sibling sets — with Q the largest of
// their Schwarz values.
type PartnerFamily struct {
	Q     float64
	Pairs []PairID
}

// NewPairTable precomputes the MD pair data for every ordered shell pair
// (m, p) with keep(m, p) true, Schwarz-sorted by descending q(m, p).
// Typical callers use screen.Screening.PairTable, which plugs in the
// Schwarz bounds; q and keep are parameters only to keep this package
// independent of the screening layer. primTol is the primitive
// pre-screening threshold (see NewShellPair).
func NewPairTable(bs *basis.Set, q func(m, p int) float64, keep func(m, p int) bool, primTol float64) *PairTable {
	ns := bs.NumShells()
	t := &PairTable{Basis: bs, n: ns, index: make([]PairID, ns*ns)}
	for i := range t.index {
		t.index[i] = NoPair
	}
	type rec struct {
		m, p int32
		q    float64
	}
	recs := make([]rec, 0, ns*ns)
	for m := 0; m < ns; m++ {
		for p := 0; p < ns; p++ {
			if keep(m, p) {
				recs = append(recs, rec{int32(m), int32(p), q(m, p)})
			}
		}
	}
	// Descending Schwarz value; index order breaks ties so the table is
	// deterministic.
	slices.SortFunc(recs, func(a, b rec) int {
		if c := cmp.Compare(b.q, a.q); c != 0 {
			return c
		}
		if c := cmp.Compare(a.m, b.m); c != 0 {
			return c
		}
		return cmp.Compare(a.p, b.p)
	})
	t.pairs = make([]ShellPair, len(recs))
	t.q = make([]float64, len(recs))
	t.mp = make([][2]int32, len(recs))
	t.pfam = make([]int32, len(recs))
	var members [][]int32
	t.fam, members = shellFamilies(bs)
	for i := range recs {
		r := &recs[i]
		t.q[i] = r.q
		t.mp[i] = [2]int32{r.m, r.p}
		t.pfam[i] = r.m*int32(ns) + t.fam[r.p]
		t.index[int(r.m)*ns+int(r.p)] = PairID(i)
	}
	t.fill(members, primTol)
	t.partners = make([][]PartnerFamily, ns)
	flat := make([]PairID, 0, len(recs))
	fams := make([]PartnerFamily, 0, len(recs))
	for m := 0; m < ns; m++ {
		first := len(fams)
		for _, sib := range members {
			start, q := len(flat), 0.0
			for _, p := range sib {
				if id := t.index[m*ns+int(p)]; id != NoPair {
					flat = append(flat, id)
					q = max(q, t.q[id])
				}
			}
			if len(flat) > start {
				fams = append(fams, PartnerFamily{Q: q, Pairs: flat[start:len(flat):len(flat)]})
			}
		}
		fs := fams[first:len(fams):len(fams)]
		// Stable: ties stay in family order.
		slices.SortStableFunc(fs, func(a, b PartnerFamily) int { return cmp.Compare(b.Q, a.Q) })
		t.partners[m] = fs
	}
	return t
}

// pairOffsets is where one pair's share of each of fill's flat stores
// starts.
type pairOffsets struct{ k3, prims, floats int }

// fill builds every pair's primitive pairs, E tables and folded terms in
// two passes over the table, each on up to GOMAXPROCS goroutines
// (parallelChunks). The first runs every pair's primitive screen, which
// sizes the pair exactly; a prefix sum over the sizes gives each pair its
// share of one store of primitive pairs and one of floats, and the second
// pass fills every pair into its own share. A pair's data depends on its
// shells and its family's screen alone, so the table is the same bit for
// bit on any number of goroutines.
func (t *PairTable) fill(members [][]int32, primTol float64) {
	bs, np := t.Basis, len(t.pairs)
	shells := func(i int) (a, b *basis.Shell) {
		return &bs.Shells[t.mp[i][0]], &bs.Shells[t.mp[i][1]]
	}
	off := make([]pairOffsets, np+1)
	for i := range np {
		a, b := shells(i)
		off[i+1].k3 = off[i].k3 + len(a.Exps)*len(b.Exps)
	}
	k3 := make([]float64, off[np].k3)
	kept := make([]int, np)
	parallelChunks(np, func(lo, hi int) {
		var bmax []float64
		for i := lo; i < hi; i++ {
			a, b := shells(i)
			screen := t.familyScreen(i, members, primTol, &bmax)
			kept[i] = screenPrims(a, b, primTol, screen, k3[off[i].k3:off[i+1].k3])
		}
	})
	for i := range np {
		a, b := shells(i)
		etab, terms := pairFloats(a.L, b.L, kept[i])
		off[i+1].prims = off[i].prims + kept[i]
		off[i+1].floats = off[i].floats + etab + terms
	}
	prims := make([]primPair, off[np].prims)
	floats := make([]float64, off[np].floats)
	parallelChunks(np, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a, b := shells(i)
			o, e := off[i], off[i+1]
			etab, _ := pairFloats(a.L, b.L, kept[i])
			fl := floats[o.floats:e.floats:e.floats]
			fillPair(&t.pairs[i], a, b, primTol, k3[o.k3:e.k3],
				prims[o.prims:e.prims:e.prims], fl[:etab:etab], fl[etab:])
		}
	})
}

// familyScreen returns the primitive screen of pair i's family, built in
// *buf: per primitive of its second shell p, the largest |coefficient|
// among p's siblings stored with the same first shell. nil when p has no
// sibling or primTol screens nothing: the pair's own screen applies.
func (t *PairTable) familyScreen(i int, members [][]int32, primTol float64, buf *[]float64) []float64 {
	m, p := int(t.mp[i][0]), int(t.mp[i][1])
	sib := members[t.fam[p]]
	if primTol <= 0 || len(sib) < 2 {
		return nil
	}
	shells := t.Basis.Shells
	bmax := (*buf)[:0]
	for j := range shells[p].Coefs {
		var c float64
		for _, s := range sib {
			if t.index[m*t.n+int(s)] != NoPair {
				c = max(c, math.Abs(shells[s].Coefs[j]))
			}
		}
		bmax = append(bmax, c)
	}
	*buf = bmax
	return bmax
}

// fillChunk is how many pairs a goroutine of parallelChunks takes at a
// time: enough to pay for the hand-off, few enough to even out pairs of
// unequal cost.
const fillChunk = 32

// parallelChunks calls fn on the chunks [lo, hi) of fillChunk items
// that tile [0, n), from up to GOMAXPROCS goroutines (one, the caller's,
// for a single chunk), each taking the next chunk when done with its
// last, and returns when every chunk is done.
func parallelChunks(n int, fn func(lo, hi int)) {
	nw := min(runtime.GOMAXPROCS(0), (n+fillChunk-1)/fillChunk)
	if nw <= 1 {
		fn(0, n)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range nw {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(fillChunk)) - fillChunk
				if lo >= n {
					return
				}
				fn(lo, min(lo+fillChunk, n))
			}
		}()
	}
	wg.Wait()
}

// shellFamilies returns per shell its family — the lowest index among
// the shells on its atom (same atom, same centre) with identical
// exponents — and, indexed by that lowest index, the family's members
// ordered by (L, shell index). One pass over the shells, comparing each
// with the families already seen on its atom.
func shellFamilies(bs *basis.Set) (fam []int32, members [][]int32) {
	ns := bs.NumShells()
	fam = make([]int32, ns)
	members = make([][]int32, ns)
	heads := map[int][]int32{}
	for i := range bs.Shells {
		sh := &bs.Shells[i]
		fam[i] = int32(i)
		for _, h := range heads[sh.Atom] {
			if hs := &bs.Shells[h]; hs.Center == sh.Center && slices.Equal(hs.Exps, sh.Exps) {
				fam[i] = h
				break
			}
		}
		if fam[i] == int32(i) {
			heads[sh.Atom] = append(heads[sh.Atom], int32(i))
		}
		members[fam[i]] = append(members[fam[i]], int32(i))
	}
	for _, sib := range members {
		slices.SortStableFunc(sib, func(a, b int32) int { return bs.Shells[a].L - bs.Shells[b].L })
	}
	return fam, members
}

// Family returns the family of shell i: the lowest index among the
// shells on its atom with identical exponents (i itself if none).
func (t *PairTable) Family(i int) int { return int(t.fam[i]) }

// Partners returns the stored pairs of first shell m grouped into
// partner families, by descending Q (ties in family order): every stored
// (m, p) appears in exactly one. A quartet walk over them can stop at the
// first family whose Q fails the Schwarz product.
func (t *PairTable) Partners(m int) []PartnerFamily { return t.partners[m] }

// siblings reports whether a and b are distinct sibling pairs: one first
// shell, second shells of one family.
func (t *PairTable) siblings(a, b PairID) bool { return a != b && t.pfam[a] == t.pfam[b] }

// siblingGroup returns the shape nb x nk of the sibling group qs opens:
// the longest prefix of the form (B_i | K_j), i < nb, j < nk, in
// bra-major order, with the B_i sibling bras and the K_j sibling kets,
// at most maxMembers a side. A lone quartet is a 1 x 1 group.
func (t *PairTable) siblingGroup(qs []Quartet) (nb, nk int) {
	nk = 1
	for nk < maxMembers && nk < len(qs) && qs[nk].Bra == qs[0].Bra && t.siblings(qs[0].Ket, qs[nk].Ket) {
		nk++
	}
	nb = 1
rows:
	for nb < maxMembers && (nb+1)*nk <= len(qs) {
		row := qs[nb*nk : (nb+1)*nk]
		if !t.siblings(qs[0].Bra, row[0].Bra) {
			break
		}
		for j := range row {
			if row[j].Bra != row[0].Bra || row[j].Ket != qs[j].Ket {
				break rows
			}
		}
		nb++
	}
	return nb, nk
}

// NumPairs returns the number of stored (significant) ordered pairs.
func (t *PairTable) NumPairs() int { return len(t.pairs) }

// TermBytes reports the bytes of pair-resident folded Hermite terms the
// table holds for the generated kernels, on top of the primitive pairs
// and their E tables.
func (t *PairTable) TermBytes() int {
	n := 0
	for i := range t.pairs {
		n += len(t.pairs[i].terms)
	}
	return n * 8
}

// ID returns the table index of ordered pair (m, p), or NoPair.
func (t *PairTable) ID(m, p int) PairID { return t.index[m*t.n+p] }

// At returns the shell pair with the given id.
func (t *PairTable) At(id PairID) *ShellPair { return &t.pairs[id] }

// Lookup returns the pair (m, p), or nil if it is not significant.
func (t *PairTable) Lookup(m, p int) *ShellPair {
	id := t.index[m*t.n+p]
	if id == NoPair {
		return nil
	}
	return &t.pairs[id]
}

// Q returns the Schwarz value of pair id; Q values are non-increasing in
// id.
func (t *PairTable) Q(id PairID) float64 { return t.q[id] }

// Shells returns the shell indices (m, p) of pair id.
func (t *PairTable) Shells(id PairID) (m, p int) {
	return int(t.mp[id][0]), int(t.mp[id][1])
}

// KeepQuartet reports the Schwarz test Q(bra)*Q(ket) >= tau, identical to
// screen.Screening.KeepQuartet on the corresponding shell indices.
func (t *PairTable) KeepQuartet(bra, ket PairID, tau float64) bool {
	return t.q[bra]*t.q[ket] >= tau
}

// Quartet identifies one (bra|ket) shell quartet by PairTable ids.
type Quartet struct {
	Bra, Ket PairID
}

// ERIBatch computes every quartet of qs against the shared pair table and
// invokes visit(k, batch) with the spherical batch of qs[k], in order.
// Runs of sibling quartets — (B_i | K_j) over sibling bras B_i and
// sibling kets K_j in bra-major order, which core's task walk emits —
// are computed by one kernel call that shares each primitive quartet's
// prologue, Boys values and Hermite R across the members; every member
// is still visited on its own, in qs order. The batch slice is
// engine-owned scratch valid only inside the visit call — copy it out
// (core's task walk appends it, scaled, to its task buffer, the one
// contraction's input) or digest it in place (core.ApplyQuartet does);
// unlike ERI no retained copy is made, so the steady state of a warmed-up
// engine is allocation-free (see TestERIBatchZeroAlloc).
func (e *Engine) ERIBatch(pt *PairTable, qs []Quartet, visit func(k int, batch []float64)) {
	for k := 0; k < len(qs); {
		nb, nk := pt.siblingGroup(qs[k:])
		if nb*nk == 1 {
			bra, ket := &pt.pairs[qs[k].Bra], &pt.pairs[qs[k].Ket]
			e.visitSph(bra, ket, e.eriCartAuto(bra, ket), k, visit)
			k++
			continue
		}
		for i := 0; i < nb; i++ {
			e.set[0][i] = &pt.pairs[qs[k+i*nk].Bra]
		}
		for j := 0; j < nk; j++ {
			e.set[1][j] = &pt.pairs[qs[k+j].Ket]
		}
		cart, mirror := e.groupCart(nb, nk)
		for i := 0; i < nb; i++ {
			for j := 0; j < nk; j++ {
				e.visitSph(e.set[0][i], e.set[1][j], e.memberCart(cart, mirror, i, j), k, visit)
				k++
			}
		}
	}
}

// visitSph transforms one quartet's Cartesian batch to spherical, counts
// it and hands it to visit as quartet k.
func (e *Engine) visitSph(bra, ket *ShellPair, cart []float64, k int, visit func(k int, batch []float64)) {
	sph := sphTransform4(bra.LA, bra.LB, ket.LA, ket.LB, cart, &e.sphScr)
	e.Stats.Quartets++
	e.Stats.Integrals += int64(len(sph))
	visit(k, sph)
}
