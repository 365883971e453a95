package integrals

// PairTable is the build-wide precomputed shell-pair table: every
// Schwarz-significant ordered shell pair of a basis set, built once and
// shared read-only by all workers of a Fock build (and across SCF
// iterations), replacing the per-worker lazy map[int64]*ShellPair caches.
//
// Pairs are stored in one flat slice sorted by descending Schwarz value
// Q(m,p), so a quartet loop that walks kets in table order can stop at
// the first failing Schwarz product: Q(bra)*Q(ket) is monotone
// non-increasing along the list (see screen.Screening.PhiQ for the
// per-shell version of the same idea). Primitive-pair structs,
// E-coefficient tables and the generated kernels' folded Hermite terms
// are carved from shared arena chunks instead of thousands of small
// allocations.

import (
	"sort"

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
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].q != recs[j].q {
			return recs[i].q > recs[j].q
		}
		if recs[i].m != recs[j].m {
			return recs[i].m < recs[j].m
		}
		return recs[i].p < recs[j].p
	})
	t.pairs = make([]ShellPair, len(recs))
	t.q = make([]float64, len(recs))
	t.mp = make([][2]int32, len(recs))
	var fa floatArena
	pa := primArena{chunk: 1 << 8}
	for i := range recs {
		r := &recs[i]
		fillShellPair(&t.pairs[i], &bs.Shells[r.m], &bs.Shells[r.p],
			primTol, pa.take, fa.take)
		t.q[i] = r.q
		t.mp[i] = [2]int32{r.m, r.p}
		t.index[int(r.m)*ns+int(r.p)] = PairID(i)
	}
	return t
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

// floatArena carves exact-length zeroed []float64 blocks out of chunks.
// Blocks are never reused or moved, so slices handed out stay valid for
// the arena's lifetime. The first chunk is arenaFirst long and each next
// one twice the last, up to arenaMax, so a small arena reserves little; a
// block longer than the chunk gets a chunk of its own length. The zero
// value is ready to use.
type floatArena struct {
	cur   []float64
	chunk int // length of the last chunk made
}

const (
	arenaFirst = 1 << 9  // 4 KB
	arenaMax   = 1 << 16 // 512 KB
)

func (a *floatArena) take(n int) []float64 {
	if len(a.cur) < n {
		a.chunk = min(max(2*a.chunk, arenaFirst), arenaMax)
		a.cur = make([]float64, max(a.chunk, n))
	}
	out := a.cur[:n:n]
	a.cur = a.cur[n:]
	return out
}

// primArena is floatArena for primPair structs.
type primArena struct {
	cur   []primPair
	chunk int
}

func (a *primArena) take(n int) []primPair {
	if len(a.cur) < n {
		c := a.chunk
		if c < n {
			c = n
		}
		a.cur = make([]primPair, c)
	}
	out := a.cur[:n:n]
	a.cur = a.cur[n:]
	return out
}

// Quartet identifies one (bra|ket) shell quartet by PairTable ids.
type Quartet struct {
	Bra, Ket PairID
}

// ERIBatch computes every quartet of qs against the shared pair table and
// invokes visit(k, batch) with the spherical batch of qs[k], in order.
// The batch slice is engine-owned scratch valid only inside the visit
// call — digest it in place (core.ApplyQuartet does); unlike ERI no
// retained copy is made, so the steady state of a warmed-up engine is
// allocation-free (see TestERIBatchZeroAlloc).
func (e *Engine) ERIBatch(pt *PairTable, qs []Quartet, visit func(k int, batch []float64)) {
	for k := range qs {
		bra := &pt.pairs[qs[k].Bra]
		ket := &pt.pairs[qs[k].Ket]
		cart := e.eriCartAuto(bra, ket)
		sph := sphTransform4(bra.LA, bra.LB, ket.LA, ket.LB, cart, &e.sphScr)
		e.Stats.Quartets++
		e.Stats.Integrals += int64(len(sph))
		visit(k, sph)
	}
}
