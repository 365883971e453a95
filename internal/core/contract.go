package core

import (
	"fmt"
	"math/bits"
	"unsafe"
)

// contract is the one Fock contraction. It applies the 6-block update of
// every quartet (MP|NQ) of task (m, n) — labels[k] = P | Q<<16 in order,
// vals their batches v[i in M][j in P][k in N][l in Q] = (ij|kl)
// concatenated and already scaled by quartetScale — into the dense
// n x n buffers d (density, read) and f (Fock accumulator, written):
//
//	F_ij += 4 D_kl v   F_ik -= D_jl v   F_il -= D_jk v
//	F_kl += 4 D_ij v   F_jl -= D_ik v   F_jk -= D_il v
//
// Adding G + G^T at the end restores the full 8-fold symmetric sum of
// eq. (3) (see DESIGN.md). off and width give each shell's first
// function and function count; M's and N's are read once per task.
//
// The loop nest makes no per-access bounds check. The call first proves
// that d and f hold nf² elements and that M's and N's functions lie in
// [0, nf); each quartet proves the same of P's and Q's and that vals
// holds its values. Every index the nest then forms is in range, and a
// failed proof panics before its quartet writes to f. d and f must not
// overlap. The updates keep the order above, so F gets the bits of the
// indexed loop (contractOracle, in the tests).
func contract(d, f []float64, nf int, off, width []int, m, n int, labels []uint32, vals []float64) {
	om, nm, on, nn := off[m], width[m], off[n], width[n]
	if len(d) < nf*nf || len(f) < nf*nf {
		panic(fmt.Sprintf("core: contract: d holds %d and f %d elements, want %d", len(d), len(f), nf*nf))
	}
	if !fits(om, nm, nf) || !fits(on, nn, nf) {
		panic(fmt.Sprintf("core: contract: task (%d, %d) spans functions [%d, %d) and [%d, %d) of %d", m, n, om, om+nm, on, on+nn, nf))
	}
	dp, fp, vp := unsafe.Pointer(unsafe.SliceData(d)), unsafe.Pointer(unsafe.SliceData(f)), unsafe.Pointer(unsafe.SliceData(vals))
	// update is the six updates of one value v = (ij|kl), given the six F
	// elements and the six D elements; both loop shapes below call it, and
	// it is inlined into each.
	update := func(fij, fkl, fik, fjl, fil, fjk *float64, v, dkl, djl, dil, dij, dik, djk float64) {
		*fij += 4 * v * dkl
		*fkl += 4 * v * dij
		*fik -= v * djl
		*fjl -= v * dik
		*fil -= v * djk
		*fjk -= v * dil
	}
	idx := 0
	for _, lb := range labels {
		p, q := int(lb&0xffff), int(lb>>16)
		op, np, oq, nq := off[p], width[p], off[q], width[q]
		if !fits(op, np, nf) || !fits(oq, nq, nf) {
			panic(fmt.Sprintf("core: contract: quartet (%d %d|%d %d) spans functions [%d, %d) and [%d, %d) of %d", m, p, n, q, op, op+np, oq, oq+nq, nf))
		}
		// Each width is in [0, nf], so the two pair sizes fit an int; their
		// product, the quartet's value count, is taken in 128 bits so that
		// no width can wrap it.
		hi, nv := bits.Mul64(uint64(nm*nn), uint64(np*nq))
		if hi != 0 || nv > uint64(len(vals)-idx) {
			panic(fmt.Sprintf("core: contract: quartet (%d %d|%d %d) of widths %d×%d×%d×%d needs more than the %d values left", m, p, n, q, nm, np, nn, nq, len(vals)-idx))
		}
		// A one-value quartet, (ss|ss) in practice, skips the loop nest's
		// set-up: it is 42 % of a replayed alkane's quartets.
		if nv == 1 {
			ri, rj, rk := om*nf, op*nf, on*nf
			ij, kl, ik, jl, il, jk := ri+op, rk+oq, ri+on, rj+oq, ri+oq, rj+on
			update(elem(fp, ij), elem(fp, kl), elem(fp, ik), elem(fp, jl), elem(fp, il), elem(fp, jk),
				*elem(vp, idx), *elem(dp, kl), *elem(dp, jl), *elem(dp, il), *elem(dp, ij), *elem(dp, ik), *elem(dp, jk))
			idx++
			continue
		}
		// Row starts and the D elements fixed for an (i, j, k) are
		// hoisted, and the inner loop steps its three indices itself.
		for gi := om; gi < om+nm; gi++ {
			ri := gi * nf
			for gj := op; gj < op+np; gj++ {
				rj, ij := gj*nf, ri+gj
				dij := *elem(dp, ij)
				for gk := on; gk < on+nn; gk++ {
					rk, ik, jk := gk*nf, ri+gk, rj+gk
					dik, djk := *elem(dp, ik), *elem(dp, jk)
					end := rk + oq + nq
					for kl, il, jl := rk+oq, ri+oq, rj+oq; kl < end; kl, il, jl = kl+1, il+1, jl+1 {
						update(elem(fp, ij), elem(fp, kl), elem(fp, ik), elem(fp, jl), elem(fp, il), elem(fp, jk),
							*elem(vp, idx), *elem(dp, kl), *elem(dp, jl), *elem(dp, il), dij, dik, djk)
						idx++
					}
				}
			}
		}
	}
}

// fits reports whether the w functions from o lie in [0, nf).
func fits(o, w, nf int) bool { return o >= 0 && w >= 0 && w <= nf-o }

// elem is the i-th float64 from base: contract's unchecked access, valid
// only for an i its range proof has covered.
func elem(base unsafe.Pointer, i int) *float64 {
	return (*float64)(unsafe.Add(base, uintptr(i)*8))
}
