package integrals

import (
	"math"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
)

// ERICartOS computes the contracted Cartesian shell-quartet batch
// (ab|cd) with the Obara-Saika / Head-Gordon-Pople scheme: a vertical
// recurrence builds (e0|f0)^(m) classes per primitive quartet, the classes
// are contracted, and a horizontal recurrence assembles general (ab|cd).
//
// This is an intentionally independent implementation (different
// recurrences, different intermediates) used as a correctness oracle for
// the production McMurchie-Davidson engine. It favors clarity over speed.
func ERICartOS(a, b, c, d *basis.Shell) []float64 {
	la, lb, lc, ld := a.L, b.L, c.L, d.L
	eMax, fMax := la+lb, lc+ld

	// contracted[(e,f) class][cart of e][cart of f]
	contracted := map[[2]int]map[[2]Cart]float64{}
	for e := 0; e <= eMax; e++ {
		for f := 0; f <= fMax; f++ {
			contracted[[2]int{e, f}] = map[[2]Cart]float64{}
		}
	}

	ab := a.Center.Sub(b.Center)
	cd := c.Center.Sub(d.Center)
	for i, ea := range a.Exps {
		for j, eb := range b.Exps {
			p := ea + eb
			P := a.Center.Scale(ea / p).Add(b.Center.Scale(eb / p))
			kab := math.Exp(-ea * eb / p * ab.Norm2())
			for k, ec := range c.Exps {
				for l, ed := range d.Exps {
					q := ec + ed
					Q := c.Center.Scale(ec / q).Add(d.Center.Scale(ed / q))
					kcd := math.Exp(-ec * ed / q * cd.Norm2())
					rho := p * q / (p + q)
					W := P.Scale(p / (p + q)).Add(Q.Scale(q / (p + q)))
					pq := P.Sub(Q)
					mtot := eMax + fMax
					boys := Boys(mtot, rho*pq.Norm2(), nil)
					ctx := &osCtx{
						p: p, q: q, rho: rho,
						PA: P.Sub(a.Center), WP: W.Sub(P),
						QC: Q.Sub(c.Center), WQ: W.Sub(Q),
						pref: twoPiPow52 / (p * q * math.Sqrt(p+q)) * kab * kcd,
						boys: boys,
						memo: map[osKey]float64{},
					}
					cco := a.Coefs[i] * b.Coefs[j] * c.Coefs[k] * d.Coefs[l]
					for e := 0; e <= eMax; e++ {
						for f := 0; f <= fMax; f++ {
							dst := contracted[[2]int{e, f}]
							for _, ce := range CartComponents(e) {
								for _, cf := range CartComponents(f) {
									dst[[2]Cart{ce, cf}] += cco * ctx.vrr(ce, cf, 0)
								}
							}
						}
					}
				}
			}
		}
	}

	// Horizontal recurrence on the contracted classes.
	h := &osHRR{
		AB: ab, CD: cd,
		classes: contracted,
		memo:    map[[4]Cart]float64{},
	}
	caA, cbB := CartComponents(la), CartComponents(lb)
	ccC, cdD := CartComponents(lc), CartComponents(ld)
	out := make([]float64, len(caA)*len(cbB)*len(ccC)*len(cdD))
	idx := 0
	for _, A := range caA {
		for _, B := range cbB {
			for _, C := range ccC {
				for _, D := range cdD {
					out[idx] = h.hrr(A, B, C, D)
					idx++
				}
			}
		}
	}
	return out
}

type osKey struct {
	a, c Cart
	m    int
}

type osCtx struct {
	p, q, rho      float64
	PA, WP, QC, WQ chem.Vec3
	pref           float64
	boys           []float64
	memo           map[osKey]float64
}

func comp(c Cart, d int) int {
	switch d {
	case 0:
		return c.X
	case 1:
		return c.Y
	default:
		return c.Z
	}
}

func lower(c Cart, d int) Cart {
	switch d {
	case 0:
		c.X--
	case 1:
		c.Y--
	default:
		c.Z--
	}
	return c
}

func raise(c Cart, d int) Cart {
	switch d {
	case 0:
		c.X++
	case 1:
		c.Y++
	default:
		c.Z++
	}
	return c
}

func vecComp(v chem.Vec3, d int) float64 {
	switch d {
	case 0:
		return v.X
	case 1:
		return v.Y
	default:
		return v.Z
	}
}

func total(c Cart) int { return c.X + c.Y + c.Z }

// vrr evaluates the primitive class integral (a 0 | c 0)^(m).
func (ctx *osCtx) vrr(a, c Cart, m int) float64 {
	if total(a) == 0 && total(c) == 0 {
		return ctx.pref * ctx.boys[m]
	}
	key := osKey{a, c, m}
	if v, ok := ctx.memo[key]; ok {
		return v
	}
	var v float64
	if total(a) > 0 {
		// Reduce on the first nonzero direction of a.
		d := 0
		for comp(a, d) == 0 {
			d++
		}
		am := lower(a, d)
		v = vecComp(ctx.PA, d)*ctx.vrr(am, c, m) +
			vecComp(ctx.WP, d)*ctx.vrr(am, c, m+1)
		if n := comp(am, d); n > 0 {
			am2 := lower(am, d)
			v += float64(n) / (2 * ctx.p) *
				(ctx.vrr(am2, c, m) - ctx.rho/ctx.p*ctx.vrr(am2, c, m+1))
		}
		if nc := comp(c, d); nc > 0 {
			v += float64(nc) / (2 * (ctx.p + ctx.q)) * ctx.vrr(am, lower(c, d), m+1)
		}
	} else {
		d := 0
		for comp(c, d) == 0 {
			d++
		}
		cm := lower(c, d)
		v = vecComp(ctx.QC, d)*ctx.vrr(a, cm, m) +
			vecComp(ctx.WQ, d)*ctx.vrr(a, cm, m+1)
		if n := comp(cm, d); n > 0 {
			cm2 := lower(cm, d)
			v += float64(n) / (2 * ctx.q) *
				(ctx.vrr(a, cm2, m) - ctx.rho/ctx.q*ctx.vrr(a, cm2, m+1))
		}
	}
	ctx.memo[key] = v
	return v
}

type osHRR struct {
	AB, CD  chem.Vec3
	classes map[[2]int]map[[2]Cart]float64
	memo    map[[4]Cart]float64
}

// hrr evaluates the contracted integral (ab|cd) from (e0|f0) classes.
func (h *osHRR) hrr(a, b, c, d Cart) float64 {
	if total(b) == 0 && total(d) == 0 {
		return h.classes[[2]int{total(a), total(c)}][[2]Cart{a, c}]
	}
	key := [4]Cart{a, b, c, d}
	if v, ok := h.memo[key]; ok {
		return v
	}
	var v float64
	if total(b) > 0 {
		dir := 0
		for comp(b, dir) == 0 {
			dir++
		}
		bm := lower(b, dir)
		v = h.hrr(raise(a, dir), bm, c, d) + vecComp(h.AB, dir)*h.hrr(a, bm, c, d)
	} else {
		dir := 0
		for comp(d, dir) == 0 {
			dir++
		}
		dm := lower(d, dir)
		v = h.hrr(a, b, raise(c, dir), dm) + vecComp(h.CD, dir)*h.hrr(a, b, c, dm)
	}
	h.memo[key] = v
	return v
}
