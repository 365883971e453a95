package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// contractOracle is the indexed loop contract replaced, kept as the
// reference TestContractMatchesOracle compares against: the same six
// updates in the same order, every access bounds-checked.
func contractOracle(d, f []float64, nf int, off, width []int, m, n int, labels []uint32, vals []float64) {
	om, nm, on, nn := off[m], width[m], off[n], width[n]
	idx := 0
	for _, lb := range labels {
		p, q := int(lb&0xffff), int(lb>>16)
		op, np, oq, nq := off[p], width[p], off[q], width[q]
		for gi := om; gi < om+nm; gi++ {
			ri := gi * nf
			for gj := op; gj < op+np; gj++ {
				rj, ij := gj*nf, ri+gj
				dij := d[ij]
				for gk := on; gk < on+nn; gk++ {
					rk, ik, jk := gk*nf, ri+gk, rj+gk
					dik, djk := d[ik], d[jk]
					for gl := oq; gl < oq+nq; gl++ {
						kl, il, jl := rk+gl, ri+gl, rj+gl
						v := vals[idx]
						idx++
						f[ij] += 4 * v * d[kl]
						f[kl] += 4 * v * dij
						f[ik] -= v * d[jl]
						f[jl] -= v * dik
						f[il] -= v * djk
						f[jk] -= v * d[il]
					}
				}
			}
		}
	}
}

// contractCase is one random call: shells of s, p and d widths (5 and 6
// for spherical and Cartesian d), a dense D, a nonzero starting F, and a
// task's labels with their values.
type contractCase struct {
	nf         int
	off, width []int
	m, n       int
	labels     []uint32
	d, f, vals []float64
}

func randomContractCase(rng *rand.Rand, diagonal, aliasing, sOnly bool) contractCase {
	var c contractCase
	widths := []int{1, 3, 5, 6}
	if sOnly {
		widths = widths[:1]
	}
	for range 3 + rng.Intn(6) {
		w := widths[rng.Intn(len(widths))]
		c.off, c.width = append(c.off, c.nf), append(c.width, w)
		c.nf += w
	}
	ns := len(c.off)
	c.m, c.n = rng.Intn(ns), rng.Intn(ns)
	if diagonal {
		c.n = c.m
	}
	c.d = make([]float64, c.nf*c.nf)
	c.f = make([]float64, c.nf*c.nf)
	for i := range c.d {
		c.d[i], c.f[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	nvals := 0
	for range 1 + rng.Intn(12) {
		p, q := rng.Intn(ns), rng.Intn(ns)
		if aliasing {
			switch rng.Intn(5) {
			case 0:
				p = c.m
			case 1:
				q = c.n
			case 2:
				p = c.n
			case 3:
				q = c.m
			default:
				q = p
			}
		}
		c.labels = append(c.labels, uint32(p|q<<16))
		nvals += c.width[c.m] * c.width[p] * c.width[c.n] * c.width[q]
	}
	c.vals = make([]float64, nvals)
	for i := range c.vals {
		c.vals[i] = rng.NormFloat64()
	}
	return c
}

// The check-free contraction lands in F the bits of the indexed loop, on
// random tasks of s, p and d shells, on tasks of s shells only (every
// quartet one value: the one-value short cut), on diagonal tasks
// (M == N) and on labels that alias the task's shells or each other
// (P == M, Q == N, P == N, Q == M, P == Q), where several of the six
// updates hit one element.
func TestContractMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for i := range 600 {
		diagonal, aliasing, sOnly := i%3 == 1, i%2 == 1, i%5 == 4
		c := randomContractCase(rng, diagonal, aliasing, sOnly)
		want := slices.Clone(c.f)
		contractOracle(c.d, want, c.nf, c.off, c.width, c.m, c.n, c.labels, c.vals)
		contract(c.d, c.f, c.nf, c.off, c.width, c.m, c.n, c.labels, c.vals)
		for k := range want {
			if math.Float64bits(c.f[k]) != math.Float64bits(want[k]) {
				t.Fatalf("case %d (diagonal %v, aliasing %v, task (%d, %d), widths %v): F[%d] = %v, oracle %v",
					i, diagonal, aliasing, c.m, c.n, c.width, k, c.f[k], want[k])
			}
		}
	}
}

// Every malformed input panics before the contraction writes to F: each
// case breaks one thing of a valid one-quartet call.
func TestContractPanicsBeforeWrite(t *testing.T) {
	// Shells s, p, d (5) and s: nf = 10. Task (1, 2), quartet (1 3|2 0).
	valid := func() contractCase {
		c := contractCase{nf: 10, off: []int{0, 1, 4, 9}, width: []int{1, 3, 5, 1}, m: 1, n: 2,
			labels: []uint32{3 | 0<<16}}
		c.d, c.f = make([]float64, 100), make([]float64, 100)
		for i := range c.d {
			c.d[i], c.f[i] = float64(i+1), float64(-i)
		}
		c.vals = make([]float64, 3*1*5*1)
		for i := range c.vals {
			c.vals[i] = 0.5 + float64(i)
		}
		return c
	}
	cases := []struct {
		name  string
		spoil func(c *contractCase)
	}{
		{"label past ns", func(c *contractCase) { c.labels[0] = 4 | 0<<16 }},
		{"Q label past ns", func(c *contractCase) { c.labels[0] = 3 | 4<<16 }},
		{"P offset plus width past nf", func(c *contractCase) { c.off[3] = 10 }},
		{"Q offset plus width past nf", func(c *contractCase) { c.width[0] = 11 }},
		{"negative P offset", func(c *contractCase) { c.off[3] = -1 }},
		{"M offset plus width past nf", func(c *contractCase) { c.width[1] = 10 }},
		{"N offset plus width past nf", func(c *contractCase) { c.off[2] = 6 }},
		{"negative N width", func(c *contractCase) { c.width[2] = -1 }},
		{"vals one value short", func(c *contractCase) { c.vals = c.vals[:len(c.vals)-1] }},
		{"d shorter than nf²", func(c *contractCase) { c.d = c.d[:99] }},
		{"f shorter than nf²", func(c *contractCase) { c.f = c.f[:99] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := valid()
			tc.spoil(&c)
			before := slices.Clone(c.f)
			err := func() (err any) {
				defer func() { err = recover() }()
				contract(c.d, c.f, c.nf, c.off, c.width, c.m, c.n, c.labels, c.vals)
				return nil
			}()
			if err == nil {
				t.Fatal("no panic")
			}
			for k := range before {
				if math.Float64bits(c.f[k]) != math.Float64bits(before[k]) {
					t.Fatalf("panicked (%v) after writing F[%d]: %v, was %v", err, k, c.f[k], before[k])
				}
			}
			t.Log(err)
		})
	}
	// The valid call itself runs and writes.
	c := valid()
	before := slices.Clone(c.f)
	contract(c.d, c.f, c.nf, c.off, c.width, c.m, c.n, c.labels, c.vals)
	if slices.Equal(c.f, before) {
		t.Fatal("the valid call wrote nothing")
	}
}
