// Package screen implements Cauchy-Schwarz integral screening (paper
// Sec. II-D): shell-pair values Q(M,N) = max_{ij in (MN|MN)} |(ij|ij)|^{1/2},
// the significance test Q(M,N) >= tau/m, the per-shell significant sets
// Phi(M) (Sec. III-B), and the counting utilities behind Table II and the
// performance model of Sec. III-G.
package screen

import (
	"math"
	"runtime"
	"sort"
	"sync"

	"gtfock/internal/basis"
	"gtfock/internal/integrals"
)

// DefaultTau is the paper's screening tolerance (Sec. IV-A).
const DefaultTau = 1e-10

// Screening holds pair values and significant sets for one basis set.
type Screening struct {
	Basis *basis.Set
	Tau   float64
	// pairVal is the dense symmetric matrix of Q(M,N) values.
	pairVal []float64
	n       int
	// Phi[m] lists, in ascending order, the shells p with Q(m,p)
	// significant: Q(m,p) >= Tau/MaxPairValue.
	Phi [][]int
	// MaxPairValue is m = max_MN Q(M,N).
	MaxPairValue float64
	// W[m] = sum_{p in Phi(m)} nbf(m)*nbf(p): the bra-side workload weight
	// used by the simulation cost model (DESIGN.md).
	W []float64
	// WorkScale calibrates the separable workload model (sum W)^2/8 to the
	// exact quartet-level Cauchy-Schwarz screen: it is the fraction of the
	// pair-significant work that also passes Q(bra)*Q(ket) >= tau.
	WorkScale float64
}

// Compute builds the screening data, computing the (MN|MN) diagonal
// batches in parallel.
func Compute(bs *basis.Set, tau float64) *Screening {
	if tau <= 0 {
		tau = DefaultTau
	}
	n := bs.NumShells()
	s := &Screening{Basis: bs, Tau: tau, n: n, pairVal: make([]float64, n*n)}

	nw := runtime.GOMAXPROCS(0)
	if nw > n {
		nw = n
	}
	if nw < 1 {
		nw = 1
	}
	var wg sync.WaitGroup
	rows := make(chan int, n)
	for m := 0; m < n; m++ {
		rows <- m
	}
	close(rows)
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := integrals.NewEngine()
			for m := range rows {
				shM := &bs.Shells[m]
				for p := m; p < n; p++ {
					pair := eng.PairScratch(shM, &bs.Shells[p])
					batch := eng.ERI(pair, pair)
					na, nb := shM.NumFuncs(), bs.Shells[p].NumFuncs()
					var mx float64
					for i := 0; i < na; i++ {
						for j := 0; j < nb; j++ {
							d := batch[((i*nb+j)*na+i)*nb+j]
							if d > mx {
								mx = d
							}
						}
					}
					q := math.Sqrt(math.Max(mx, 0))
					s.pairVal[m*n+p] = q
					s.pairVal[p*n+m] = q
				}
			}
		}()
	}
	wg.Wait()

	for _, v := range s.pairVal {
		if v > s.MaxPairValue {
			s.MaxPairValue = v
		}
	}
	sigCut := tau / s.MaxPairValue
	s.Phi = make([][]int, n)
	s.W = make([]float64, n)
	for m := 0; m < n; m++ {
		nbfM := float64(bs.ShellFuncs(m))
		for p := 0; p < n; p++ {
			if s.pairVal[m*n+p] >= sigCut {
				s.Phi[m] = append(s.Phi[m], p)
				s.W[m] += nbfM * float64(bs.ShellFuncs(p))
			}
		}
	}
	s.WorkScale = s.computeWorkScale()
	return s
}

// PairTable builds the build-wide precomputed table of significant
// ordered shell pairs (Schwarz-sorted, arena-backed E tables; see
// integrals.PairTable). primTol is the primitive pre-screening threshold.
// The table's pair set and Q values are exactly this screening's, so
// PairTable.KeepQuartet agrees bit-for-bit with Screening.KeepQuartet.
func (s *Screening) PairTable(primTol float64) *integrals.PairTable {
	return integrals.NewPairTable(s.Basis, s.PairValue, s.Significant, primTol)
}

// computeWorkScale returns the exact fraction of the separable
// pair-significant workload (sum over ordered significant pair products of
// w_bra * w_ket) that survives the quartet-level screen
// Q(bra)*Q(ket) >= tau. The simulators multiply their per-task costs by
// this factor so totals match a real screened build.
func (s *Screening) computeWorkScale() float64 {
	type pw struct{ q, w float64 }
	sigCut := s.Tau / s.MaxPairValue
	var pairs []pw
	var wTotal float64
	for m := 0; m < s.n; m++ {
		for _, p := range s.Phi[m] {
			w := float64(s.Basis.ShellFuncs(m) * s.Basis.ShellFuncs(p))
			q := s.pairVal[m*s.n+p]
			if q >= sigCut {
				pairs = append(pairs, pw{q, w})
				wTotal += w
			}
		}
	}
	if wTotal == 0 {
		return 1
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].q > pairs[j].q })
	prefix := make([]float64, len(pairs)+1)
	for i, p := range pairs {
		prefix[i+1] = prefix[i] + p.w
	}
	var surviving float64
	for _, p := range pairs {
		cut := s.Tau / p.q
		j := sort.Search(len(pairs), func(k int) bool { return pairs[k].q < cut })
		surviving += p.w * prefix[j]
	}
	return surviving / (wTotal * wTotal)
}

// Permute returns the screening data expressed in the shell order of
// pbs = s.Basis.Permute(order) without recomputing any integrals: pair
// values are permutation-covariant, Q'(i,j) = Q(order[i], order[j]).
func (s *Screening) Permute(order []int, pbs *basis.Set) *Screening {
	n := s.n
	if len(order) != n || pbs.NumShells() != n {
		panic("screen: Permute length mismatch")
	}
	np := &Screening{
		Basis: pbs, Tau: s.Tau, n: n,
		pairVal:      make([]float64, n*n),
		MaxPairValue: s.MaxPairValue,
		Phi:          make([][]int, n),
		W:            make([]float64, n),
		WorkScale:    s.WorkScale,
	}
	for i := 0; i < n; i++ {
		oi := order[i]
		for j := 0; j < n; j++ {
			np.pairVal[i*n+j] = s.pairVal[oi*n+order[j]]
		}
	}
	sigCut := np.Tau / np.MaxPairValue
	for m := 0; m < n; m++ {
		nbfM := float64(pbs.ShellFuncs(m))
		for p := 0; p < n; p++ {
			if np.pairVal[m*n+p] >= sigCut {
				np.Phi[m] = append(np.Phi[m], p)
				np.W[m] += nbfM * float64(pbs.ShellFuncs(p))
			}
		}
	}
	return np
}

// PairValue returns Q(M,N).
func (s *Screening) PairValue(m, n int) float64 { return s.pairVal[m*s.n+n] }

// Significant reports whether the pair (M,N) is significant:
// Q(M,N) >= tau / max pair value (Sec. II-D).
func (s *Screening) Significant(m, n int) bool {
	return s.pairVal[m*s.n+n] >= s.Tau/s.MaxPairValue
}

// KeepQuartet reports whether the quartet with bra pair (M,P) and ket pair
// (N,Q) survives screening: Q(M,P)*Q(N,Q) >= tau.
func (s *Screening) KeepQuartet(m, p, n, q int) bool {
	return s.pairVal[m*s.n+p]*s.pairVal[n*s.n+q] >= s.Tau
}

// AvgPhi returns B, the average size of Phi(M) (Sec. III-G).
func (s *Screening) AvgPhi() float64 {
	if s.n == 0 {
		return 0
	}
	total := 0
	for _, phi := range s.Phi {
		total += len(phi)
	}
	return float64(total) / float64(s.n)
}

// AvgPhiOverlap returns q, the average |Phi(M) intersect Phi(M+1)|
// (Sec. III-G performance model).
func (s *Screening) AvgPhiOverlap() float64 {
	if s.n < 2 {
		return 0
	}
	total := 0
	for m := 0; m+1 < s.n; m++ {
		total += intersectionSize(s.Phi[m], s.Phi[m+1])
	}
	return float64(total) / float64(s.n-1)
}

// intersectionSize counts common elements of two ascending-sorted slices.
func intersectionSize(a, b []int) int {
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// SignificantPairCount returns the number of unordered significant shell
// pairs {M,N}, M >= N.
func (s *Screening) SignificantPairCount() int {
	c := 0
	sigCut := s.Tau / s.MaxPairValue
	for m := 0; m < s.n; m++ {
		for p := 0; p <= m; p++ {
			if s.pairVal[m*s.n+p] >= sigCut {
				c++
			}
		}
	}
	return c
}

// UniqueQuartetCount returns the number of unique shell quartets surviving
// Cauchy-Schwarz screening: unordered pairs-of-pairs {(M,N),(P,Q)} of
// unordered significant shell pairs with Q(M,N)*Q(P,Q) >= tau. This is the
// "Unique Shell Quartets" column of the paper's Table II.
func (s *Screening) UniqueQuartetCount() int64 {
	// Collect unique significant pair values, sort descending, and for
	// each pair count partners (at or after it) whose product clears tau.
	var vals []float64
	sigCut := s.Tau / s.MaxPairValue
	for m := 0; m < s.n; m++ {
		for p := 0; p <= m; p++ {
			if v := s.pairVal[m*s.n+p]; v >= sigCut {
				vals = append(vals, v)
			}
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	var count int64
	for i, v := range vals {
		if v*v < s.Tau {
			break
		}
		// First j with vals[j] < tau/v; pairs {i, i..j-1} all survive
		// (j > i is guaranteed because v*v >= tau).
		cut := s.Tau / v
		j := sort.Search(len(vals), func(k int) bool { return vals[k] < cut })
		count += int64(j - i)
	}
	return count
}
