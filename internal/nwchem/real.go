package nwchem

import (
	"sync"
	"time"

	"gtfock/internal/basis"
	"gtfock/internal/core"
	"gtfock/internal/dist"
	"gtfock/internal/integrals"
	"gtfock/internal/linalg"
	"gtfock/internal/screen"
)

// Options configures a real-mode baseline build.
type Options struct {
	Procs int // number of goroutine processes (NWChem: one per core)
}

// Result mirrors core.Result for the baseline.
type Result struct {
	G     *linalg.Matrix
	Stats *dist.RunStats
	Wall  time.Duration
}

// counter is the centralized dynamic scheduler: a single global task
// counter whose accesses are serialized (Sec. II-F).
type counter struct {
	mu       sync.Mutex
	next     int64
	accesses int64
}

func (c *counter) get() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.accesses++
	t := c.next
	c.next++
	return t
}

// Build runs Algorithm 2 for real: block-row distribution by atoms,
// 5-atom-quartet tasks from a centralized counter, per-task D fetches and
// F accumulates. The result matches core.Build and the serial oracle.
func Build(bs *basis.Set, scr *screen.Screening, d *linalg.Matrix, opt Options) (Result, error) {
	if opt.Procs <= 0 {
		opt.Procs = 1
	}
	ad, err := NewAtomData(bs, scr)
	if err != nil {
		return Result{}, err
	}
	nf := bs.NumFuncs
	// Block-row distribution over atoms (Sec. II-F).
	atomCuts := dist.UniformCuts(ad.N, opt.Procs)
	rowCuts := make([]int, opt.Procs+1)
	for i, a := range atomCuts {
		if a == ad.N {
			rowCuts[i] = nf
		} else {
			rowCuts[i] = ad.FuncOff[a]
		}
	}
	grid := dist.NewGrid2D(opt.Procs, 1, rowCuts, []int{0, nf})

	stats := dist.NewRunStats(opt.Procs)
	gaD := dist.NewGlobalArray(grid, stats)
	if err := gaD.LoadMatrix(d); err != nil {
		return Result{}, err
	}
	gaF := dist.NewGlobalArray(grid, stats)
	ctr := &counter{}

	start := time.Now()
	dist.RunProcs(opt.Procs, func(rank int) {
		w := &baseWorker{
			rank: rank, bs: bs, scr: scr, ad: ad,
			gaD: gaD, gaF: gaF, stats: stats,
			eng:   integrals.NewEngine(),
			pairs: map[int64]*integrals.ShellPair{},
			dloc:  make([]float64, nf*nf),
			floc:  make([]float64, nf*nf),
		}
		w.eng.PrimTol = integrals.PrimTol
		w.run(ctr)
	})
	wall := time.Since(start)

	g2e, _ := gaF.ToMatrix() // an in-process gather never fails
	g := g2e.Clone()
	g.AXPY(1, g2e.T())
	return Result{G: g, Stats: stats, Wall: wall}, nil
}

type baseWorker struct {
	rank  int
	bs    *basis.Set
	scr   *screen.Screening
	ad    *AtomData
	gaD   *dist.GlobalArray
	gaF   *dist.GlobalArray
	stats *dist.RunStats
	eng   *integrals.Engine
	pairs map[int64]*integrals.ShellPair
	dloc  []float64
	floc  []float64
	comp  time.Duration
}

func (w *baseWorker) pair(a, b int) *integrals.ShellPair {
	key := int64(a)*int64(w.bs.NumShells()) + int64(b)
	if p, ok := w.pairs[key]; ok {
		return p
	}
	p := w.eng.Pair(&w.bs.Shells[a], &w.bs.Shells[b])
	w.pairs[key] = p
	return p
}

// run executes Algorithm 2 verbatim: every process walks the full task id
// space and executes the tasks whose id matches its fetched task number.
func (w *baseWorker) run(ctr *counter) {
	t0 := time.Now()
	st := &w.stats.Per[w.rank]
	getTask := func() int64 {
		st.QueueOps++
		return ctr.get()
	}
	task := getTask()
	var id int64
	stream := NewTaskStream(w.ad)
	for {
		td, ok := stream.Next()
		if !ok {
			break
		}
		if id == task {
			w.execTask(td)
			task = getTask()
		}
		id++
	}
	st.ComputeTime = w.comp.Seconds()
	st.TotalTime = time.Since(t0).Seconds()
}

// execTask fetches D, computes the surviving atom quartets (I J | K L)
// for L in [Lo, min(Lo+4, Lhi)], and accumulates F.
func (w *baseWorker) execTask(td TaskDesc) {
	lmax := td.Lo + 4
	if lmax > td.Lhi {
		lmax = td.Lhi
	}
	var ls []int
	for l := td.Lo; l <= lmax; l++ {
		if w.ad.Sig(td.K, l) {
			ls = append(ls, l)
		}
	}
	if len(ls) == 0 {
		return
	}
	// Fetch the distinct D atom blocks needed by all surviving quartets.
	blocks := map[[2]int]bool{
		{td.I, td.J}: true, {td.I, td.K}: true, {td.J, td.K}: true,
	}
	for _, l := range ls {
		blocks[[2]int{td.K, l}] = true
		blocks[[2]int{td.J, l}] = true
		blocks[[2]int{td.I, l}] = true
	}
	for b := range blocks {
		w.getD(b[0], b[1])
	}
	c0 := time.Now()
	for _, l := range ls {
		w.quartet(td.I, td.J, td.K, l)
	}
	w.comp += time.Since(c0)
	// Accumulate and clear the same F blocks.
	for b := range blocks {
		w.accF(b[0], b[1])
	}
	w.stats.Per[w.rank].TasksRun++
}

func (w *baseWorker) getD(i, j int) {
	nf := w.bs.NumFuncs
	r0, r1 := w.ad.FuncOff[i], w.ad.FuncOff[i]+w.ad.FuncLen[i]
	c0, c1 := w.ad.FuncOff[j], w.ad.FuncOff[j]+w.ad.FuncLen[j]
	w.gaD.Get(w.rank, r0, r1, c0, c1, w.dloc[r0*nf+c0:], nf)
}

func (w *baseWorker) accF(i, j int) {
	nf := w.bs.NumFuncs
	r0, r1 := w.ad.FuncOff[i], w.ad.FuncOff[i]+w.ad.FuncLen[i]
	c0, c1 := w.ad.FuncOff[j], w.ad.FuncOff[j]+w.ad.FuncLen[j]
	w.gaF.Acc(w.rank, r0, r1, c0, c1, w.floc[r0*nf+c0:], nf, 1)
	for r := r0; r < r1; r++ {
		row := w.floc[r*nf+c0 : r*nf+c1]
		for k := range row {
			row[k] = 0
		}
	}
}

// quartet computes the unique shell quartets of the atom quartet
// (I J | K L) and applies their Fock contributions.
func (w *baseWorker) quartet(ai, aj, ak, al int) {
	bs := w.bs
	for _, m := range bs.ByAtom[ai] {
		for _, n := range bs.ByAtom[aj] {
			if ai == aj && m < n {
				continue // canonical M >= N within a diagonal atom pair
			}
			if !w.scr.Significant(m, n) {
				continue
			}
			bra := w.pair(m, n)
			for _, p := range bs.ByAtom[ak] {
				for _, q := range bs.ByAtom[al] {
					if ak == al && p < q {
						continue
					}
					if ai == ak && aj == al {
						// Diagonal pair-of-pairs: canonical (M,N) >= (P,Q).
						if m < p || (m == p && n < q) {
							continue
						}
					}
					if !w.scr.KeepQuartet(m, n, p, q) {
						continue
					}
					batch := w.eng.ERI(bra, w.pair(p, q))
					core.ApplyQuartet(bs, w.dloc, w.floc, m, n, p, q, batch)
				}
			}
		}
	}
}
