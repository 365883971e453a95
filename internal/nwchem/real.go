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
	// One shared, read-only pair table for every process, as core.Build.
	pt := scr.PairTable(integrals.PrimTol)

	start := time.Now()
	dist.RunProcs(opt.Procs, func(rank int) {
		w := &baseWorker{
			rank: rank, bs: bs, scr: scr, pt: pt, ad: ad,
			gaD: gaD, gaF: gaF, stats: stats,
			eng:  integrals.NewEngine(),
			dloc: make([]float64, nf*nf),
			floc: make([]float64, nf*nf),
		}
		w.visit = func(k int, batch []float64) {
			s := w.meta[k]
			core.ApplyQuartet(bs, w.dloc, w.floc, s[0], s[1], s[2], s[3], batch)
		}
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
	pt    *integrals.PairTable
	ad    *AtomData
	gaD   *dist.GlobalArray
	gaF   *dist.GlobalArray
	stats *dist.RunStats
	eng   *integrals.Engine
	dloc  []float64
	floc  []float64
	comp  time.Duration

	// One task's walk: its surviving L values and distinct atom blocks.
	ls     []int
	blocks [][2]int

	// One atom quartet's shell quartets, as ERIBatch takes them, with
	// their shell indices (m, n, p, q); visit digests each batch.
	batch []integrals.Quartet
	meta  [][4]int
	visit func(k int, batch []float64)
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

// execTask fetches the D blocks of the task's walk (TaskBlocks),
// computes its surviving atom quartets (I J | K L), and accumulates the
// same F blocks.
func (w *baseWorker) execTask(td TaskDesc) {
	w.ls, w.blocks = w.ad.TaskBlocks(td, w.ls[:0], w.blocks[:0])
	for i := range w.blocks {
		w.getD(w.blocks[i][0], w.blocks[i][1])
	}
	c0 := time.Now()
	for _, l := range w.ls {
		w.quartet(td.I, td.J, td.K, l)
	}
	w.comp += time.Since(c0)
	for i := range w.blocks {
		w.accF(w.blocks[i][0], w.blocks[i][1])
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
// (I J | K L) and applies their Fock contributions. The quartets go to
// the engine in one ERIBatch call, the second shell of each pair walked
// by shell family (runs of one integrals.PairTable.Family among an
// atom's shells) and each bra family x ket family collected bra-major,
// so sibling quartets share their kernel call as they do in core's
// tasks: the baseline runs the same kernels as GTFock.
func (w *baseWorker) quartet(ai, aj, ak, al int) {
	bs, pt := w.bs, w.pt
	w.batch, w.meta = w.batch[:0], w.meta[:0]
	for _, m := range bs.ByAtom[ai] {
		for nrest := bs.ByAtom[aj]; len(nrest) > 0; {
			nfam := familyRun(pt, nrest)
			nrest = nrest[len(nfam):]
			for _, p := range bs.ByAtom[ak] {
				for qrest := bs.ByAtom[al]; len(qrest) > 0; {
					qfam := familyRun(pt, qrest)
					qrest = qrest[len(qfam):]
					for _, n := range nfam {
						if ai == aj && m < n {
							continue // canonical M >= N within a diagonal atom pair
						}
						if !w.scr.Significant(m, n) {
							continue
						}
						for _, q := range qfam {
							if ak == al && p < q {
								continue
							}
							if ai == ak && aj == al {
								// Diagonal pair-of-pairs: canonical (M,N) >= (P,Q).
								if m < p || (m == p && n < q) {
									continue
								}
							}
							// A ket that passes KeepQuartet is significant: in pt.
							if !w.scr.KeepQuartet(m, n, p, q) {
								continue
							}
							w.batch = append(w.batch, integrals.Quartet{Bra: pt.ID(m, n), Ket: pt.ID(p, q)})
							w.meta = append(w.meta, [4]int{m, n, p, q})
						}
					}
				}
			}
		}
	}
	w.eng.ERIBatch(pt, w.batch, w.visit)
}

// familyRun returns the leading run of shells that share the first one's
// shell family.
func familyRun(pt *integrals.PairTable, shells []int) []int {
	n := 1
	for n < len(shells) && pt.Family(shells[n]) == pt.Family(shells[0]) {
		n++
	}
	return shells[:n]
}
