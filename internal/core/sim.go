package core

import (
	"fmt"

	"gtfock/internal/basis"
	"gtfock/internal/dist"
	"gtfock/internal/screen"
)

// StealPolicy selects the victim scan order of the work-stealing
// scheduler.
type StealPolicy int

const (
	// StealRowWise scans the grid row-wise starting from the thief's own
	// row — the paper's policy (Sec. III-F).
	StealRowWise StealPolicy = iota
	// StealNone disables stealing: the static partition only (ablation).
	StealNone
)

// SimOptions tune the GTFock simulation (ablations and observability).
type SimOptions struct {
	Policy StealPolicy
	// Trace, if non-nil, collects activity spans for a timeline rendering
	// (compute intervals are recorded optimistically and may be shortened
	// later by steals; the rendering is an observability aid).
	Trace *dist.Trace
}

// Simulate runs the GTFock algorithm through the discrete-event simulator
// at paper scale: `cores` total cores, one process per node of
// cfg.CoresPerNode cores (Sec. IV-A), on a square-ish node grid.
//
// Per-task compute cost follows the screening-derived workload model of
// DESIGN.md — t_int * W(M) * W(N) / 8 ERI-seconds executed at a node rate
// of CoresPerNode — and communication is charged with the alpha-beta model
// over the patches the real build moves for a block's prefetch and flush
// (Footprint.Patches) and the steal transfers of Algorithm 4. Work stealing is simulated with a fluid workload model:
// a steal moves half of the victim's remaining tasks, pays two remote
// atomic queue operations, copies the victim's D_local buffer, and
// accumulates the previously stolen F buffer back to its victim
// (Sec. III-F).
func Simulate(bs *basis.Set, scr *screen.Screening, cfg dist.Config, cores int) (*dist.RunStats, error) {
	return SimulateOptions(bs, scr, cfg, cores, SimOptions{})
}

// SimulateOptions is Simulate with ablation options.
func SimulateOptions(bs *basis.Set, scr *screen.Screening, cfg dist.Config, cores int, opts SimOptions) (*dist.RunStats, error) {
	nodes, err := cfg.NodesFor(cores)
	if err != nil {
		return nil, err
	}
	prow, pcol := dist.SquareGridFor(nodes)
	ns := bs.NumShells()
	nprocs := nodes

	rowCuts := dist.UniformCuts(ns, prow)
	colCuts := dist.UniformCuts(ns, pcol)
	grid := dist.NewGrid2D(prow, pcol, funcCuts(bs, rowCuts), funcCuts(bs, colCuts))

	// Prefix sums of the bra workload weights W(M) (screen.W) and of the
	// significant-set sizes |Phi(M)| (for the task-loop scan cost).
	wPrefix := make([]float64, ns+1)
	phiPrefix := make([]float64, ns+1)
	for m := 0; m < ns; m++ {
		wPrefix[m+1] = wPrefix[m] + scr.W[m]
		phiPrefix[m+1] = phiPrefix[m] + float64(len(scr.Phi[m]))
	}
	rate := float64(cfg.CoresPerNode) // ERI throughput multiplier per node

	stats := dist.NewRunStats(nprocs)

	type procState struct {
		finish        float64 // virtual time its current workload drains
		density       float64 // tasks per virtual second of current workload
		quantum       int64   // minimum steal size: one task-block row
		ver           int64
		exited        bool
		prevVictim    int
		prevVictimBuf int64
		victims       map[int]bool
		flushCalls    int64
		flushBytes    int64
	}
	procs := make([]procState, nprocs)
	bufBytes := make([]int64, nprocs) // D_local size of each initial block
	var h dist.EventHeap

	for i := 0; i < prow; i++ {
		for j := 0; j < pcol; j++ {
			pid := i*pcol + j
			blk := TaskBlock{R0: rowCuts[i], R1: rowCuts[i+1], C0: colCuts[j], C1: colCuts[j+1]}
			fp := NewFootprint()
			fp.AddBlock(scr, blk)
			patches := fp.Patches(bs, grid)
			calls, bytes := int64(len(patches)), int64(0)
			for _, p := range patches {
				bytes += 8 * int64(p.Elems())
			}
			bufBytes[pid] = fp.BufferBytes(bs)

			st := &stats.Per[pid]
			// Prefetch D now; the F flush over the same footprint is paid
			// at exit.
			st.Calls += calls
			st.Bytes += bytes
			prefetch := cfg.CommTime(calls, bytes)
			st.QueueOps++ // populate own queue

			// Algorithm 3 scans |Phi(M)| x |Phi(N)| candidates per task
			// (half the tasks exit at SymmetryCheck(M,N)): scheduler
			// overhead that scales with the screened pair structure.
			scan := cfg.CheckCostSec / 2 / rate *
				(phiPrefix[blk.R1] - phiPrefix[blk.R0]) *
				(phiPrefix[blk.C1] - phiPrefix[blk.C0])
			prefetch += scan
			st.CommTime += prefetch

			work := cfg.TIntGTFock * scr.WorkScale / 8 / rate *
				(wPrefix[blk.R1] - wPrefix[blk.R0]) *
				(wPrefix[blk.C1] - wPrefix[blk.C0])
			st.ComputeTime += work
			st.TasksRun += int64(blk.Count())

			p := &procs[pid]
			p.prevVictim = -1
			p.victims = map[int]bool{}
			p.flushCalls = calls
			p.flushBytes = bytes
			p.quantum = int64(blk.C1 - blk.C0) // one row of tasks
			if p.quantum < 1 {
				p.quantum = 1
			}
			p.finish = prefetch + work
			if work > 0 {
				p.density = float64(blk.Count()) / work
			}
			opts.Trace.Add(pid, 0, prefetch, dist.SpanComm)
			opts.Trace.Add(pid, prefetch, p.finish, dist.SpanCompute)
			dist.PushEvent(&h, dist.Event{At: p.finish, Proc: pid, Ver: 0})
		}
	}

	for h.Len() > 0 {
		e := dist.PopEvent(&h)
		p := &procs[e.Proc]
		if p.exited || e.Ver != p.ver {
			continue
		}
		t := e.At
		st := &stats.Per[e.Proc]

		// Choose steal victims per policy; the paper scans the node grid
		// row-wise starting from the thief's own row (Sec. III-F).
		var victims []int
		if opts.Policy != StealNone {
			myRow := e.Proc / pcol
			for r := 0; r < prow; r++ {
				row := (myRow + r) % prow
				for c := 0; c < pcol; c++ {
					if v := row*pcol + c; v != e.Proc {
						victims = append(victims, v)
					}
				}
			}
		}
		stole := false
		for _, v := range victims {
			if stole {
				break
			}
			{
				if procs[v].exited {
					continue
				}
				vp := &procs[v]
				remain := vp.finish - t
				if remain <= 0 || vp.density <= 0 {
					continue
				}
				// Steal half the remaining tasks, rounded down to whole
				// task-block rows (the granularity of Queue.Steal).
				nSteal := int64(remain*vp.density/2) / vp.quantum * vp.quantum
				if nSteal < vp.quantum || nSteal < 1 {
					continue
				}
				wSteal := float64(nSteal) / vp.density

				// Victim loses wSteal of work; refresh its event.
				vp.finish -= wSteal
				vp.ver++
				dist.PushEvent(&h, dist.Event{At: vp.finish, Proc: v, Ver: vp.ver})
				stats.Per[v].QueueOps += 2 // remote steal + queue update
				stats.Per[v].ComputeTime -= wSteal
				stats.Per[v].TasksRun -= nSteal

				// Thief: victim-switch buffer traffic (Sec. III-F).
				var commT float64
				if p.prevVictim != v {
					if p.prevVictim >= 0 {
						st.Calls++
						st.Bytes += p.prevVictimBuf
						commT += cfg.CommTime(1, p.prevVictimBuf)
					}
					st.Calls++
					st.Bytes += bufBytes[v]
					commT += cfg.CommTime(1, bufBytes[v])
					if !p.victims[v] {
						p.victims[v] = true
						st.Victims++
					}
					p.prevVictim = v
					p.prevVictimBuf = bufBytes[v]
				}
				commT += 2 * cfg.LatencySec // the two remote queue ops
				st.CommTime += commT
				st.Steals++
				st.ComputeTime += wSteal
				st.TasksRun += nSteal
				st.QueueOps++ // insert stolen block into own queue

				p.density = vp.density
				p.quantum = vp.quantum
				p.ver++
				p.finish = t + commT + wSteal
				opts.Trace.Add(e.Proc, t, t+commT, dist.SpanSteal)
				opts.Trace.Add(e.Proc, t+commT, p.finish, dist.SpanCompute)
				dist.PushEvent(&h, dist.Event{At: p.finish, Proc: e.Proc, Ver: p.ver})
				stole = true
			}
		}
		if stole {
			continue
		}
		// Nothing left to steal: flush and exit (Alg. 4 line 9).
		var flushT float64
		if p.prevVictim >= 0 {
			st.Calls++
			st.Bytes += p.prevVictimBuf
			flushT += cfg.CommTime(1, p.prevVictimBuf)
		}
		st.Calls += p.flushCalls
		st.Bytes += p.flushBytes
		flushT += cfg.CommTime(p.flushCalls, p.flushBytes)
		st.CommTime += flushT
		st.TotalTime = t + flushT
		opts.Trace.Add(e.Proc, t, t+flushT, dist.SpanComm)
		p.exited = true
	}

	for pid := range procs {
		if !procs[pid].exited {
			return nil, fmt.Errorf("core: simulated process %d never exited", pid)
		}
	}
	return stats, nil
}

// TotalWorkSeconds returns the model's total single-core ERI time for the
// whole Fock build: t_int * WorkScale * (sum_M W(M))^2 / 8 — the
// sequential-equivalent T_comp(1) of Sec. III-G used as the speedup
// baseline.
func TotalWorkSeconds(scr *screen.Screening, tint float64) float64 {
	var s float64
	for _, w := range scr.W {
		s += w
	}
	return tint * scr.WorkScale * s * s / 8
}
