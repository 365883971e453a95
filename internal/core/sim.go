package core

import (
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
	// Trace, if non-nil, collects one span per stretch of each process's
	// virtual time: prefetch, compute, steal, the last idle scan and the
	// flush. A process's spans tile [0, its TotalTime].
	Trace *dist.Trace
}

// Simulate runs the GTFock algorithm through the discrete-event simulator
// at paper scale: `cores` total cores, one process per node of
// cfg.CoresPerNode cores (Sec. IV-A), on a square-ish node grid.
//
// It is Build's Algorithm 4 on a virtual clock. Each process owns a real
// Queue holding its static block, and one event loop advances whichever
// process is earliest. That process Pops a task and pays its cost under
// the screening-derived workload model of DESIGN.md: t_int * WorkScale *
// W(M) * W(N) / 8 ERI-seconds at a node rate of CoresPerNode, doubled when
// M != N (the task stands for (N,M) too) and nothing when SymmetryCheck
// ends it, plus Algorithm 3's check scan of |Phi(M)| x |Phi(N)|
// candidates. A dry process runs Build's victim scan (stealScan), one
// LatencySec per queue it probes; a block it takes with Queue.Steal enters
// through Build's intake (Footprint.Intake), whose patches are charged
// with the alpha-beta model, and joins the thief's queue once they have
// landed. A process whose scan finds nothing flushes F over its footprint
// (Footprint.Patches) and exits. QueueOps and StealProbes are each
// queue's Queue.Ops and Queue.StealOps, as Build reports them.
func Simulate(bs *basis.Set, scr *screen.Screening, cfg dist.Config, cores int) (*dist.RunStats, error) {
	return SimulateOptions(bs, scr, cfg, cores, SimOptions{})
}

// simProc is one simulated process beside its queue.
type simProc struct {
	fp      *Footprint
	victims map[int]bool
	// pending is a stolen block whose patches are in flight; it joins the
	// queue at the process's next event, as Build adds it after addWork.
	pending TaskBlock
	open    dist.Span // the trace stretch not yet recorded
}

// SimulateOptions is Simulate with ablation options.
func SimulateOptions(bs *basis.Set, scr *screen.Screening, cfg dist.Config, cores int, opts SimOptions) (*dist.RunStats, error) {
	nodes, err := cfg.NodesFor(cores)
	if err != nil {
		return nil, err
	}
	prow, pcol := dist.SquareGridFor(nodes)
	grid := Grid(bs, prow, pcol)
	nprocs := grid.NumProcs()

	rate := float64(cfg.CoresPerNode) // ERI throughput multiplier per node
	eriSec := cfg.TIntGTFock * scr.WorkScale / 8 / rate
	checkSec := cfg.CheckCostSec / rate

	stats := dist.NewRunStats(nprocs)
	queues := make([]*Queue, nprocs)
	procs := make([]simProc, nprocs)
	var h dist.EventHeap

	// stretch records [from, to) of process pid as kind, extending the
	// open span when it continues it.
	stretch := func(pid int, kind byte, from, to float64) {
		if opts.Trace == nil || to <= from {
			return
		}
		p := &procs[pid]
		if p.open.Kind == kind && p.open.End == from {
			p.open.End = to
			return
		}
		opts.Trace.Add(pid, p.open.Start, p.open.End, p.open.Kind)
		p.open = dist.Span{Start: from, End: to, Kind: kind}
	}
	// move charges process pid the one-sided calls of patches from t on,
	// as kind, and returns when they have landed.
	move := func(pid int, kind byte, patches []dist.Patch, t float64) float64 {
		st := &stats.Per[pid]
		var bytes int64
		for _, p := range patches {
			bytes += 8 * int64(p.Elems())
		}
		dt := cfg.CommTime(int64(len(patches)), bytes)
		st.Calls += int64(len(patches))
		st.Bytes += bytes
		st.CommTime += dt
		stretch(pid, kind, t, t+dt)
		return t + dt
	}

	for pid, blk := range staticPartition(bs.NumShells(), prow, pcol) {
		queues[pid] = NewQueue(blk)
		procs[pid] = simProc{fp: NewFootprint(), victims: map[int]bool{}}
		at := move(pid, dist.SpanPrefetch, procs[pid].fp.Intake(bs, scr, grid, blk), 0)
		dist.PushEvent(&h, dist.Event{At: at, Proc: pid})
	}

events:
	for h.Len() > 0 {
		e := dist.PopEvent(&h)
		pid, t := e.Proc, e.At
		p, q, st := &procs[pid], queues[pid], &stats.Per[pid]
		if !p.pending.Empty() {
			q.AddBlock(p.pending)
			p.pending = TaskBlock{}
		}
		// Run tasks while this process is the earliest: no other process
		// acts before the heap's top, so its queue is as it would be.
		for task, ok := q.Pop(); ok; task, ok = q.Pop() {
			if SymmetryCheck(task.M, task.N) {
				eri := eriSec * scr.W[task.M] * scr.W[task.N]
				if task.M != task.N {
					eri *= 2
				}
				check := checkSec * float64(len(scr.Phi[task.M])*len(scr.Phi[task.N]))
				stretch(pid, dist.SpanCompute, t, t+eri+check)
				t += eri + check
				st.ComputeTime += eri
				st.CommTime += check
			}
			st.TasksRun++
			if next := (dist.Event{At: t, Proc: pid}); h.Len() > 0 && h[0].Before(next) {
				dist.PushEvent(&h, next)
				continue events
			}
		}
		if opts.Policy != StealNone {
			probes := 0
			blk, ok := stealScan(grid, pid, p.victims, st, func(v int) (TaskBlock, bool) {
				probes++
				return queues[v].Steal()
			})
			dt := float64(probes) * cfg.LatencySec
			st.CommTime += dt
			if ok {
				stretch(pid, dist.SpanSteal, t, t+dt)
				p.pending = blk
				at := move(pid, dist.SpanPrefetch, p.fp.Intake(bs, scr, grid, blk), t+dt)
				dist.PushEvent(&h, dist.Event{At: at, Proc: pid})
				continue
			}
			stretch(pid, dist.SpanIdle, t, t+dt)
			t += dt
		}
		// Nothing left to steal: flush and exit (Alg. 4 line 9).
		st.TotalTime = move(pid, dist.SpanFlush, p.fp.Patches(bs, grid), t)
		opts.Trace.Add(pid, p.open.Start, p.open.End, p.open.Kind)
	}
	for pid, q := range queues {
		stats.Per[pid].QueueOps = q.Ops
		stats.Per[pid].StealProbes = q.StealOps
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
