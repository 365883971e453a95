package nwchem

import (
	"fmt"

	"gtfock/internal/basis"
	"gtfock/internal/dist"
	"gtfock/internal/screen"
)

// Simulate runs the baseline algorithm through the discrete-event
// simulator with one process per core (NWChem runs one MPI rank per core,
// Sec. IV-A). Every task costs one serialized access to the centralized
// counter, the D fetches and F accumulates of the real build's task walk
// (TaskBlocks) under the alpha-beta model, and compute time
// t_int_nw * w(I,J) * w(K,L) for each surviving atom quartet.
//
// The per-ERI time is cfg.TIntGTFock * cfg.TIntNWChemFactor: NWChem's
// integral code is faster per ERI thanks to primitive pre-screening
// (Table V), especially on alkanes.
func Simulate(bs *basis.Set, scr *screen.Screening, cfg dist.Config, cores int) (*dist.RunStats, error) {
	nprocs := cores
	if nprocs <= 0 {
		return nil, fmt.Errorf("nwchem: non-positive core count %d", cores)
	}
	ad, err := NewAtomData(bs, scr)
	if err != nil {
		return nil, err
	}
	tint := cfg.TIntGTFock * cfg.TIntNWChemFactor * scr.WorkScale
	stats := dist.NewRunStats(nprocs)
	queue := &dist.CentralQueue{ServiceSec: cfg.QueueServiceSec, LatencySec: cfg.LatencySec}
	stream := NewTaskStream(ad)

	// Request heap: each entry is "process p asks the counter for its next
	// task at time At".
	var h dist.EventHeap
	for p := 0; p < nprocs; p++ {
		dist.PushEvent(&h, dist.Event{At: 0, Proc: p})
	}

	na := ad.N
	var ls []int
	var blocks [][2]int
	for h.Len() > 0 {
		e := dist.PopEvent(&h)
		p := e.Proc
		st := &stats.Per[p]
		granted := queue.Access(e.At)
		st.QueueOps++
		st.CommTime += granted - e.At

		td, ok := stream.Next()
		if !ok {
			// Queue exhausted: the process learns there is no more work
			// and leaves.
			st.TotalTime = granted
			continue
		}
		st.TasksRun++

		// The real build's walk: a D Get and an F Acc of each block.
		ls, blocks = ad.TaskBlocks(td, ls[:0], blocks[:0])
		calls, bytes := 2*int64(len(blocks)), int64(0)
		for i := range blocks {
			b := blocks[i]
			bytes += 2 * 8 * int64(ad.FuncLen[b[0]]) * int64(ad.FuncLen[b[1]])
		}
		var work float64
		wIJ := ad.W[td.I*na+td.J]
		for _, l := range ls {
			// Coincidence scaling makes the canonical-quartet sum equal
			// the ordered-quartet sum / 8 (same total as GTFock's model).
			scale := 1.0
			if td.I == td.J {
				scale *= 0.5
			}
			if td.K == l {
				scale *= 0.5
			}
			if td.I == td.K && td.J == l {
				scale *= 0.5
			}
			work += tint * scale * wIJ * ad.W[td.K*na+l]
		}
		st.Calls += calls
		st.Bytes += bytes
		comm := cfg.CommTime(calls, bytes)
		st.CommTime += comm
		st.ComputeTime += work
		dist.PushEvent(&h, dist.Event{At: granted + comm + work, Proc: p})
	}

	return stats, nil
}

// TotalTasks returns the number of tasks Algorithm 2 enumerates for this
// system (the id space of the centralized scheduler).
func TotalTasks(ad *AtomData) int64 {
	stream := NewTaskStream(ad)
	var n int64
	for {
		if _, ok := stream.Next(); !ok {
			return n
		}
		n++
	}
}
