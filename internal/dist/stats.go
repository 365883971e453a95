package dist

import "math"

// ProcStats accumulates per-process accounting, mirroring the quantities
// the paper reports in Tables VI-VIII and Fig. 2. In real mode times are
// wall-clock seconds; in sim mode they are virtual seconds. A real-mode
// rank that runs its tasks on several lanes reports ComputeTime as the
// rank's wall-clock inside task sections (its busiest lane per fork-join),
// not the sum over lanes, so ComputeTime <= TotalTime and T_comp + T_ov is
// still the build; TasksRun sums the lanes.
type ProcStats struct {
	Calls       int64   // one-sided communication calls (Table VII)
	Bytes       int64   // total communication volume incl. local (Table VI)
	RemoteBytes int64   // volume crossing process boundaries
	ComputeTime float64 // T_comp contribution
	CommTime    float64 // time charged to communication
	IdleTime    float64 // time waiting with no work available
	Steals      int64   // successful steals performed by this process
	Victims     int64   // distinct victims stolen from (the model's s)
	QueueOps    int64   // atomic task-queue operations touching this process
	TasksRun    int64   // tasks executed by this process
	TotalTime   float64 // T_fock for this process
}

// Add accumulates o into s.
func (s *ProcStats) Add(o ProcStats) {
	s.Calls += o.Calls
	s.Bytes += o.Bytes
	s.RemoteBytes += o.RemoteBytes
	s.ComputeTime += o.ComputeTime
	s.CommTime += o.CommTime
	s.IdleTime += o.IdleTime
	s.Steals += o.Steals
	s.Victims += o.Victims
	s.QueueOps += o.QueueOps
	s.TasksRun += o.TasksRun
	s.TotalTime += o.TotalTime
}

// RecoveryStats counts fault-tolerance events of a run. Fields are
// updated with sync/atomic by workers, the lease monitor, and the
// global-array fault path concurrently; read them after the run joins.
type RecoveryStats struct {
	Crashes          int64 // injected worker crashes
	Stalls           int64 // injected worker stalls
	Aborts           int64 // workers abandoned after exhausting op retries
	WorkersFenced    int64 // incarnations declared dead (lease expiry or sweep)
	BlocksOrphaned   int64 // task blocks confiscated from fenced workers
	BlocksReassigned int64 // orphaned blocks adopted by surviving workers
	TasksReassigned  int64 // tasks in those adopted blocks
	FencedFlushes    int64 // zombie flushes discarded by epoch fencing
	OpDrops          int64 // one-sided ops lost in transport
	OpRetries        int64 // retries issued by the reliable op wrappers
	Rounds           int64 // extra recovery rounds beyond the first
}

// Any reports whether any recovery event occurred.
func (r *RecoveryStats) Any() bool {
	return r.Crashes+r.Stalls+r.Aborts+r.WorkersFenced+r.BlocksOrphaned+
		r.BlocksReassigned+r.FencedFlushes+r.OpDrops+r.OpRetries+r.Rounds > 0
}

// RunStats aggregates a whole Fock-build run.
type RunStats struct {
	Per      []ProcStats
	Recovery RecoveryStats
}

// NewRunStats allocates stats for p processes.
func NewRunStats(p int) *RunStats { return &RunStats{Per: make([]ProcStats, p)} }

// Charge records one one-sided call by proc on the region [r0,r1) x
// [c0,c1) of an array laid out over g, as the paper instruments GA (call
// counts and transfer volumes, Tables VI/VII; volumes include local
// transfers, matching the measurement note in Sec. IV-C). It is the only
// place calls and bytes are counted: the in-process array's infallible
// ops and the retry loops both come here. A nil receiver or a driver-side
// proc (< 0) is not accounted.
func (r *RunStats) Charge(g *Grid2D, proc, r0, r1, c0, c1 int) {
	if r == nil || proc < 0 {
		return
	}
	st := &r.Per[proc]
	st.Calls++
	elems := int64(r1-r0) * int64(c1-c0)
	st.Bytes += 8 * elems
	// Everything outside the caller's own block (a caller that is not a
	// grid process owns none) crosses a process boundary.
	if proc < g.NumProcs() {
		i, j := g.Coords(proc)
		localRows := minInt(r1, g.RowCuts[i+1]) - maxInt(r0, g.RowCuts[i])
		localCols := minInt(c1, g.ColCuts[j+1]) - maxInt(c0, g.ColCuts[j])
		if localRows > 0 && localCols > 0 {
			elems -= int64(localRows) * int64(localCols)
		}
	}
	st.RemoteBytes += 8 * elems
}

// P returns the number of processes.
func (r *RunStats) P() int { return len(r.Per) }

// perAvg averages one ProcStats field over the processes; 0 for an
// empty (0-process) run rather than 0/0 = NaN.
func (r *RunStats) perAvg(f func(*ProcStats) float64) float64 {
	if len(r.Per) == 0 {
		return 0
	}
	var s float64
	for i := range r.Per {
		s += f(&r.Per[i])
	}
	return s / float64(len(r.Per))
}

// TFockAvg returns the average per-process total time (the paper's
// T_fock).
func (r *RunStats) TFockAvg() float64 {
	return r.perAvg(func(p *ProcStats) float64 { return p.TotalTime })
}

// TFockMax returns the makespan (slowest process).
func (r *RunStats) TFockMax() float64 {
	var m float64
	for i := range r.Per {
		if r.Per[i].TotalTime > m {
			m = r.Per[i].TotalTime
		}
	}
	return m
}

// TCompAvg returns the average per-process computation-only time.
func (r *RunStats) TCompAvg() float64 {
	return r.perAvg(func(p *ProcStats) float64 { return p.ComputeTime })
}

// TOverheadAvg returns the paper's T_ov = T_fock - T_comp (Fig. 2).
func (r *RunStats) TOverheadAvg() float64 { return r.TFockAvg() - r.TCompAvg() }

// LoadBalance returns l = T_max/T_avg (Table VIII). A run with no
// recorded time — zero processes, or a 0-task grid whose workers never
// ticked the clock — is perfectly balanced by definition: 1, never NaN.
func (r *RunStats) LoadBalance() float64 {
	avg := r.TFockAvg()
	if avg == 0 {
		return 1
	}
	return r.TFockMax() / avg
}

// VolumeAvgMB returns the average per-process communication volume in MB
// (Table VI; MB = 1e6 bytes).
func (r *RunStats) VolumeAvgMB() float64 {
	return r.perAvg(func(p *ProcStats) float64 { return float64(p.Bytes) }) / 1e6
}

// CallsAvg returns the average per-process number of one-sided calls
// (Table VII).
func (r *RunStats) CallsAvg() float64 {
	return r.perAvg(func(p *ProcStats) float64 { return float64(p.Calls) })
}

// StealsAvg returns the average number of successful steals per process.
func (r *RunStats) StealsAvg() float64 {
	return r.perAvg(func(p *ProcStats) float64 { return float64(p.Steals) })
}

// VictimsAvg returns s, the average number of distinct victims per process
// (Sec. III-G; measured 3.8 for C96H24 at 3888 cores in the paper).
func (r *RunStats) VictimsAvg() float64 {
	return r.perAvg(func(p *ProcStats) float64 { return float64(p.Victims) })
}

// QueueOpsAvg returns the average number of atomic queue operations per
// process queue (Sec. IV-C scheduler-overhead discussion).
func (r *RunStats) QueueOpsAvg() float64 {
	return r.perAvg(func(p *ProcStats) float64 { return float64(p.QueueOps) })
}

// QueueOpsTotal returns the total number of atomic queue operations (for
// NWChem's centralized queue this is the access count of the single
// global counter).
func (r *RunStats) QueueOpsTotal() int64 {
	var c int64
	for i := range r.Per {
		c += r.Per[i].QueueOps
	}
	return c
}

// Speedup returns ref/t where ref is a reference sequential-equivalent
// time; convenience for Table IV.
func Speedup(ref, t float64) float64 {
	if t == 0 {
		return math.Inf(1)
	}
	return ref / t
}
