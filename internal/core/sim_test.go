package core

import (
	"math"
	"testing"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/dist"
	"gtfock/internal/screen"
)

func simSetup(t *testing.T, mol *chem.Molecule) (*basis.Set, *screen.Screening) {
	t.Helper()
	bs, err := basis.Build(mol, "cc-pvdz")
	if err != nil {
		t.Fatal(err)
	}
	return bs, screen.Compute(bs, 1e-10)
}

// Work conservation: total executed compute equals the analytic total for
// every core count, steals or not, and every one of the ns^2 tasks runs
// once.
func TestSimulateConservesWork(t *testing.T) {
	bs, scr := simSetup(t, chem.Alkane(16))
	cfg := dist.Lonestar()
	want := TotalWorkSeconds(scr, cfg.TIntGTFock)
	ns := int64(bs.NumShells())
	for _, cores := range []int{12, 108, 432} {
		st, err := Simulate(bs, scr, cfg, cores)
		if err != nil {
			t.Fatal(err)
		}
		var got float64
		var tasks int64
		for _, ps := range st.Per {
			got += ps.ComputeTime * float64(cfg.CoresPerNode)
			tasks += ps.TasksRun
		}
		if math.Abs(got-want) > 1e-6*want {
			t.Fatalf("cores=%d: executed %g, want %g", cores, got, want)
		}
		if tasks != ns*ns {
			t.Fatalf("cores=%d: %d tasks run, want ns^2 = %d", cores, tasks, ns*ns)
		}
	}
}

// The trace is exact: each process's spans tile its virtual time, so
// their lengths sum to its TotalTime, with stealing and without.
func TestSimTraceSumsToTotalTime(t *testing.T) {
	bs, scr := simSetup(t, chem.Alkane(12))
	for _, policy := range []StealPolicy{StealRowWise, StealNone} {
		tr := &dist.Trace{}
		st, err := SimulateOptions(bs, scr, dist.Lonestar(), 108, SimOptions{Policy: policy, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		sum := make([]float64, st.P())
		for _, s := range tr.Spans() {
			sum[s.Proc] += s.End - s.Start
		}
		for p, ps := range st.Per {
			if math.Abs(sum[p]-ps.TotalTime) > 1e-9*ps.TotalTime {
				t.Fatalf("policy %d, process %d: spans sum to %g s, TotalTime %g s", policy, p, sum[p], ps.TotalTime)
			}
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	bs, scr := simSetup(t, chem.Alkane(10))
	cfg := dist.Lonestar()
	a, err := Simulate(bs, scr, cfg, 108)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(bs, scr, cfg, 108)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Per {
		if a.Per[i] != b.Per[i] {
			t.Fatalf("proc %d stats differ between runs", i)
		}
	}
}

func TestSimulateStrongScaling(t *testing.T) {
	bs, scr := simSetup(t, chem.GrapheneFlake(3))
	cfg := dist.Lonestar()
	var prev float64 = math.Inf(1)
	for _, cores := range []int{12, 108, 432, 972} {
		st, err := Simulate(bs, scr, cfg, cores)
		if err != nil {
			t.Fatal(err)
		}
		tf := st.TFockAvg()
		if tf >= prev {
			t.Fatalf("no speedup at %d cores: %g >= %g", cores, tf, prev)
		}
		prev = tf
	}
}

// Work stealing keeps the simulated load balance close to 1 (Table VIII
// reports 1.0x values), even though the alkane's static partition is
// irregular.
func TestSimulateLoadBalance(t *testing.T) {
	bs, scr := simSetup(t, chem.Alkane(20))
	cfg := dist.Lonestar()
	st, err := Simulate(bs, scr, cfg, 432)
	if err != nil {
		t.Fatal(err)
	}
	if l := st.LoadBalance(); l > 1.2 {
		t.Fatalf("load balance %g too poor despite stealing", l)
	}
	if st.StealsAvg() == 0 {
		t.Fatal("expected steals on an irregular alkane partition")
	}
	if st.VictimsAvg() > st.StealsAvg() {
		t.Fatal("more distinct victims than steals")
	}
}

// In the infinite-bandwidth, zero-latency limit the overhead must be
// dominated by load imbalance only — tiny compared to compute.
func TestSimulateZeroCommLimit(t *testing.T) {
	bs, scr := simSetup(t, chem.Alkane(12))
	cfg := dist.Lonestar()
	cfg.BandwidthBps = 1e30
	cfg.LatencySec = 0
	st, err := Simulate(bs, scr, cfg, 108)
	if err != nil {
		t.Fatal(err)
	}
	if ov := st.TOverheadAvg(); ov > 0.05*st.TCompAvg() {
		t.Fatalf("overhead %g not negligible vs compute %g in zero-comm limit",
			ov, st.TCompAvg())
	}
}

// Communication volume per process must decrease with more processes
// (each owns a smaller task block).
func TestSimulateVolumeShrinksWithP(t *testing.T) {
	bs, scr := simSetup(t, chem.Alkane(24))
	cfg := dist.Lonestar()
	v1, _ := Simulate(bs, scr, cfg, 108)
	v2, _ := Simulate(bs, scr, cfg, 972)
	if v2.VolumeAvgMB() >= v1.VolumeAvgMB() {
		t.Fatalf("per-proc volume did not shrink: %g -> %g MB",
			v1.VolumeAvgMB(), v2.VolumeAvgMB())
	}
}

// Ablation: disabling work stealing leaves only the static partition, so
// load balance must degrade on the irregular alkane workload.
func TestSimulateNoStealAblation(t *testing.T) {
	bs, scr := simSetup(t, chem.Alkane(20))
	cfg := dist.Lonestar()
	withSteal, err := SimulateOptions(bs, scr, cfg, 432, SimOptions{Policy: StealRowWise})
	if err != nil {
		t.Fatal(err)
	}
	noSteal, err := SimulateOptions(bs, scr, cfg, 432, SimOptions{Policy: StealNone})
	if err != nil {
		t.Fatal(err)
	}
	if noSteal.StealsAvg() != 0 {
		t.Fatal("StealNone still stole")
	}
	if noSteal.LoadBalance() <= withSteal.LoadBalance() {
		t.Fatalf("static-only balance %.3f not worse than stealing %.3f",
			noSteal.LoadBalance(), withSteal.LoadBalance())
	}
	// Makespan must not improve without stealing.
	if noSteal.TFockMax() < withSteal.TFockMax()*0.999 {
		t.Fatalf("no-steal makespan %.3f beat stealing %.3f",
			noSteal.TFockMax(), withSteal.TFockMax())
	}
}

// Rejects core counts that are not whole nodes.
func TestSimulateRejectsPartialNodes(t *testing.T) {
	bs, scr := simSetup(t, chem.Alkane(4))
	if _, err := Simulate(bs, scr, dist.Lonestar(), 13); err == nil {
		t.Fatal("expected error for 13 cores")
	}
}

// The simulator charges the real build's one footprint walk: at one node
// (12 cores, one process, a 1x1 grid) nothing is stolen, so its calls and
// MB per process are exactly a real 1x1 build's — one Get and one Acc per
// patch of Footprint.Patches.
func TestSimChargesTheRealWalk(t *testing.T) {
	for _, spec := range []string{"CH4", "alkane:6"} {
		mol, err := chem.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		bs, scr, d := buildSetup(t, mol, "sto-3g")
		real := Build(bs, scr, d, Options{})
		if real.Err != nil {
			t.Fatal(real.Err)
		}
		sim, err := Simulate(bs, scr, dist.Lonestar(), 12)
		if err != nil {
			t.Fatal(err)
		}
		if sc, rc, sv, rv := sim.CallsAvg(), real.Stats.CallsAvg(), sim.VolumeAvgMB(), real.Stats.VolumeAvgMB(); sc != rc || sv != rv {
			t.Errorf("%s/STO-3G at one node: simulated %g calls, %g MB; the real 1x1 build %g calls, %g MB", spec, sc, sv, rc, rv)
		}
	}
}
