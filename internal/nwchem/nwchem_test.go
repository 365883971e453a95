package nwchem

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/core"
	"gtfock/internal/dist"
	"gtfock/internal/linalg"
	"gtfock/internal/screen"
)

func setup(t *testing.T, mol *chem.Molecule, bname string, tau float64) (*basis.Set, *screen.Screening, *AtomData) {
	t.Helper()
	bs, err := basis.Build(mol, bname)
	if err != nil {
		t.Fatal(err)
	}
	scr := screen.Compute(bs, tau)
	ad, err := NewAtomData(bs, scr)
	if err != nil {
		t.Fatal(err)
	}
	return bs, scr, ad
}

func TestAtomDataAggregates(t *testing.T) {
	bs, scr, ad := setup(t, chem.Methane(), "sto-3g", 1e-11)
	if ad.N != 5 {
		t.Fatalf("N = %d", ad.N)
	}
	// Function ranges tile the basis.
	total := 0
	for a := 0; a < ad.N; a++ {
		if ad.FuncOff[a] != total {
			t.Fatalf("atom %d offset %d, want %d", a, ad.FuncOff[a], total)
		}
		total += ad.FuncLen[a]
	}
	if total != bs.NumFuncs {
		t.Fatal("atom ranges do not tile")
	}
	// Atom pair values dominate their shell pair values.
	for i := 0; i < ad.N; i++ {
		for j := 0; j < ad.N; j++ {
			for _, m := range bs.ByAtom[i] {
				for _, n := range bs.ByAtom[j] {
					if scr.PairValue(m, n) > ad.PairVal[i*ad.N+j]+1e-15 {
						t.Fatal("atom pair value not a max")
					}
				}
			}
		}
	}
}

func TestAtomDataRejectsReorderedBasis(t *testing.T) {
	mol := chem.Methane()
	bs, _ := basis.Build(mol, "sto-3g")
	order := rand.New(rand.NewSource(3)).Perm(bs.NumShells())
	pbs := bs.Permute(order)
	pscr := screen.Compute(pbs, 1e-11)
	if _, err := NewAtomData(pbs, pscr); err == nil {
		t.Fatal("expected error for non-contiguous atom shells")
	}
}

// The task stream must enumerate exactly the id space of Algorithm 2.
func TestTaskStreamMatchesBruteForce(t *testing.T) {
	_, _, ad := setup(t, chem.Alkane(3), "sto-3g", 1e-10)
	var want []TaskDesc
	for i := 0; i < ad.N; i++ {
		for j := 0; j <= i; j++ {
			if !ad.Sig(i, j) {
				continue
			}
			for k := 0; k <= i; k++ {
				lhi := k
				if k == i {
					lhi = j
				}
				for lo := 0; lo <= lhi; lo += 5 {
					hasWork := false
					for ll := lo; ll <= lo+4 && ll <= lhi; ll++ {
						if ad.Sig(k, ll) {
							hasWork = true
						}
					}
					if hasWork {
						want = append(want, TaskDesc{I: i, J: j, K: k, Lo: lo, Lhi: lhi})
					}
				}
			}
		}
	}
	stream := NewTaskStream(ad)
	var got []TaskDesc
	for {
		td, ok := stream.Next()
		if !ok {
			break
		}
		got = append(got, td)
	}
	if len(got) != len(want) {
		t.Fatalf("stream gave %d tasks, brute force %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("task %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	if TotalTasks(ad) != int64(len(want)) {
		t.Fatal("TotalTasks mismatch")
	}
}

// TaskBlocks must give every task's surviving L values and exactly the
// distinct atom blocks of its quartets, appended after what the buffers
// already hold.
func TestTaskBlocksMatchesBruteForce(t *testing.T) {
	for _, mol := range []*chem.Molecule{chem.Alkane(3), chem.Benzene()} {
		_, _, ad := setup(t, mol, "sto-3g", 1e-10)
		stream := NewTaskStream(ad)
		ls, blocks := []int{-1}, [][2]int{{-1, -1}}
		for {
			td, ok := stream.Next()
			if !ok {
				break
			}
			var want []int
			set := map[[2]int]bool{{td.I, td.J}: true, {td.I, td.K}: true, {td.J, td.K}: true}
			for l := td.Lo; l <= td.Lo+4 && l <= td.Lhi; l++ {
				if ad.Sig(td.K, l) {
					want = append(want, l)
					set[[2]int{td.K, l}], set[[2]int{td.J, l}], set[[2]int{td.I, l}] = true, true, true
				}
			}
			ls, blocks = ad.TaskBlocks(td, ls[:1], blocks[:1])
			if ls[0] != -1 || blocks[0] != [2]int{-1, -1} {
				t.Fatalf("%+v: the buffers' first entries were overwritten", td)
			}
			if !slices.Equal(ls[1:], want) {
				t.Fatalf("%+v: L values %v, want %v", td, ls[1:], want)
			}
			seen := map[[2]int]bool{}
			for _, b := range blocks[1:] {
				if seen[b] || !set[b] {
					t.Fatalf("%+v: blocks %v, want each of %v once", td, blocks[1:], set)
				}
				seen[b] = true
			}
			if len(seen) != len(set) {
				t.Fatalf("%+v: blocks %v, want each of %v once", td, blocks[1:], set)
			}
		}
	}
}

func randDensity(nf int, seed int64) *linalg.Matrix {
	d := linalg.NewMatrix(nf, nf)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nf; i++ {
		for j := 0; j <= i; j++ {
			v := rng.NormFloat64() * math.Exp(-0.1*float64(i-j))
			d.Set(i, j, v)
			d.Set(j, i, v)
		}
	}
	return d
}

// The baseline must produce the same Fock matrix as the serial oracle and
// (hence) as GTFock, for various process counts.
func TestBaselineMatchesSerialOracle(t *testing.T) {
	bs, scr, _ := setup(t, chem.Methane(), "sto-3g", 1e-11)
	d := randDensity(bs.NumFuncs, 7)
	ref := core.BuildSerial(bs, scr, d)
	for _, p := range []int{1, 2, 5, 13} {
		res, err := Build(bs, scr, d, Options{Procs: p})
		if err != nil {
			t.Fatal(err)
		}
		if diff := linalg.MaxAbsDiff(ref, res.G); diff > 1e-9 {
			t.Fatalf("p=%d: |G - serial| = %g", p, diff)
		}
	}
}

func TestBaselineMatchesGTFockCCPVDZ(t *testing.T) {
	bs, scr, _ := setup(t, chem.Hydrogen2(0.85), "cc-pvdz", 1e-11)
	d := randDensity(bs.NumFuncs, 11)
	gt := core.Build(bs, scr, d, core.Options{Prow: 2, Pcol: 2})
	nw, err := Build(bs, scr, d, Options{Procs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if diff := linalg.MaxAbsDiff(gt.G, nw.G); diff > 1e-9 {
		t.Fatalf("|G_gtfock - G_nwchem| = %g", diff)
	}
}

// The two clocks run one Algorithm 2: a real build at P processes and the
// simulator at P cores walk the same tasks (TaskBlocks), so they count the
// same calls, bytes and tasks, and the centralized counter is read once
// per task plus once per process that finds the stream exhausted.
func TestBaselineSimChargesTheRealWalk(t *testing.T) {
	cases := []struct {
		mol   *chem.Molecule
		basis string
		tau   float64
		procs []int
	}{
		{chem.Alkane(3), "sto-3g", 1e-10, []int{1, 3, 4}},
		{chem.Methane(), "cc-pvdz", 1e-10, []int{1, 3, 4}},
		{chem.Benzene(), "sto-3g", 1e-10, []int{1, 3, 4}},
		{chem.Alkane(2), "sto-3g", 1e-11, []int{4}},
	}
	for _, c := range cases {
		bs, scr, ad := setup(t, c.mol, c.basis, c.tau)
		d := randDensity(bs.NumFuncs, 13)
		tasks := TotalTasks(ad)
		for _, p := range c.procs {
			t.Run(fmt.Sprintf("%s_%s_P%d", c.mol.Formula(), c.basis, p), func(t *testing.T) {
				res, err := Build(bs, scr, d, Options{Procs: p})
				if err != nil {
					t.Fatal(err)
				}
				sim, err := Simulate(bs, scr, dist.Lonestar(), p)
				if err != nil {
					t.Fatal(err)
				}
				var real, simd dist.ProcStats
				for _, st := range res.Stats.Per {
					real.Add(st)
				}
				for _, st := range sim.Per {
					simd.Add(st)
				}
				if real.Calls == 0 || real.Bytes == 0 {
					t.Fatal("no communication recorded")
				}
				if real.Calls != simd.Calls || real.Bytes != simd.Bytes || real.TasksRun != simd.TasksRun {
					t.Errorf("real %d calls, %d B, %d tasks; simulated %d calls, %d B, %d tasks",
						real.Calls, real.Bytes, real.TasksRun, simd.Calls, simd.Bytes, simd.TasksRun)
				}
				if real.TasksRun != tasks {
					t.Errorf("%d tasks run, stream has %d", real.TasksRun, tasks)
				}
				for name, st := range map[string]*dist.RunStats{"real": res.Stats, "simulated": sim} {
					if got, want := st.QueueOpsTotal(), tasks+int64(p); got != want {
						t.Errorf("%s: %d counter accesses, want %d tasks + %d processes", name, got, tasks, p)
					}
				}
				t.Logf("%d calls, %d B, %d tasks, %d counter accesses", real.Calls, real.Bytes, real.TasksRun, res.Stats.QueueOpsTotal())
			})
		}
	}
}

// Simulate rejects a core count before it reads the basis or the screen.
func TestSimulateRejectsNonPositiveCores(t *testing.T) {
	for _, cores := range []int{0, -1} {
		if _, err := Simulate(nil, nil, dist.Lonestar(), cores); err == nil {
			t.Errorf("cores=%d: no error", cores)
		}
	}
}

// DES: the baseline simulation must conserve work across core counts and
// show the centralized-queue serialization at large core counts.
func TestSimulateBaselineScaling(t *testing.T) {
	mol := chem.Alkane(12)
	bs, _ := basis.Build(mol, "cc-pvdz")
	scr := screen.Compute(bs, 1e-10)
	cfg := dist.Lonestar()
	var prevWork float64
	var times []float64
	for i, cores := range []int{12, 48, 192} {
		st, err := Simulate(bs, scr, cfg, cores)
		if err != nil {
			t.Fatal(err)
		}
		var work float64
		for _, ps := range st.Per {
			work += ps.ComputeTime
		}
		if i > 0 && math.Abs(work-prevWork) > 1e-9*prevWork {
			t.Fatalf("total work not conserved: %g vs %g", work, prevWork)
		}
		prevWork = work
		times = append(times, st.TFockAvg())
		if st.LoadBalance() < 1 {
			t.Fatal("load balance below 1")
		}
	}
	if !(times[0] > times[1] && times[1] > times[2]) {
		t.Fatalf("no strong scaling: %v", times)
	}
}

// Cost-model consistency: GTFock's task workload model and the baseline's
// atom-quartet workload model must measure (nearly) the same total work
// for the same t_int.
func TestSimWorkModelsConsistent(t *testing.T) {
	mol := chem.Alkane(10)
	bs, _ := basis.Build(mol, "cc-pvdz")
	scr := screen.Compute(bs, 1e-10)
	cfg := dist.Lonestar()
	cfg.TIntNWChemFactor = 1 // same per-ERI cost for this comparison

	gt, err := core.Simulate(bs, scr, cfg, 48)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := Simulate(bs, scr, cfg, 48)
	if err != nil {
		t.Fatal(err)
	}
	var gtWork, nwWork float64
	for _, ps := range gt.Per {
		gtWork += ps.ComputeTime * float64(cfg.CoresPerNode) // node-rate to core-seconds
	}
	for _, ps := range nw.Per {
		nwWork += ps.ComputeTime
	}
	if gtWork <= 0 || nwWork <= 0 {
		t.Fatal("zero work")
	}
	ratio := gtWork / nwWork
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("work models disagree: GTFock %g vs baseline %g core-seconds (ratio %g)",
			gtWork, nwWork, ratio)
	}
	// And both equal the analytic sequential-equivalent total.
	seq := core.TotalWorkSeconds(scr, cfg.TIntGTFock)
	if r := gtWork / seq; r < 0.95 || r > 1.05 {
		t.Fatalf("GTFock work %g vs analytic %g", gtWork, seq)
	}
}

var simSink *dist.RunStats

// Diagnosis only (make microbench): the baseline simulator on C96H24/
// cc-pVDZ at 3888 cores, the paper's largest run, about a second a pass.
func BenchmarkSimulate(b *testing.B) {
	mol, err := chem.PaperMolecule("C96H24")
	if err != nil {
		b.Fatal(err)
	}
	bs, err := basis.Build(mol, "cc-pvdz")
	if err != nil {
		b.Fatal(err)
	}
	scr := screen.Compute(bs, screen.DefaultTau)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if simSink, err = Simulate(bs, scr, dist.Lonestar(), 3888); err != nil {
			b.Fatal(err)
		}
	}
}
