package serve

import (
	"math"
	"testing"
	"time"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/metrics"
	"gtfock/internal/scf"
)

// Every FleetRunner attempt runs with the stored-ERI tier, its value
// budget the store share the server gave the job's run. Over a live
// 2-shard loopback fleet, one CH4 job per case, on a server of one slot
// and a queue of one (two slots the share leaves fixed room for):
//
//   - full: no budget, so the store gets its whole bound: iteration 1
//     records every task, iterations 2..N replay every task (hit rate 1),
//     and what it stores fits the share;
//   - half: the budget leaves the store half its values: it records what
//     fits and recomputes the rest every iteration;
//   - none: the budget fits only the store-less charge: admitted with
//     store share 0, no store — every task recomputes, nothing is stored.
//
// In every case the energy is the solo RunHF's to 1e-9.
func TestFleetRunnerStoreShare(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet e2e in short mode")
	}
	const convTol = 1e-11
	spec := JobSpec{Molecule: "CH4", Basis: "sto-3g", MaxIter: 40, ConvTol: convTol}
	mol, err := chem.ParseSpec(spec.Molecule)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := scf.RunHF(mol, scf.Options{BasisName: spec.Basis, MaxIter: spec.MaxIter, ConvTol: convTol})
	if err != nil || !solo.Converged {
		t.Fatalf("solo reference: %v", err)
	}
	bs, err := basis.Build(mol, spec.Basis)
	if err != nil {
		t.Fatal(err)
	}
	ns := int64(bs.NumShells())
	tasks := ns * (ns + 1) / 2 // tasks SymmetryCheck keeps: one store entry each

	addrs, _ := startShards(t)
	for _, tc := range []struct {
		name   string
		budget func(JobSize) int64
	}{
		{"full", func(JobSize) int64 { return 0 }},
		{"half", func(z JobSize) int64 { return 2*z.Fixed + z.StoreIndex + z.StoreValues/2 }},
		{"none", func(z JobSize) int64 { return z.Fixed }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runner := NewFleetRunner(addrs, t.TempDir())
			runner.Prow, runner.Pcol = 1, 2
			size, err := runner.Estimate(spec)
			if err != nil {
				t.Fatal(err)
			}
			budget := tc.budget(size)
			sm := metrics.NewServe()
			s, err := NewServer(Config{Capacity: 1, MaxQueue: 1, MemBudget: budget, Runner: runner, Metrics: sm})
			if err != nil {
				t.Fatal(err)
			}
			j, err := s.Submit(spec)
			if err != nil {
				t.Fatalf("submit under budget %d (fixed %d): %v", budget, size.Fixed, err)
			}
			res, err := waitDone(t, j, time.Now().Add(time.Minute))
			if err != nil || !res.Converged || res.Retries != 0 {
				t.Fatalf("job: %+v, %v", res, err)
			}
			wantStore := map[string]int64{"full": size.StoreValues, "half": size.StoreValues / 2, "none": 0}[tc.name]
			if j.Store != wantStore {
				t.Fatalf("store share %d, want %d", j.Store, wantStore)
			}
			if d := math.Abs(res.Energy - solo.Energy); d > 1e-9 {
				t.Fatalf("energy off solo reference by %g", d)
			}

			c := runner.Cache.Snapshot()
			if got := (&API{Server: s, Cache: runner.Cache}).Stats().Cache; got != c {
				t.Fatalf("/v1/stats stored-ERI counters %+v, runner's %+v", got, c)
			}
			replays := int64(res.Iterations-1) * tasks
			switch tc.name {
			case "full":
				if c.TaskMisses != tasks || c.TaskHits != replays || c.Dropped != 0 {
					t.Fatalf("hits/misses/dropped %d/%d/%d, want %d/%d/0: iterations 2..%d must replay every task",
						c.TaskHits, c.TaskMisses, c.Dropped, replays, tasks, res.Iterations)
				}
			case "half":
				if c.Dropped == 0 || c.TaskHits == 0 || c.TaskHits+c.TaskMisses != tasks+replays {
					t.Fatalf("half store: %+v; want some tasks replayed and some dropped", c)
				}
			case "none":
				if c != (metrics.Cache{}) {
					t.Fatalf("store-less job touched a store: %+v", c)
				}
			}
			if c.BytesStored > j.Store {
				t.Fatalf("stored %d value bytes, over the job's store share %d", c.BytesStored, j.Store)
			}
			if s.MemUsed() != 0 {
				t.Fatalf("charge %d still held after the job ended", s.MemUsed())
			}
		})
	}
}
