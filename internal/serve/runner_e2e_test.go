package serve

import (
	"context"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"gtfock/internal/chem"
	"gtfock/internal/metrics"
	netga "gtfock/internal/net"
	"gtfock/internal/scf"
)

// soloEnergy is spec's energy from an in-process RunHF.
func soloEnergy(t *testing.T, spec JobSpec) float64 {
	t.Helper()
	mol, err := chem.ParseSpec(spec.Molecule)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scf.RunHF(mol, scf.Options{BasisName: spec.Basis, MaxIter: spec.MaxIter, ConvTol: spec.ConvTol})
	if err != nil || !res.Converged {
		t.Fatalf("solo reference %s: %v", spec.Molecule, err)
	}
	return res.Energy
}

// runOne submits spec to s and waits for it, failing the test unless it
// finishes done, without a retry, on the solo energy.
func runOne(t *testing.T, s *Server, spec JobSpec, solo float64) *Job {
	t.Helper()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkDone(t, j, solo)
	return j
}

// checkDone waits for j, failing the test unless it finishes done,
// without a retry, on the solo energy.
func checkDone(t *testing.T, j *Job, solo float64) {
	t.Helper()
	res, err := waitDone(t, j, time.Now().Add(time.Minute))
	if err != nil || !res.Converged {
		t.Fatalf("job %s: %+v, %v", j.ID, res, err)
	}
	if d := math.Abs(res.Energy - solo); d > 1e-9 {
		t.Fatalf("job %s: energy off the solo reference by %g", j.ID, d)
	}
	evs, _ := j.EventsSince(0)
	for _, ev := range evs {
		if ev.Type == "retry" {
			t.Fatalf("job %s retried: %s", j.ID, ev.Msg)
		}
	}
}

// ckptFiles lists the checkpoint files in dir.
func ckptFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// waitNoCkptFiles waits for dir to hold no checkpoint file: the server
// removes a finished job's files off its lock, after publishing it.
func waitNoCkptFiles(t *testing.T, dir, after string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		files := ckptFiles(t, dir)
		if len(files) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s the checkpoint dir holds %v", after, files)
		}
	}
}

// A FleetRunner keeps its shard conns for its life. Jobs run one after
// another, or a few at a time on a wider grid, dial each shard no more
// than the RPCs that can be in flight to it at once, however many jobs
// run: one per rank of every running job (a rank's lanes compute, the
// rank fetches and flushes). Every job's session says hello to each
// shard once — its D and F clients share the hello — counted by the
// shards themselves.
func TestFleetRunnerPoolsConns(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet e2e in short mode")
	}
	for _, tc := range []struct {
		name                 string
		spec                 JobSpec
		capacity, prow, pcol int
		rounds               int // of capacity jobs submitted together
	}{
		{"sequential", JobSpec{Molecule: "H2", Basis: "sto-3g", MaxIter: 30}, 1, 1, 2, 20},
		{"concurrent", JobSpec{Molecule: "CH4", Basis: "sto-3g", MaxIter: 40}, 3, 2, 2, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			solo := soloEnergy(t, tc.spec)
			addrs, servers := startShards(t)
			runner := NewFleetRunner(addrs, t.TempDir())
			runner.Prow, runner.Pcol = tc.prow, tc.pcol
			s, err := NewServer(Config{Capacity: tc.capacity, Runner: runner})
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < tc.rounds; r++ {
				round := make([]*Job, tc.capacity)
				for k := range round {
					if round[k], err = s.Submit(tc.spec); err != nil {
						t.Fatal(err)
					}
				}
				for _, j := range round {
					checkDone(t, j, solo)
				}
			}
			jobs := tc.rounds * tc.capacity
			ranks := tc.prow * tc.pcol
			peak := tc.capacity * ranks
			rpc := runner.RPC.Snapshot()
			t.Logf("%d jobs: %d dials, peak %d RPCs in flight per shard", jobs, rpc.Dials, peak)
			if rpc.Dials > int64(len(addrs)*peak) || rpc.Reconnects != 0 {
				t.Errorf("%d jobs dialed %d conns (%d redials); want at most %d shards × %d in flight",
					jobs, rpc.Dials, rpc.Reconnects, len(addrs), peak)
			}
			for k, ms := range servers {
				if st := ms.Stats(); st.Hellos != int64(jobs) || st.Sessions != int64(jobs) {
					t.Errorf("shard %d: %d hellos for %d sessions; want one per job, %d", k, st.Hellos, st.Sessions, jobs)
				}
			}
		})
	}
}

// A shard restarted between two jobs leaves the runner's idle conns to it
// dead. The next job's hello meets one, drops them all and redials once —
// a hello is idempotent — so the job runs without a retry, and the redial
// is counted as a reconnect.
func TestFleetRunnerRedialsRestartedShard(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet e2e in short mode")
	}
	spec := JobSpec{Molecule: "CH4", Basis: "sto-3g", MaxIter: 40, ConvTol: 1e-11}
	solo := soloEnergy(t, spec)
	addrs, servers := startShards(t)
	runner := NewFleetRunner(addrs, t.TempDir())
	runner.Prow, runner.Pcol = 1, 2
	s, err := NewServer(Config{Capacity: 1, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	runOne(t, s, spec, solo)
	if rc := runner.RPC.Snapshot().Reconnects; rc != 0 {
		t.Fatalf("%d reconnects before the restart", rc)
	}

	servers[0].Kill()
	ms, err := netga.NewMultiServer(2, 0, 256, 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ms.Start(addrs[0]); err != nil {
		t.Fatalf("restart shard 0: %v", err)
	}
	servers[0] = ms

	runOne(t, s, spec, solo)
	rpc := runner.RPC.Snapshot()
	if rpc.Reconnects == 0 {
		t.Errorf("the hello on a dead pooled conn was not redialed: %+v", rpc)
	}
	if st := ms.Stats(); st.Hellos != 1 || st.Sessions != 1 {
		t.Errorf("restarted shard: %d hellos for %d sessions; want 1", st.Hellos, st.Sessions)
	}
}

// A job's checkpoint files go once its terminal outcome is durable and
// published: after jobs finish on a standalone server and on an HA peer
// the directory holds only the files of unfinished jobs — a parked one's
// and a dead owner's, which survive until the adopter finishes the job.
func TestFinishedJobsLeaveNoCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet e2e in short mode")
	}
	short := JobSpec{Molecule: "CH4", Basis: "sto-3g", MaxIter: 40, ConvTol: 1e-11}
	long := JobSpec{Molecule: "alkane:2", Basis: "sto-3g", MaxIter: 80, ConvTol: 1e-12}
	soloShort, soloLong := soloEnergy(t, short), soloEnergy(t, long)
	addrs, _ := startShards(t)

	t.Run("standalone", func(t *testing.T) {
		dir := t.TempDir()
		runner := NewFleetRunner(addrs, dir)
		runner.Prow, runner.Pcol = 1, 2
		s, err := NewServer(Config{Capacity: 1, Runner: runner})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			runOne(t, s, short, soloShort)
		}
		waitNoCkptFiles(t, dir, "after three finished jobs")
		// A drained job is parked, not finished: its file stays.
		j, err := s.Submit(long)
		if err != nil {
			t.Fatal(err)
		}
		if !waitIteration(t, j, 0, 30*time.Second) {
			t.Fatal("long job finished or stalled before its first iteration")
		}
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		if st := j.State(); st != StateParked {
			t.Fatalf("drained job is %s, want parked", st)
		}
		if files := ckptFiles(t, dir); len(files) == 0 || files[0] != j.ID+".ckpt" {
			t.Fatalf("after a drain the checkpoint dir holds %v, want %s's file", files, j.ID)
		}
	})

	t.Run("adopted", func(t *testing.T) {
		dir := t.TempDir()
		// The registry's clock stands still until the owner is dead: its
		// lease lapses when the test moves the clock past the TTL, never
		// because a heartbeat of a starved peer came late.
		reg, clk := newTestRegistry()
		regSrv := httptest.NewServer((&RegistryAPI{Reg: reg}).Handler())
		t.Cleanup(regSrv.Close)
		// The owner's runner holds a solved job until the peer is killed,
		// so the job can neither finish nor lose its checkpoint before the
		// kill: the job is a few milliseconds of work, less than a
		// starved poll of the checkpoint file can take to come round.
		peer := func(id string, hold bool) *Peer {
			fleet := NewFleetRunner(addrs, dir)
			fleet.Prow, fleet.Pcol = 1, 2
			cfg := Config{Capacity: 1, Runner: fleet, Metrics: metrics.NewServe()}
			if hold {
				cfg.Estimate = fleet.Estimate
				cfg.Runner = RunnerFunc(func(ctx context.Context, j *Job) (*JobResult, error) {
					if _, err := fleet.Run(ctx, j); err != nil {
						return nil, err
					}
					<-ctx.Done()
					return nil, context.Cause(ctx)
				})
			}
			p, err := NewPeer(PeerConfig{
				ID: id, Addr: "127.0.0.1:1",
				Registry:       NewRegistryClient(regSrv.URL, time.Second),
				CheckpointDir:  dir,
				Server:         cfg,
				HeartbeatEvery: 50 * time.Millisecond, ScanEvery: 50 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(p.Close)
			return p
		}
		owner := peer("peer-owner", true)
		j, err := owner.Submit(long)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, j.ID+".ckpt")
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
			if _, err := scf.LoadCheckpoint(path); err == nil {
				break
			}
			if st := j.State(); st.Terminal() {
				_, jerr := j.Result()
				t.Fatalf("the job ended %s (%v) before its first checkpoint was seen", st, jerr)
			}
			if rec, _ := reg.Get(j.ID); rec.Owner != "peer-owner" {
				t.Fatalf("the owner lost the job's lease before its first checkpoint was seen: %+v", rec)
			}
			if time.Now().After(deadline) {
				t.Fatal("no checkpoint written before the deadline")
			}
		}
		owner.Kill()
		if _, err := scf.LoadCheckpointFallback(path); err != nil {
			t.Fatalf("the dead owner's checkpoint is gone: %v", err)
		}
		clk.Advance(ttl + time.Millisecond) // the dead owner's lease lapses

		adopter := peer("peer-adopter", false)
		for deadline := time.Now().Add(time.Minute); ; time.Sleep(5 * time.Millisecond) {
			rec, _ := reg.Get(j.ID)
			if rec.Terminal() {
				if rec.State != RecDone || math.Abs(rec.Result.Energy-soloLong) > 1e-9 {
					t.Fatalf("adopted job ended %+v", rec)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("adopted job not finished: %+v", rec)
			}
		}
		aj := adopter.Server().Job(j.ID)
		if aj == nil {
			t.Fatal("the adopter does not know the job")
		}
		if _, err := aj.Wait(); err != nil {
			t.Fatal(err)
		}
		waitNoCkptFiles(t, dir, "after the adopter finished the job")
	})
}
