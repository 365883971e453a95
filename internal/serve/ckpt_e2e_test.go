package serve

import (
	"math"
	"testing"
	"time"

	"gtfock/internal/chem"
	"gtfock/internal/metrics"
	"gtfock/internal/scf"
)

// iterationEvents returns j's `iteration` events in stream order.
func iterationEvents(j *Job) []Event {
	evs, _ := j.EventsSince(0)
	var its []Event
	for _, ev := range evs {
		if ev.Type == "iteration" {
			its = append(its, ev)
		}
	}
	return its
}

// TestPreemptionResumesFromSlowCheckpoint parks one job three times
// while its checkpoint file trails the solver by the iterations the
// writer's rent-or-buy cadence held back. Each park must flush the last
// completed iteration before the attempt returns: the next attempt starts
// at exactly the following iteration — none lost, none run twice — the
// `running` event's resume cursor names that same iteration, and the
// energy is the solo one.
func TestPreemptionResumesFromSlowCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet e2e in short mode")
	}
	const convTol = 1e-12
	mol, err := chem.ParseSpec("alkane:2")
	if err != nil {
		t.Fatal(err)
	}
	solo, err := scf.RunHF(mol, scf.Options{BasisName: "sto-3g", MaxIter: 80, ConvTol: convTol})
	if err != nil || !solo.Converged {
		t.Fatalf("solo reference: %v", err)
	}

	addrs, _ := startShards(t)
	sm := metrics.NewServe()
	runner := NewFleetRunner(addrs, t.TempDir())
	runner.Prow, runner.Pcol = 1, 2
	runner.Serve = sm
	s, err := NewServer(Config{Capacity: 1, Preempt: true, Runner: runner, Metrics: sm})
	if err != nil {
		t.Fatal(err)
	}
	lo, err := s.Submit(JobSpec{Molecule: "alkane:2", Basis: "sto-3g", MaxIter: 80, ConvTol: convTol})
	if err != nil {
		t.Fatal(err)
	}
	const parks = 3
	deadline := time.Now().Add(2 * time.Minute)
	iterations := 0 // of every job that fed sm
	for k := 0; k < parks; k++ {
		evs, _ := lo.EventsSince(0)
		if !waitIteration(t, lo, len(evs), 60*time.Second) {
			t.Fatalf("job finished or stalled before park %d", k+1)
		}
		hi, err := s.Submit(JobSpec{Molecule: "H2", Basis: "sto-3g", Priority: 5})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := waitDone(t, hi, deadline); err != nil {
			t.Fatalf("preempting job %d: %v", k+1, err)
		}
		iterations += len(iterationEvents(hi))
	}
	res, err := waitDone(t, lo, deadline)
	if err != nil || !res.Converged {
		t.Fatalf("parked job: %+v, %v", res, err)
	}
	if d := math.Abs(res.Energy - solo.Energy); d > 1e-9 {
		t.Errorf("energy off the solo reference by %g", d)
	}

	evs, _ := lo.EventsSince(0)
	next, attempts := 1, 0
	for _, ev := range evs {
		switch ev.Type {
		case "running":
			attempts++
			if want := next; attempts > 1 && ev.Iter != want {
				t.Errorf("attempt %d: running event's resume cursor is %d, the attempt starts at iteration %d", attempts, ev.Iter, want)
			}
		case "iteration":
			if ev.Iter != next {
				t.Fatalf("iteration event %d where %d was due: a park lost or repeated work", ev.Iter, next)
			}
			next++
		}
	}
	if attempts != parks+1 {
		t.Fatalf("%d attempts, want %d", attempts, parks+1)
	}
	// Every hand-off was written or overwritten by a newer one: a park
	// leaves none behind in the mailbox. Every write is timed, and each
	// converged job left its last iteration unwritten.
	iterations += len(iterationEvents(lo))
	snap := sm.Snapshot()
	if snap.Parked != parks || int(snap.CkptWritten+snap.CkptCoalesced) != iterations ||
		snap.CkptCoalesced == 0 || snap.CkptWriteNS.Count != snap.CkptWritten {
		t.Fatalf("parked %d; ckpt_written %d + ckpt_coalesced %d, %d iterations; ckpt_write_ns.count %d",
			snap.Parked, snap.CkptWritten, snap.CkptCoalesced, iterations, snap.CkptWriteNS.Count)
	}
}
