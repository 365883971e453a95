package netga_test

import (
	"testing"
	"time"

	"gtfock/internal/core"
	"gtfock/internal/dist"
	"gtfock/internal/linalg"
	netga "gtfock/internal/net"
)

// The elastic case of the Session (a fleet address, blocks migrated
// charged once at Close) and its failover re-pointing ride on
// TestChaosSweepBuildMatchesSerial, the blob store on
// TestSpillE2EReplayMatchesSerial.

// TestSessionReusedAcrossBuilds: three builds through one Session on two
// loopback shards each match the serial oracle with no accumulate
// answered from the dedup table. A pair re-dialed per build restarts its
// token counter on the live session, and the shards would drop the later
// builds' accumulates as duplicates of the first's.
func TestSessionReusedAcrossBuilds(t *testing.T) {
	bs, scr, d := netSetup(t)
	ref := core.BuildSerial(bs, scr, d)
	var servers []*netga.Server
	addrs, err := startShards(t, core.Grid(bs, 2, 2), 2, &servers)
	if err != nil {
		t.Fatal(err)
	}
	sess := netga.NewSession(netga.Config{Session: 11}, nil, "", addrs)
	defer sess.Close(true)
	if err := sess.Checkpoint(); err != nil {
		t.Fatalf("checkpoint before the first build: %v", err)
	}
	if err := sess.PutBlob(1, []float64{1}); err == nil {
		t.Fatal("an undialed session stored a blob")
	}
	for build := 1; build <= 3; build++ {
		res := buildDeadline(t, 2*time.Minute, func() core.Result {
			return core.Build(bs, scr, d, core.Options{
				Prow: 2, Pcol: 2, Backend: sess.Backend,
				LeaseTTL: 500 * time.Millisecond,
			})
		})
		if res.Err != nil {
			t.Fatalf("build %d: %v", build, res.Err)
		}
		if diff := linalg.MaxAbsDiff(ref, res.G); diff > 1e-9 {
			t.Fatalf("build %d: |G - serial| = %g", build, diff)
		}
		// The iteration boundary: tokens older than a generation go.
		if err := sess.Checkpoint(); err != nil {
			t.Fatalf("checkpoint after build %d: %v", build, err)
		}
	}
	for k, s := range servers {
		if st := s.Stats(); st.AccDups != 0 || st.Sessions != 1 {
			t.Fatalf("shard %d: %d dup accumulates over %d sessions, want 0 over 1", k, st.AccDups, st.Sessions)
		}
	}
}

func TestSessionRefusesOtherGrid(t *testing.T) {
	grid := dist.UniformGrid2D(2, 2, 8, 8)
	var servers []*netga.Server
	addrs, err := startShards(t, grid, 2, &servers)
	if err != nil {
		t.Fatal(err)
	}
	sess := netga.NewSession(netga.Config{Session: 12}, nil, "", addrs)
	stats := dist.NewRunStats(grid.NumProcs())
	gaD, gaF, cleanup, err := sess.Backend(grid, stats)
	if err != nil || cleanup != nil {
		t.Fatalf("first Backend: cleanup set = %v, err = %v", cleanup != nil, err)
	}
	// An equal grid (core.Build derives a fresh one per build) is the same
	// pair; a different one is refused.
	d2, f2, _, err := sess.Backend(dist.UniformGrid2D(2, 2, 8, 8), stats)
	if err != nil || d2 != gaD || f2 != gaF {
		t.Fatalf("equal grid: same pair = %v, err = %v", d2 == gaD && f2 == gaF, err)
	}
	if _, _, _, err := sess.Backend(dist.UniformGrid2D(1, 4, 8, 8), stats); err == nil {
		t.Fatal("a 1x4 grid was accepted by a session dialed over 2x2")
	}
	sess.Close(true)
	if _, _, _, err := sess.Backend(grid, stats); err == nil {
		t.Fatal("a closed session re-dialed: its Acc tokens would restart")
	}
}

func TestSessionCloseSaysByeOnlyWhenGraceful(t *testing.T) {
	ms, err := netga.NewMultiServer(1, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := ms.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ms.Close)
	grid := dist.UniformGrid2D(1, 2, 6, 6)
	for i, graceful := range []bool{false, true} {
		sess := netga.NewSession(netga.Config{Session: uint64(20 + i)}, nil, "", []string{addr})
		if _, _, _, err := sess.Backend(grid, dist.NewRunStats(grid.NumProcs())); err != nil {
			t.Fatal(err)
		}
		open := ms.Stats().SessionsOpen
		sess.Close(graceful)
		if dropped := open - ms.Stats().SessionsOpen; (dropped == 1) != graceful {
			t.Fatalf("Close(%v): %d sessions released on the shard", graceful, dropped)
		}
	}
}
