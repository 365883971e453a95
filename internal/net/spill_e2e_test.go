package netga_test

import (
	"testing"
	"time"

	"gtfock/internal/core"
	"gtfock/internal/integrals"
	"gtfock/internal/linalg"
	netga "gtfock/internal/net"
)

// The spill leg of the stored-ERI cache over the real transport: with a
// resident budget far below the working set, the recording build parks
// value batches on the shard servers as blobs, and the replay build
// fetches them back — matching the serial oracle to the same tolerance
// as every other net-backed build. It runs under -race in `make race`,
// and 20 times over in `make e2e-flake`.
func TestSpillE2EReplayMatchesSerial(t *testing.T) {
	bs, scr, d := netSetup(t)
	ref := core.BuildSerial(bs, scr, d)
	const session = 31
	grid := core.Grid(bs, 2, 2)
	var servers []*netga.Server
	addrs, err := startShards(t, grid, 2, &servers)
	if err != nil {
		t.Fatal(err)
	}
	// One session across both builds; it is also the spill store, so the
	// blobs live beside the arrays for as long as it does.
	sess := netga.NewSession(netga.Config{Session: session}, nil, "", addrs)
	defer sess.Close(true)

	// 4 KiB budget: a handful of tasks stay resident, the rest spill.
	store := integrals.NewERIStore(bs.NumShells(), 4096, sess, session, nil)
	opt := core.Options{
		Prow: 2, Pcol: 2,
		Backend:  sess.Backend,
		ERIStore: store,
		LeaseTTL: 500 * time.Millisecond,
	}
	for build := 1; build <= 2; build++ {
		res := buildDeadline(t, 2*time.Minute, func() core.Result {
			return core.Build(bs, scr, d, opt)
		})
		if res.Err != nil {
			t.Fatalf("build %d: %v", build, res.Err)
		}
		if diff := linalg.MaxAbsDiff(ref, res.G); diff > 1e-9 {
			t.Fatalf("build %d: |G - serial| = %g", build, diff)
		}
	}
	st := store.Stats()
	if st.Spills == 0 || st.SpillFetches == 0 {
		t.Fatalf("spill path not exercised: %+v", st)
	}
	if st.SpillMisses != 0 || st.Dropped != 0 {
		t.Fatalf("spill legs lost: %+v", st)
	}
	if st.TaskHits == 0 || st.TaskMisses == 0 {
		t.Fatalf("record/replay pattern missing: %+v", st)
	}
	var stored int64
	for _, s := range servers {
		stored += s.Stats().BlobsStored
	}
	if stored != st.Spills {
		t.Fatalf("servers hold %d blobs, store spilled %d", stored, st.Spills)
	}
}
