package netga

import (
	"math"
	"testing"

	"gtfock/internal/dist"
)

// Blob legs round-trip bit-exactly through the wire codec and land on
// the server picked by key modulo procs; unknown keys are misses.
func TestBlobRoundTripAndMiss(t *testing.T) { forEachTable(t, testBlobRoundTripAndMiss) }

func testBlobRoundTripAndMiss(t *testing.T, table tableKind) {
	grid := dist.UniformGrid2D(2, 2, 8, 8)
	addrs, assign, servers := table.start(t, grid, 2)
	c, err := Dial(grid, dist.NewRunStats(4), addrs, assign, Config{Array: 0, Session: 1})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	blobs := map[uint64][]float64{
		1:          {1.5, -2.25, math.Pi},
		2:          {0},
		3:          {math.Copysign(0, -1), math.Nextafter(1, 2), 1e-300},
		1 << 60:    {7, 8, 9, 10},
		0xfeedface: {-1},
	}
	for k, v := range blobs {
		if err := c.PutBlob(k, v); err != nil {
			t.Fatalf("PutBlob(%d): %v", k, err)
		}
	}
	var scratch []float64
	for k, v := range blobs {
		got, err := c.GetBlob(k, scratch)
		if err != nil {
			t.Fatalf("GetBlob(%d): %v", k, err)
		}
		scratch = got
		if len(got) != len(v) {
			t.Fatalf("GetBlob(%d): %d values, want %d", k, len(got), len(v))
		}
		for i := range v {
			if math.Float64bits(got[i]) != math.Float64bits(v[i]) {
				t.Fatalf("GetBlob(%d)[%d] = %x, want %x", k, i,
					math.Float64bits(got[i]), math.Float64bits(v[i]))
			}
		}
	}
	if _, err := c.GetBlob(424242, nil); err == nil {
		t.Fatal("unknown key did not miss")
	}

	// A re-put of an existing key is first-write-wins.
	if err := c.PutBlob(1, []float64{999}); err != nil {
		t.Fatalf("re-put: %v", err)
	}
	got, err := c.GetBlob(1, nil)
	if err != nil || got[0] != 1.5 {
		t.Fatalf("re-put overwrote blob: %v %v", got, err)
	}

	var stored, hits, misses int64
	for _, s := range servers {
		st := s.Stats()
		stored += st.BlobsStored
		hits += st.BlobHits
		misses += st.BlobMisses
	}
	if stored != int64(len(blobs)) || hits == 0 || misses == 0 {
		t.Fatalf("server blob stats: stored=%d hits=%d misses=%d", stored, hits, misses)
	}
	// Keys route across procs, so with 4 procs on 2 servers both must
	// hold something.
	for k, s := range servers {
		if s.Stats().BlobsStored == 0 {
			t.Fatalf("server %d holds no blobs: routing is not spreading keys", k)
		}
	}
}

// Blobs are session-scoped cache state: installing a fresh session
// clears them, so a new run never replays a previous run's integrals.
func TestBlobsClearedOnNewSession(t *testing.T) {
	grid := dist.UniformGrid2D(1, 2, 4, 4)
	addrs, assign, _ := startCluster(t, grid, 1)
	c1, err := Dial(grid, dist.NewRunStats(2), addrs, assign, Config{Array: 0, Session: 1})
	if err != nil {
		t.Fatalf("dial session 1: %v", err)
	}
	if err := c1.PutBlob(5, []float64{1, 2, 3}); err != nil {
		t.Fatalf("put: %v", err)
	}
	if _, err := c1.GetBlob(5, nil); err != nil {
		t.Fatalf("get in same session: %v", err)
	}
	c1.Close()

	c2, err := Dial(grid, dist.NewRunStats(2), addrs, assign, Config{Array: 0, Session: 2})
	if err != nil {
		t.Fatalf("dial session 2: %v", err)
	}
	defer c2.Close()
	if _, err := c2.GetBlob(5, nil); err == nil {
		t.Fatal("blob survived a session reset")
	}
}
