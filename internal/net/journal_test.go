package netga

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gtfock/internal/dist"
)

func testRequests(seed int64, n int) []*request {
	rng := rand.New(rand.NewSource(seed))
	reqs := []*request{{Op: opHello, Session: 42, R0: 4, C0: 4, Msg: layoutMsg(dist.UniformGrid2D(1, 1, 4, 4))}}
	token := uint64(0)
	var issued []uint64
	for len(reqs) < n {
		switch rng.Intn(10) {
		case 0: // session checkpoint: advances the dedup eviction generation
			reqs = append(reqs, &request{Op: opCheckpoint, Session: 42})
		case 1: // duplicate delivery of an already-applied Acc
			if len(issued) > 0 {
				tok := issued[rng.Intn(len(issued))]
				reqs = append(reqs, &request{
					Op: opAcc, Array: 1, Session: 42, Token: tok, Alpha: 1,
					R0: 0, R1: 1, C0: 0, C1: 1, Data: []float64{999},
				})
				break
			}
			fallthrough
		case 2, 3: // Put of a random patch
			r0, c0 := int32(rng.Intn(3)), int32(rng.Intn(3))
			reqs = append(reqs, &request{
				Op: opPut, Array: uint8(rng.Intn(2)), Session: 42,
				R0: r0, R1: r0 + 2, C0: c0, C1: c0 + 2,
				Data: []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()},
			})
		default: // fresh tokened Acc
			token++
			issued = append(issued, token)
			r0, c0 := int32(rng.Intn(3)), int32(rng.Intn(3))
			reqs = append(reqs, &request{
				Op: opAcc, Array: uint8(rng.Intn(2)), Session: 42, Token: token,
				Alpha: rng.NormFloat64(),
				R0:    r0, R1: r0 + 2, C0: c0, C1: c0 + 2,
				Data: []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()},
			})
		}
	}
	return reqs
}

// driveServer recovers a durable server from dir and pushes reqs through
// the real request path (journal + dedup + apply), without a listener.
func driveServer(t *testing.T, dir string, reqs []*request) *Server {
	t.Helper()
	grid := dist.UniformGrid2D(1, 1, 4, 4)
	s := NewServer(grid, []int{0}, WithDurability(dir, -1), WithNoSync())
	if err := s.recover(); err != nil {
		t.Fatalf("recover %s: %v", dir, err)
	}
	for i, r := range reqs {
		rc := *r // handle may be retried with fresh ReqIDs in production; copy for safety
		if resp := s.handle(&rc); resp.Status != statusOK {
			t.Fatalf("request %d (%+v) rejected: %s", i, r, resp.Msg)
		}
	}
	return s
}

// stateOf captures the durability-relevant server state for comparison.
type serverState struct {
	Session  uint64
	Seq      uint64
	CkptGen  uint64
	Arrays   [numArrays][]float64
	SeenCur  map[uint64]bool
	SeenPrev map[uint64]bool
}

func stateOf(s *Server) serverState {
	st := serverState{
		Session: s.pin.id, Seq: s.seq, CkptGen: s.pin.ckptGen,
		SeenCur: s.pin.seenCur, SeenPrev: s.pin.seenPrev,
	}
	for a := range s.pin.arrays {
		st.Arrays[a] = s.pin.arrays[a]
	}
	return st
}

// TestJournalPrefixSuffixProperty is the replay property test: for every
// prefix of a mutation sequence, crashing after the prefix (with or
// without a snapshot covering it) and replaying the suffix on the
// recovered server yields byte-identical shard arrays and dedup sets to
// applying the whole sequence on one server. Float comparison is exact:
// journal replay preserves application order, so there is no rounding
// slack to grant.
func TestJournalPrefixSuffixProperty(t *testing.T) {
	reqs := testRequests(7, 40)

	fullDir := t.TempDir()
	full := driveServer(t, fullDir, reqs)
	defer full.jr.Close()
	want := stateOf(full)

	for k := 0; k <= len(reqs); k += 3 {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("k%d", k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		a := driveServer(t, dir, reqs[:k])
		if k%2 == 0 {
			// Even prefixes snapshot before the crash; odd ones crash with
			// journal only. Both must recover identically.
			a.mu.Lock()
			a.snapshotLocked()
			a.mu.Unlock()
		}
		a.jr.Close() // crash: nothing flushed beyond what append synced

		b := driveServer(t, dir, reqs[k:])
		got := stateOf(b)
		b.jr.Close()
		if got.Session != want.Session || got.Seq != want.Seq || got.CkptGen != want.CkptGen {
			t.Fatalf("prefix %d: state (session=%d seq=%d gen=%d), want (%d %d %d)",
				k, got.Session, got.Seq, got.CkptGen, want.Session, want.Seq, want.CkptGen)
		}
		for arr := range got.Arrays {
			if !reflect.DeepEqual(got.Arrays[arr], want.Arrays[arr]) {
				t.Fatalf("prefix %d: array %d differs after recovery+suffix", k, arr)
			}
		}
		if !reflect.DeepEqual(got.SeenCur, want.SeenCur) || !reflect.DeepEqual(got.SeenPrev, want.SeenPrev) {
			t.Fatalf("prefix %d: dedup sets differ: got %d/%d tokens, want %d/%d",
				k, len(got.SeenCur), len(got.SeenPrev), len(want.SeenCur), len(want.SeenPrev))
		}
	}
}

const goldenJournal = "70000000bbfafec1020000000000000003002a000000000000000000000000000000000000000000" +
	"00000000000000000000000000000000000000000000000000000000000000000000010000000000" +
	"000002000000000000000000000000000000000002000000000000000000f83f00000000000000c0" +
	"6800000043a34741030000000000000004012a000000000000000000000000000000070000000000" +
	"00000000000000000000000000000000000000000000000000000000000001000000020000000100" +
	"000002000000000000000000004000000000000001000000000000000000d03f"

// TestJournalGoldenBytes pins the on-disk format: these are the bytes the
// pre-internal/wal journal wrote for a Put (seq 2) and a tokened Acc
// (seq 3) — [4B len][4B crc32][8B seq][encoded request] per record — and
// a shard directory holding them must still recover to the same state.
func TestJournalGoldenBytes(t *testing.T) {
	blob, err := hex.DecodeString(goldenJournal)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalFile), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	s := driveServer(t, dir, nil)
	defer s.jr.Close()
	if s.seq != 3 || s.st.Replayed != 2 {
		t.Fatalf("replayed %d records to seq %d, want 2 records to seq 3", s.st.Replayed, s.seq)
	}
	if got := s.pin.arrays[0][:2]; got[0] != 1.5 || got[1] != -2 {
		t.Fatalf("Put patch = %v, want [1.5 -2]", got)
	}
	if got := s.pin.arrays[1][1*4+1]; got != 0.5 {
		t.Fatalf("Acc cell = %v, want alpha*data = 0.5", got)
	}
	if !s.pin.seenCur[7] {
		t.Fatal("Acc idempotency token 7 not recovered into the dedup set")
	}
}

// TestSnapshotGoldenBytes pins the other half of a durability directory:
// these are the bytes the single-session server (before sessions became
// the unit of shard state) wrote for a 4x4 shard snapshotted at seq 1, and
// a directory holding them next to the golden journal must recover to the
// snapshot's session, fence epoch, dedup generations and hosted set, with
// the journal's seq 2 and 3 replayed on top of its arrays.
func TestSnapshotGoldenBytes(t *testing.T) {
	const golden = "" +
		"ffb87f0301010d736e617073686f74537461746501ff8000010e010756657273696f6e0104000107" +
		"53657373696f6e010600010545706f636801060001045047656e01060001075374616e6462790102" +
		"000104526f77730104000104436f6c730104000103536571010600010641727261797301ff840001" +
		"075365656e43757201ff860001085365656e5072657601ff8600010a436865636b706f696e740106" +
		"000105486f73747301ff8800010646726f7a656e01ff880000001dff830101010c5b325d5b5d666c" +
		"6f6174363401ff840001ff82010400000cff81020102ff82000108000016ff85020101085b5d7569" +
		"6e74363401ff86000106000013ff87020101055b5d696e7401ff88000104000078ff800104012a01" +
		"0303080108010101021000fef03f40fe0840fe1040fe1440fe1840fe1c40fe2040fe2240fe2440fe" +
		"2640fe2840fe2a40fe2c40fe2e4010ff80fed0bffee0bffee8bffef0bffef4bffef8bffefcbfffc0" +
		"fe02c0fe04c0fe06c0fe08c0fe0ac0fe0cc0fe0ec0010105010106010201010000"
	dir := t.TempDir()
	for name, h := range map[string]string{snapshotFile: golden, journalFile: goldenJournal} {
		blob, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := driveServer(t, dir, nil)
	defer s.jr.Close()
	ss := s.pin
	if ss.id != 42 || s.epoch.Load() != 3 || ss.ckptGen != 2 || s.seq != 3 || s.st.Replayed != 2 {
		t.Fatalf("recovered session %d epoch %d dedup gen %d seq %d (%d replayed), want 42, 3, 2, 3 (2)",
			ss.id, s.epoch.Load(), ss.ckptGen, s.seq, s.st.Replayed)
	}
	if !reflect.DeepEqual(ss.seenCur, map[uint64]bool{5: true, 7: true}) || !reflect.DeepEqual(ss.seenPrev, map[uint64]bool{6: true}) {
		t.Fatalf("dedup generations %v / %v, want {5 7} / {6}", ss.seenCur, ss.seenPrev)
	}
	if !reflect.DeepEqual(ss.hosts, map[int]bool{0: true}) || len(ss.frozen) != 0 {
		t.Fatalf("hosted %v frozen %v, want proc 0 hosted and none frozen", ss.hosts, ss.frozen)
	}
	// The snapshot held D[i] = i and F[i] = -i/4; the journal Put [1.5 -2]
	// over D[0:2] and accumulated 0.5 into F[5].
	for i := range ss.arrays[0] {
		wantD, wantF := float64(i), -float64(i)/4
		switch i {
		case 0:
			wantD = 1.5
		case 1:
			wantD = -2
		case 5:
			wantF += 0.5
		}
		if ss.arrays[0][i] != wantD || ss.arrays[1][i] != wantF {
			t.Fatalf("element %d recovered as D=%g F=%g, want %g and %g", i, ss.arrays[0][i], ss.arrays[1][i], wantD, wantF)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if st, err := loadSnapshot(dir); st != nil || err != nil {
		t.Fatalf("missing snapshot: st=%v err=%v, want nil/nil", st, err)
	}
	st := &snapshotState{
		Version: snapshotVersion, Session: 9, Epoch: 3, Standby: true,
		Rows: 2, Cols: 2, Seq: 55,
		SeenCur: []uint64{1, 2}, SeenPrev: []uint64{3}, Checkpoint: 4,
	}
	st.Arrays[0] = []float64{1, 2, 3, 4}
	st.Arrays[1] = []float64{5, 6, 7, 8}
	if err := saveSnapshot(dir, st, true); err != nil {
		t.Fatal(err)
	}
	back, err := loadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, back) {
		t.Fatalf("snapshot round trip: got %+v, want %+v", back, st)
	}
	// A torn snapshot (crash mid-write before the rename would have
	// happened) must not shadow the good one: the temp file is invisible.
	if err := os.WriteFile(filepath.Join(dir, snapshotFile+".tmp"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if back, err = loadSnapshot(dir); err != nil || back == nil {
		t.Fatalf("snapshot with stale temp file: %v", err)
	}
}
