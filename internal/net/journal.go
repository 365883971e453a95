package netga

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"gtfock/internal/wal"
)

// Shard durability: a write-ahead journal of applied state mutations plus
// periodic atomic snapshots, both on internal/wal (framing, fsync before
// ack, torn-tail cut, atomic replace — DESIGN.md "Durability
// primitives"). Every mutation (Put, Acc with its idempotency token,
// session install, dedup checkpoint, promotion) is appended — and
// fsynced — to the journal *before* it becomes visible to dedup lookups or
// is acknowledged, so the journal is the ground truth of what a crashed
// server had applied. A restarted server loads the latest snapshot and
// replays the journal suffix (records with seq > snapshot.Seq), landing in
// a state equivalent to the moment of the crash: same shard arrays, same
// session, same dedup sets — so exactly-once accumulation survives the
// restart.
//
// A journal record's payload is encodeRecord's output: an 8-byte sequence
// number, then the encoded request.

// journalFile and snapshotFile are the fixed names inside a shard's
// durability directory.
const (
	journalFile  = "journal.wal"
	snapshotFile = "snapshot.gob"
)

// snapshotState is the gob-encoded point-in-time state of one shard
// server: arrays, session, fence epoch, role, and both dedup generations.
// Seq is the journal position the snapshot covers — replay skips records
// with seq <= Seq, which is also what makes snapshot-then-truncate
// crash-safe in either order.
type snapshotState struct {
	Version    int
	Session    uint64
	Epoch      uint64 // shard fence epoch
	PGen       uint64 // placement generation (0 = static placement)
	Standby    bool
	Rows, Cols int
	Seq        uint64
	Arrays     [numArrays][]float64
	SeenCur    []uint64
	SeenPrev   []uint64
	Checkpoint uint64 // dedup generation counter
	Hosts      []int  // procs hosted at save time (elastic placement moves them)
	Frozen     []int  // procs frozen mid-migration at save time
}

const snapshotVersion = 2

// saveSnapshot replaces the shard snapshot atomically and durably.
func saveSnapshot(dir string, st *snapshotState, nosync bool) error {
	return wal.WriteFile(filepath.Join(dir, snapshotFile), nosync, func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(st)
	})
}

// loadSnapshot reads the shard snapshot, if any. (nil, nil) means no
// snapshot exists — recovery then replays the journal from scratch.
func loadSnapshot(dir string) (*snapshotState, error) {
	f, err := os.Open(filepath.Join(dir, snapshotFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var st snapshotState
	if err := gob.NewDecoder(f).Decode(&st); err != nil {
		return nil, fmt.Errorf("netga: corrupt snapshot in %s: %w", dir, err)
	}
	if st.Version != snapshotVersion {
		return nil, fmt.Errorf("netga: snapshot version %d, want %d", st.Version, snapshotVersion)
	}
	return &st, nil
}
