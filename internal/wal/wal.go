// Package wal is the repository's one durability module: a crc-framed
// append-only log whose Append returns only once the record is on stable
// storage, and an atomic durable file replace. The shard journal
// (internal/net), the job registry (internal/serve) and the SCF
// checkpoint (internal/scf) all sit on it; none of them frames, fsyncs
// or renames on its own (DESIGN.md "Durability primitives").
//
// Payloads are opaque bytes — encoding stays with the owner.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// MaxRecord bounds one record's payload, so a corrupt length prefix
// cannot make recovery allocate gigabytes; Append refuses what replay
// would not read back.
const MaxRecord = 64 << 20

// headerLen is the frame header: [4B payload length][4B crc32(payload)],
// both little-endian, followed by the payload.
const headerLen = 8

// Log is an append-only record log. It carries no locking: the owner
// serializes Append and Reset (both owners do so under their state
// mutex, which is also what gives the log one total order).
type Log struct {
	f      *os.File
	nosync bool
	off    int64  // file length past the last fully appended record
	failed bool   // a failed append could not be rolled back; log is damaged
	buf    []byte // reusable frame buffer
}

// Open opens (creating if absent) the log at path: it streams every
// intact record to replay in order, cuts a torn tail back to the intact
// prefix, and leaves the log ready for appending. A torn tail — short
// header, impossible length, short payload or crc mismatch, i.e. a crash
// mid-append — ends replay without error: everything before it was
// synced, the torn record was never acknowledged. The cut must happen
// before the first append: a record written behind a tear is
// acknowledged yet invisible to every later replay.
//
// The payload passed to replay is only valid during the call. An error
// from replay (an intact record its owner cannot decode is not a torn
// write) aborts Open with the log untouched. nosync skips fsync (tests
// only).
func Open(path string, nosync bool, replay func(payload []byte) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{f: f, nosync: nosync}
	if err := l.recover(replay); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: recover %s: %w", path, err)
	}
	return l, nil
}

func (l *Log) recover(replay func([]byte) error) error {
	st, err := l.f.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	br := bufio.NewReader(l.f)
	var hdr [headerLen]byte
	var payload []byte
	// Every read below stays inside size, so a read error is a failing
	// disk to report, never a torn tail to cut off.
	for size-l.off >= headerLen {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return err
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:]))
		if n == 0 || n > MaxRecord || n > size-l.off-headerLen {
			break // corrupt length, or the payload never fully arrived
		}
		if int64(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return err
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:]) {
			break // torn write or bit rot
		}
		if err := replay(payload); err != nil {
			return fmt.Errorf("record at offset %d: %w", l.off, err)
		}
		l.off += headerLen + n
	}
	if size > l.off {
		// Not synced here: the first Append's fsync carries the new
		// length, and until then a re-crash just finds the same tear.
		return l.f.Truncate(l.off)
	}
	return nil
}

// Append writes one record and syncs it; the record is durable when
// Append returns nil, and only then may the owner act on it or
// acknowledge it. A failed append must not leave partial bytes mid-log
// (the next record would land behind them and be lost to replay), so on
// a write or sync error the file is cut back to the pre-append length;
// if even that fails the log is marked damaged and every later Append is
// refused rather than written past the damage.
func (l *Log) Append(payload []byte) error {
	if l.failed {
		return fmt.Errorf("wal: %s damaged by an earlier failed append", l.f.Name())
	}
	if len(payload) == 0 || len(payload) > MaxRecord {
		return fmt.Errorf("wal: record of %d bytes outside (0, %d]", len(payload), MaxRecord)
	}
	l.buf = binary.LittleEndian.AppendUint32(l.buf[:0], uint32(len(payload)))
	l.buf = binary.LittleEndian.AppendUint32(l.buf, crc32.ChecksumIEEE(payload))
	l.buf = append(l.buf, payload...)
	_, err := l.f.Write(l.buf)
	if err == nil && !l.nosync {
		err = l.f.Sync()
	}
	if err != nil {
		if terr := l.f.Truncate(l.off); terr != nil {
			l.failed = true
		}
		return err
	}
	l.off += int64(len(l.buf))
	return nil
}

// Reset empties the log: the owner has made everything it held durable
// elsewhere (a snapshot) or obsolete. An empty log has no damage to
// append past, so a successful truncate also clears the damaged mark.
func (l *Log) Reset() error {
	if err := l.f.Truncate(0); err != nil {
		l.failed = true
		return err
	}
	l.off, l.failed = 0, false
	if l.nosync {
		return nil
	}
	return l.f.Sync()
}

// Close releases the file. It does not sync: every acknowledged record
// already is.
func (l *Log) Close() error { return l.f.Close() }

// WriteFile replaces path atomically and durably: write's output goes to
// a temporary file beside it, which is fsynced, renamed over path, and
// made durable by fsyncing the directory. A crash at any point leaves
// either the old file or the new one, never a torn mix; a leftover
// temporary is invisible to readers and overwritten by the next call.
// nosync skips both fsyncs (tests only).
func WriteFile(path string, nosync bool, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil && !nosync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if nosync {
		return nil
	}
	// Without the directory sync the rename is ordered but not durable: a
	// power cut could bring the old file back after the caller discarded
	// what the new one replaced (a truncated log).
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = d.Sync()
	return errors.Join(err, d.Close())
}
