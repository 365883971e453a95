package wal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// collect opens the log at path and returns it with the payloads replay
// delivered.
func collect(t *testing.T, path string) (*Log, []string) {
	t.Helper()
	var got []string
	l, err := Open(path, true, func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if err != nil {
		t.Fatalf("Open %s: %v", path, err)
	}
	return l, got
}

// checkRecovery is the model comparison every crash case goes through:
// a log whose file holds image must replay exactly want, be cut to
// wantSize, accept a post-recovery append, and — crashed again without
// Close — replay want plus that append on the next open. The second half
// is what catches an append landing behind an uncut tear.
func checkRecovery(t *testing.T, image []byte, want []string, wantSize int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log.wal")
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	l, got := collect(t, path)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay = %q, want %q", got, want)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != int64(wantSize) {
		t.Fatalf("file is %d bytes after recovery (err %v), want the intact prefix of %d", st.Size(), err, wantSize)
	}
	if err := l.Append([]byte("post-recovery")); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	// Crash: no Close.
	l2, got := collect(t, path)
	defer l2.Close()
	if want := append(append([]string(nil), want...), "post-recovery"); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after recovery + append = %q, want %q", got, want)
	}
}

// TestWALCrashPoints enumerates crash points of a fixed append/reset
// sequence against a model. After every step the acknowledged state is
// the model's record list; a crash during the next append can leave any
// byte prefix of that append's frame behind the acknowledged image. For
// every such cut: every acknowledged record replays, nothing after the
// tear does, the tear is cut, and post-recovery appends survive.
func TestWALCrashPoints(t *testing.T) {
	steps := []string{"a", "bravo", strings.Repeat("c", 300), "RESET", "d", "echo-echo", "RESET", "f"}

	path := filepath.Join(t.TempDir(), "log.wal")
	l, _ := collect(t, path)
	defer l.Close()
	var model []string
	image := []byte{} // acknowledged file image before the step
	for i, step := range steps {
		if step == "RESET" {
			if err := l.Reset(); err != nil {
				t.Fatal(err)
			}
			model, image = nil, []byte{}
			// Truncate is one syscall: a crash sees the log before or
			// after it, both covered by the cuts around it.
			checkRecovery(t, image, model, 0)
			continue
		}
		if err := l.Append([]byte(step)); err != nil {
			t.Fatal(err)
		}
		full, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(full, image) || len(full) != len(image)+headerLen+len(step) {
			t.Fatalf("step %d: append did not extend the acknowledged image by one frame", i)
		}
		for cut := len(image); cut < len(full); cut++ {
			checkRecovery(t, full[:cut], model, len(image))
		}
		model = append(model, step)
		image = full
		checkRecovery(t, image, model, len(image))
	}
}

// TestWALDamagedTails are the torn and corrupt tails that are not a plain
// byte cut: each must end replay at the last intact record and be cut.
func TestWALDamagedTails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.wal")
	l, _ := collect(t, path)
	for _, p := range []string{"one", "two", "three"} {
		if err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastFrame := len(intact) - headerLen - len("three")
	flip := func(at int) []byte {
		b := append([]byte(nil), intact...)
		b[at] ^= 0xff
		return b
	}
	cases := []struct {
		name  string
		image []byte
		want  []string
		size  int
	}{
		{"payload bit flip caught by crc", flip(len(intact) - 1), []string{"one", "two"}, lastFrame},
		{"crc field bit flip", flip(lastFrame + 4), []string{"one", "two"}, lastFrame},
		{"mid-log corruption hides everything after it", flip(headerLen), nil, 0},
		{"zero length header", append(append([]byte(nil), intact...), 0, 0, 0, 0, 1, 2, 3, 4), []string{"one", "two", "three"}, len(intact)},
		{"length beyond MaxRecord", append(append([]byte(nil), intact...), 0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 'x'), []string{"one", "two", "three"}, len(intact)},
		{"header promises 32 bytes, 3 arrived", append(append([]byte(nil), intact...), 0x20, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 'c', 'u', 't'), []string{"one", "two", "three"}, len(intact)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkRecovery(t, tc.image, tc.want, tc.size) })
	}
}

// An append that fails and cannot be rolled back must poison the log:
// writing further records past the damage would hide them from replay
// while the owner acknowledges them as durable.
func TestWALAppendFailureMarksDamage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.wal")
	l, _ := collect(t, path)
	for _, p := range []string{"one", "two"} {
		if err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	l.f.Close() // the disk goes away mid-run
	if err := l.Append([]byte("three")); err == nil {
		t.Fatal("append on a dead file reported success")
	}
	if !l.failed {
		t.Fatal("log not marked damaged after an append error that could not be rolled back")
	}
	if err := l.Append([]byte("four")); err == nil || !strings.Contains(err.Error(), "damaged") {
		t.Fatalf("append past known damage: err = %v, want a damaged-log refusal", err)
	}
	// Everything acknowledged before the failure still replays.
	l2, got := collect(t, path)
	defer l2.Close()
	if want := []string{"one", "two"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after damage = %q, want %q", got, want)
	}
}

func TestWALAppendRejectsWhatReplayWouldDrop(t *testing.T) {
	l, _ := collect(t, filepath.Join(t.TempDir(), "log.wal"))
	defer l.Close()
	if err := l.Append(nil); err == nil {
		t.Fatal("empty record accepted; replay reads a zero length as a torn tail")
	}
}

// A replay error is the owner saying "intact, but not mine to decode":
// Open must fail and leave the file as it found it, not cut it.
func TestWALOpenReplayErrorLeavesLogUntouched(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.wal")
	l, _ := collect(t, path)
	l.Append([]byte("one"))
	l.Append([]byte("two"))
	l.Close()
	before, _ := os.ReadFile(path)
	_, err := Open(path, true, func(p []byte) error {
		if string(p) == "two" {
			return fmt.Errorf("cannot decode")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "cannot decode") {
		t.Fatalf("Open = %v, want the replay error", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(before, after) {
		t.Fatal("failed Open modified the log")
	}
}

// TestWALWriteFileCrashPoints enumerates the step boundaries of the atomic
// replace: temp file partially written (every byte cut), fully written,
// and renamed. A reader must see the old content or the new, whole, at
// every point; a leftover temp file never shadows the real one and does
// not stop the next replace.
func TestWALWriteFileCrashPoints(t *testing.T) {
	oldData, newData := []byte("old generation"), []byte("the new generation, longer")
	write := func(data []byte) func(io.Writer) error {
		return func(w io.Writer) error { _, err := w.Write(data); return err }
	}
	check := func(t *testing.T, path string, want []byte) {
		t.Helper()
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("reader sees %q (err %v), want %q", got, err, want)
		}
		// Recovery is just the next replace: it must succeed over whatever
		// the crash left, and leave no temp file.
		if err := WriteFile(path, true, write([]byte("after recovery"))); err != nil {
			t.Fatalf("replace after crash: %v", err)
		}
		if got, _ := os.ReadFile(path); string(got) != "after recovery" {
			t.Fatalf("post-recovery content %q", got)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatal("replace left its temp file behind")
		}
	}
	setup := func(t *testing.T) string {
		path := filepath.Join(t.TempDir(), "state")
		if err := WriteFile(path, false, write(oldData)); err != nil {
			t.Fatal(err)
		}
		return path
	}

	for cut := 0; cut <= len(newData); cut++ {
		// Crashed with the temp file cut at `cut` bytes, or (cut == len)
		// complete and synced but not yet renamed.
		path := setup(t)
		if err := os.WriteFile(path+".tmp", newData[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, path, oldData)
	}
	// Crashed after the rename (before or after the directory sync).
	path := setup(t)
	if err := WriteFile(path, false, write(newData)); err != nil {
		t.Fatal(err)
	}
	check(t, path, newData)

	// A failed write leaves the old file in place and no temp residue.
	path = setup(t)
	if err := WriteFile(path, true, func(io.Writer) error { return fmt.Errorf("encode failed") }); err == nil {
		t.Fatal("failed write reported success")
	}
	check(t, path, oldData)
}
