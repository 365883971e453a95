package scf

import (
	"fmt"
	"sync"
	"time"
)

// CheckpointWrite describes one checkpoint the background writer has made
// durable (Options.OnDurable).
type CheckpointWrite struct {
	Iter int           // global iteration now on disk at CheckpointPath
	Took time.Duration // wall time of the Save: rotation, write, both fsyncs
}

// ckptBeforeSave, when non-nil, runs on the writer goroutine at the start
// of every Save, inside its measured time. Tests make the disk slow (or
// stuck) with it.
var ckptBeforeSave func(iter int)

// ckptWriter is a run's background checkpoint writer: the SCF loop hands
// a snapshot to a single-slot mailbox and goes on; one goroutine saves
// whatever the slot holds. The loop hands over only what due allows, so
// at most one write is ever in flight and the mailbox holds at most the
// exit's last snapshot behind it.
type ckptWriter struct {
	path      string
	onDurable func(CheckpointWrite)
	done      chan struct{} // closed when the goroutine has exited

	mu      sync.Mutex
	wake    *sync.Cond
	pending *Checkpoint
	busy    bool          // a handed snapshot is waiting or being written
	last    time.Duration // the last Save's wall time
	idleAt  time.Time     // when the last write (Save and OnDurable) ended; zero before it
	closed  bool
	err     error // first failed write; sticky
}

func startCkptWriter(path string, onDurable func(CheckpointWrite)) *ckptWriter {
	w := &ckptWriter{path: path, onDurable: onDurable, done: make(chan struct{})}
	w.wake = sync.NewCond(&w.mu)
	go w.loop()
	return w
}

// due is the checkpoint cadence, a rent-or-buy rule: it reports whether
// the loop should hand over the snapshot it has just taken. The first is
// always due, since no write has been measured yet. After that a snapshot
// is due only when no write is waiting or in flight and the solve has
// run, since the last write ended, at least as long as that write's Save
// took. So the writer never takes more wall time than the solve time it
// protects, and a crash re-executes at most about two Saves' worth of
// iterations.
func (w *ckptWriter) due() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return !w.busy && (w.idleAt.IsZero() || time.Since(w.idleAt) >= w.last)
}

// submit leaves ck in the mailbox and returns without touching the disk.
// ck and the slices it points to belong to the writer from here on. The
// error is an earlier write's failure.
func (w *ckptWriter) submit(ck *Checkpoint) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	w.pending, w.busy = ck, true
	w.wake.Signal()
	return nil
}

// flush writes what the mailbox still holds, stops the writer and waits
// for it: once flush has returned nothing writes to path any more. The
// error is the first failed write of the run.
func (w *ckptWriter) flush() error {
	w.mu.Lock()
	w.closed = true
	w.wake.Signal()
	w.mu.Unlock()
	<-w.done
	return w.err
}

func (w *ckptWriter) loop() {
	defer close(w.done)
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		for w.pending == nil && !w.closed {
			w.wake.Wait()
		}
		ck := w.pending
		if ck == nil {
			return // closed and drained
		}
		w.pending = nil
		w.mu.Unlock()
		t0 := time.Now()
		if ckptBeforeSave != nil {
			ckptBeforeSave(ck.Iter)
		}
		err := ck.Save(w.path)
		took := time.Since(t0)
		if err == nil && w.onDurable != nil {
			w.onDurable(CheckpointWrite{Iter: ck.Iter, Took: took})
		}
		w.mu.Lock()
		w.last, w.idleAt, w.busy = took, time.Now(), w.pending != nil
		if err != nil {
			w.err = fmt.Errorf("scf: checkpoint at iteration %d: %w", ck.Iter, err)
			return
		}
	}
}
