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
	// Coalesced counts the newer snapshots that overwrote a pending one
	// since the previous write: iterations whose checkpoint was skipped
	// because the disk was slower than the solver.
	Coalesced int
}

// ckptBeforeSave, when non-nil, runs on the writer goroutine before every
// Save. Tests make the disk slow (or stuck) with it.
var ckptBeforeSave func(iter int)

// ckptWriter is a run's latest-wins background checkpoint writer: the SCF
// loop hands each iteration's snapshot to a single-slot mailbox and goes
// on; one goroutine saves whatever the slot holds. A snapshot that
// arrives while a write is in flight replaces the one still waiting — a
// resumer only ever wants the newest — so the solver never queues behind
// the disk and the disk is never more than one write behind the solver.
type ckptWriter struct {
	path      string
	onDurable func(CheckpointWrite)
	done      chan struct{} // closed when the goroutine has exited

	mu        sync.Mutex
	wake      *sync.Cond
	pending   *Checkpoint
	coalesced int
	closed    bool
	err       error // first failed write; sticky
}

func startCkptWriter(path string, onDurable func(CheckpointWrite)) *ckptWriter {
	w := &ckptWriter{path: path, onDurable: onDurable, done: make(chan struct{})}
	w.wake = sync.NewCond(&w.mu)
	go w.loop()
	return w
}

// submit leaves ck in the mailbox, replacing a snapshot still waiting
// there, and returns without touching the disk. ck and the slices it
// points to belong to the writer from here on. The error is an earlier
// write's failure.
func (w *ckptWriter) submit(ck *Checkpoint) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.pending != nil {
		w.coalesced++
	}
	w.pending = ck
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
		ck, coalesced := w.pending, w.coalesced
		if ck == nil {
			return // closed and drained
		}
		w.pending, w.coalesced = nil, 0
		w.mu.Unlock()
		if ckptBeforeSave != nil {
			ckptBeforeSave(ck.Iter)
		}
		t0 := time.Now()
		err := ck.Save(w.path)
		if err == nil && w.onDurable != nil {
			w.onDurable(CheckpointWrite{Iter: ck.Iter, Took: time.Since(t0), Coalesced: coalesced})
		}
		w.mu.Lock()
		if err != nil {
			w.err = fmt.Errorf("scf: checkpoint at iteration %d: %w", ck.Iter, err)
			return
		}
	}
}
