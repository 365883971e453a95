package core

import (
	"sync"
	"sync/atomic"
	"time"

	"gtfock/internal/dist"
)

// ledger is the fault-tolerance bookkeeping of every real-mode build: a
// per-rank lease (heartbeat + epoch) and the set of task blocks each
// worker incarnation has claimed but not yet committed. Its invariants
// carry the exactly-once argument (DESIGN.md, "Fault model and
// recovery"):
//
//  1. The claimed regions across all ranks plus the orphan pool are
//     pairwise disjoint, and descend from the initial static partition
//     by guillotine (row- or column-band) splits only.
//  2. A worker commits (flushes floc into the global F) only between
//     beginCommit and endCommit; beginCommit validates the incarnation
//     epoch and the monitor never fences a committing worker, so a
//     commit is atomic with respect to recovery.
//  3. When a worker's queue is dry it has executed every task of every
//     region it claims, so endCommit clearing its claims marks exactly
//     the committed work done.
//  4. Fencing a rank bumps its epoch (discarding any later flush via
//     dist.Fence), closes its queue, and moves its claims to the orphan
//     pool for adoption — each lost task is re-executed exactly once.
type ledger struct {
	ttl   time.Duration
	stats *dist.RunStats

	epoch []atomic.Int64 // current live incarnation per rank; bumped on fence/register
	hb    []atomic.Int64 // last heartbeat, unix nanos

	mu         sync.Mutex
	committing []bool
	claimed    [][]TaskBlock
	orphans    []TaskBlock
	queues     []*Queue // current round's queues, for confiscation
	fenced     []fencedEpoch
}

// fencedEpoch identifies one worker incarnation declared dead; Build
// uses the list to mark the incarnation's trace spans discarded.
type fencedEpoch struct {
	rank  int
	epoch int64
}

func newLedger(n int, ttl time.Duration, stats *dist.RunStats) *ledger {
	return &ledger{
		ttl:        ttl,
		stats:      stats,
		epoch:      make([]atomic.Int64, n),
		hb:         make([]atomic.Int64, n),
		committing: make([]bool, n),
		claimed:    make([][]TaskBlock, n),
	}
}

// beginRound points the ledger at the round's queues.
func (l *ledger) beginRound(queues []*Queue) {
	l.mu.Lock()
	l.queues = queues
	l.mu.Unlock()
}

// register starts a new incarnation of rank and returns its epoch. Any
// zombie of a previous incarnation holds a stale epoch from here on.
func (l *ledger) register(rank int) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.epoch[rank].Add(1)
	l.committing[rank] = false
	l.hb[rank].Store(time.Now().UnixNano())
	return e
}

// heartbeat refreshes rank's lease as of now (the caller's clock read).
func (l *ledger) heartbeat(rank int, now time.Time) {
	l.hb[rank].Store(now.UnixNano())
}

// ValidEpoch reports whether epoch is still the live incarnation of rank.
// It is also the dist.Fence the accumulate loop consults for the global F
// array.
func (l *ledger) ValidEpoch(rank int, epoch int64) bool {
	return l.epoch[rank].Load() == epoch
}

// claim records b as owned-uncommitted by rank; it fails if the
// incarnation has been fenced.
func (l *ledger) claim(rank int, epoch int64, b TaskBlock) bool {
	if b.Empty() {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.epoch[rank].Load() != epoch {
		return false
	}
	l.claimed[rank] = append(l.claimed[rank], b)
	l.hb[rank].Store(time.Now().UnixNano())
	return true
}

// steal atomically pops a block from the victim's queue and transfers
// its claim to the thief. The two must happen under one ledger lock: a
// bare Queue.Steal followed by a separate claim transfer leaves a window
// in which the victim drains dry and endCommits — clearing the claim the
// transfer needs — and the stolen tasks would be discarded unexecuted.
// Lock order is l.mu then q.mu, same as fenceLocked closing a queue.
func (l *ledger) steal(victim, thief int, thiefEpoch int64, q *Queue) (TaskBlock, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.epoch[thief].Load() != thiefEpoch {
		return TaskBlock{}, false
	}
	b, ok := q.Steal()
	if !ok {
		return TaskBlock{}, false
	}
	if !l.transferLocked(victim, thief, b) {
		// Unreachable while claims mirror queue contents; never lose
		// tasks regardless — the orphan pool re-executes them.
		l.orphans = append(l.orphans, b)
		return TaskBlock{}, false
	}
	l.hb[thief].Store(time.Now().UnixNano())
	return b, true
}

// transferLocked moves ownership of stolen block b from victim to thief;
// caller holds l.mu. It fails when the victim's claims no longer cover b
// (the victim was fenced and b already sits in the orphan pool). Steals
// take either a row band or a column band of a claimed region
// (Queue.Steal's row split and column fallback), so b is contained in
// exactly one claim; a guillotine split around b leaves at most four
// remnants.
func (l *ledger) transferLocked(victim, thief int, b TaskBlock) bool {
	regs := l.claimed[victim]
	for i, r := range regs {
		if r.R0 <= b.R0 && b.R1 <= r.R1 && r.C0 <= b.C0 && b.C1 <= r.C1 {
			var repl []TaskBlock
			if r.R0 < b.R0 { // band above b, full claim width
				repl = append(repl, TaskBlock{R0: r.R0, R1: b.R0, C0: r.C0, C1: r.C1})
			}
			if b.R1 < r.R1 { // band below b, full claim width
				repl = append(repl, TaskBlock{R0: b.R1, R1: r.R1, C0: r.C0, C1: r.C1})
			}
			if r.C0 < b.C0 { // left of b, within b's row band
				repl = append(repl, TaskBlock{R0: b.R0, R1: b.R1, C0: r.C0, C1: b.C0})
			}
			if b.C1 < r.C1 { // right of b, within b's row band
				repl = append(repl, TaskBlock{R0: b.R0, R1: b.R1, C0: b.C1, C1: r.C1})
			}
			rest := append(repl, regs[i+1:]...)
			l.claimed[victim] = append(regs[:i:i], rest...)
			l.claimed[thief] = append(l.claimed[thief], b)
			return true
		}
	}
	return false
}

// adopt hands one orphaned block to rank for re-execution.
func (l *ledger) adopt(rank int, epoch int64) (TaskBlock, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.epoch[rank].Load() != epoch || len(l.orphans) == 0 {
		return TaskBlock{}, false
	}
	b := l.orphans[len(l.orphans)-1]
	l.orphans = l.orphans[:len(l.orphans)-1]
	l.claimed[rank] = append(l.claimed[rank], b)
	l.hb[rank].Store(time.Now().UnixNano())
	atomic.AddInt64(&l.stats.Recovery.BlocksReassigned, 1)
	atomic.AddInt64(&l.stats.Recovery.TasksReassigned, int64(b.Count()))
	return b, true
}

// beginCommit opens the flush transaction for rank: while committing the
// monitor will not fence it, so every patch of the flush lands under one
// validation of the epoch.
func (l *ledger) beginCommit(rank int, epoch int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.epoch[rank].Load() != epoch {
		return false
	}
	l.committing[rank] = true
	return true
}

// abortCommit reopens rank's lease after a flush that could not start:
// the commit deadline expired before the first patch landed, so nothing
// of the flush reached the global F. Claims are kept — the monitor or
// final sweep will orphan them for exactly-once re-execution — and only
// the fence protection of the commit window is released.
func (l *ledger) abortCommit(rank int) {
	l.mu.Lock()
	l.committing[rank] = false
	l.mu.Unlock()
}

// endCommit closes the flush transaction: the committed claims are done.
func (l *ledger) endCommit(rank int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.committing[rank] = false
	l.claimed[rank] = nil
	l.hb[rank].Store(time.Now().UnixNano())
}

// expire fences every rank whose lease is older than the TTL and that
// holds uncommitted work; called periodically by the monitor.
func (l *ledger) expire(now time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for rank := range l.claimed {
		if l.committing[rank] || len(l.claimed[rank]) == 0 {
			continue
		}
		if now.UnixNano()-l.hb[rank].Load() > int64(l.ttl) {
			l.fenceLocked(rank)
		}
	}
}

// sweep fences every rank still holding uncommitted work — valid once
// all worker goroutines of the round have exited — and returns how many
// orphaned blocks remain for another round.
func (l *ledger) sweep() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	for rank := range l.claimed {
		if len(l.claimed[rank]) > 0 {
			l.fenceLocked(rank)
		}
	}
	return len(l.orphans)
}

// fenceLocked declares rank's current incarnation dead: bump its epoch
// (discarding any late flush), close its queue, and orphan its claims.
// Caller holds l.mu.
func (l *ledger) fenceLocked(rank int) {
	l.fenced = append(l.fenced, fencedEpoch{rank: rank, epoch: l.epoch[rank].Add(1) - 1})
	if l.queues != nil && l.queues[rank] != nil {
		l.queues[rank].Close()
	}
	atomic.AddInt64(&l.stats.Recovery.WorkersFenced, 1)
	atomic.AddInt64(&l.stats.Recovery.BlocksOrphaned, int64(len(l.claimed[rank])))
	l.orphans = append(l.orphans, l.claimed[rank]...)
	l.claimed[rank] = nil
}

// fencedEpochs returns the incarnations fenced so far.
func (l *ledger) fencedEpochs() []fencedEpoch {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]fencedEpoch(nil), l.fenced...)
}

// startMonitor launches the lease monitor, which scans every quarter TTL
// (at least every millisecond); the returned function stops it and waits
// for it to exit.
func startMonitor(l *ledger) (stop func()) {
	every := max(l.ttl/4, time.Millisecond)
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case now := <-tick.C:
				l.expire(now)
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}
