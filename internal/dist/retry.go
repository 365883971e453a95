package dist

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"time"
)

// maxRetryBackoff caps the exponential backoff of the retry loops so a
// long retry run polls steadily instead of sleeping unboundedly.
const maxRetryBackoff = time.Second

// Jitter spreads a backoff interval uniformly over [d/2, 3d/2) so
// concurrent retriers desynchronize instead of hammering the transport
// in lockstep (retry-storm avoidance). With NextBackoff and SleepBackoff
// this is the one backoff helper every retry loop in the repository uses.
func Jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// NextBackoff doubles a backoff interval until it reaches the cap
// SleepBackoff applies; a zero interval stays zero.
func NextBackoff(d time.Duration) time.Duration {
	if d > 0 && d < maxRetryBackoff {
		d *= 2
	}
	return d
}

// SleepBackoff sleeps a jittered backoff of nominally d (capped at 1s),
// returning early with ctx.Err() when the context expires first. A nil
// ctx means no deadline. Shared by every retry loop in this repository
// so backoff behavior (cap, jitter, deadline) is uniform across
// transports.
func SleepBackoff(ctx context.Context, d time.Duration) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if d > maxRetryBackoff {
		d = maxRetryBackoff
	}
	d = Jitter(d)
	if d <= 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
			return nil
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Retry is the budget of one one-sided operation, and its Get and Acc
// methods are the only loops over a Backend attempt in the repository —
// in-process or TCP, every retry runs through them.
type Retry struct {
	// Attempts bounds the tries of a Get (values below 1 mean 1). An Acc
	// has no attempt bound: it ends by landing, by being fenced, or by
	// ctx or WallCap expiring before anything was sent.
	Attempts int
	// Backoff is the nominal sleep before the first retry; it doubles per
	// retry up to a 1s cap and is jittered (SleepBackoff).
	Backoff time.Duration
	// WallCap bounds the total time an op may spend retrying, counted
	// from its first failed attempt (0 = no cap): the deadline is only
	// created once an attempt has failed, so a fault-free op costs one
	// interface call and no allocation.
	WallCap time.Duration
}

// pacer is the between-attempts half of both loops: it counts the retry,
// arms the wall cap on the first one, and sleeps the backoff.
type pacer struct {
	Retry
	ctx     context.Context // caller's ctx, then the wall-cap deadline under it
	cancel  context.CancelFunc
	stats   *RunStats
	retries int
}

// pause is called after a failed attempt that will be retried. While
// bounded, the sleep ends early with the error of ctx or of the wall cap;
// unbounded (an accumulate past its point of no return) it always sleeps
// its full backoff.
func (p *pacer) pause(bounded bool) error {
	p.retries++
	if p.stats != nil {
		atomic.AddInt64(&p.stats.Recovery.OpRetries, 1)
	}
	ctx := p.ctx
	if !bounded {
		ctx = nil
	} else if p.cancel == nil && p.WallCap > 0 {
		if ctx == nil {
			ctx = context.Background()
		}
		ctx, p.cancel = context.WithTimeout(ctx, p.WallCap)
		p.ctx = ctx
	}
	err := SleepBackoff(ctx, p.Backoff)
	p.Backoff = NextBackoff(p.Backoff)
	return err
}

func (p *pacer) stop() {
	if p.cancel != nil {
		p.cancel()
	}
}

// Get fetches one single-owner patch of ga into dst on behalf of proc,
// retrying failed attempts up to rt.Attempts tries in total. The call is
// charged once to stats — the stats of the build issuing it (nil = not
// accounted) — and every retry is counted in stats.Recovery.OpRetries and
// in the returned count. It ends early with ctx's error (nil ctx = never
// canceled) or the wall cap's when either expires during a backoff, and
// with the owner's error at once when that wraps ErrRejected. Gets never
// change the array, so abandoning one is always clean.
func (rt Retry) Get(ctx context.Context, ga Backend, stats *RunStats, proc, r0, r1, c0, c1 int, dst []float64, ld int) (retries int, err error) {
	stats.Charge(ga.Layout(), proc, r0, r1, c0, c1)
	p := pacer{Retry: rt, ctx: ctx, stats: stats}
	defer p.stop()
	for {
		err = ga.TryGet(proc, r0, r1, c0, c1, dst, ld)
		if err == nil || errors.Is(err, ErrRejected) || p.retries+1 >= rt.Attempts {
			return p.retries, err
		}
		if cerr := p.pause(true); cerr != nil {
			return p.retries, cerr
		}
	}
}

// Acc accumulates alpha*src into one single-owner patch of ga exactly
// once, under epoch fencing. The idempotency token of the first attempt
// rides on every retry, so an owner that already applied the patch
// acknowledges the repeat instead of applying it again.
//
// ctx, the wall cap and the fence are honored only while the op is
// provably clean — nothing of it, or of the flush it belongs to, may have
// reached an owner. landed tells the loop that an earlier patch of the
// same flush already did; this op's own first (possibly) sent attempt
// has the same effect. That is the point of no return: from there the
// only exits are landing the patch, retried without bound (the
// injector's consecutive-fault caps and partition windows bound this in
// practice), or a deterministic rejection. So ErrFenced and a context
// error always mean "nothing applied" and the caller may abandon the
// flush cleanly. Accounting is as for Get.
func (rt Retry) Acc(ctx context.Context, ga Backend, stats *RunStats, fence Fence, landed bool,
	proc int, epoch int64, r0, r1, c0, c1 int, src []float64, ld int, alpha float64) (retries int, err error) {
	stats.Charge(ga.Layout(), proc, r0, r1, c0, c1)
	p := pacer{Retry: rt, ctx: ctx, stats: stats}
	defer p.stop()
	var token uint64
	for {
		if !landed && fence != nil && !fence.ValidEpoch(proc, epoch) {
			return p.retries, ErrFenced
		}
		var sent bool
		token, sent, err = ga.TryAcc(proc, token, r0, r1, c0, c1, src, ld, alpha)
		landed = landed || sent
		if err == nil || errors.Is(err, ErrRejected) {
			return p.retries, err
		}
		if cerr := p.pause(!landed); cerr != nil {
			return p.retries, cerr
		}
	}
}
