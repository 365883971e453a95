package dist

import (
	"errors"

	"gtfock/internal/linalg"
)

// Backend is the one-sided Global Arrays surface a real-mode Fock build
// runs over: the two verbs of the paper's Algorithm 4 — prefetch Get,
// flush Acc — as single attempts on a patch owned by one process, plus
// the driver's whole-matrix load and gather. Two implementations exist:
//
//   - GlobalArray, the in-process shared-memory stand-in (goroutine
//     "processes", optional injected transport faults), and
//   - the TCP transport in internal/net (package netga), where the D and
//     F shards live in separate server processes and every attempt is one
//     framed RPC.
//
// A backend never loops, sleeps, fences or accounts: Retry.Get and
// Retry.Acc (retry.go) are the only code that retries a one-sided op, and
// they own the attempts budget, the backoff, the wall cap, the epoch
// fence, the point of no return and the Tables VI/VII charge. core.Build
// and its lease/epoch recovery are written against them, so the same
// build — including its exactly-once accumulation argument — runs
// unchanged over either transport.
type Backend interface {
	// Layout returns the 2D block distribution the backend serves.
	Layout() *Grid2D

	// TryGet makes one attempt to copy the patch [r0,r1) x [c0,c1), which
	// must lie inside one owner's block (see Grid2D.Patches), into dst
	// (leading dimension ld) on behalf of proc. On error nothing usable
	// was copied and the attempt may be repeated; an error wrapping
	// ErrRejected is the owner's deterministic refusal and is final.
	TryGet(proc, r0, r1, c0, c1 int, dst []float64, ld int) error

	// TryAcc makes one attempt to accumulate alpha*src into a single-owner
	// patch. token is the op's idempotency identity: 0 on the first
	// attempt, and on every retry the value the previous attempt returned,
	// so the owner applies the contribution once however often delivery
	// fails or repeats. The backend mints it — the network client from a
	// counter that lives as long as its session; the in-process array,
	// whose attempts either apply or provably do not, never needs one and
	// returns 0. sent reports that the request may have reached the owner:
	// an error with sent=false is provably clean (nothing applied, the
	// caller may walk away), an error with sent=true is ambiguous and only
	// a retry under the same token resolves it.
	TryAcc(proc int, token uint64, r0, r1, c0, c1 int, src []float64, ld int, alpha float64) (next uint64, sent bool, err error)

	// LoadMatrix fills the array from a dense matrix; ToMatrix reads the
	// whole array back into a new matrix the caller owns. Driver-side: not accounted, not fault-injected. A
	// fleet lost mid-build surfaces here as an error the build returns —
	// and the serving layer retries — never as a panic in a process that
	// hosts other tenants' jobs.
	LoadMatrix(m *linalg.Matrix) error
	ToMatrix() (*linalg.Matrix, error)
}

// ErrDropped reports a one-sided operation that was lost in transport
// before being applied (injected fault); the caller may safely retry.
var ErrDropped = errors.New("dist: one-sided operation dropped")

// ErrFenced reports an accumulate rejected by epoch fencing: the calling
// process incarnation has been declared dead and its contribution must
// be discarded, not applied.
var ErrFenced = errors.New("dist: accumulate fenced (stale epoch)")

// ErrRejected marks an owner's deterministic refusal of an op (unknown
// session, patch it does not host): retrying cannot help, so the retry
// loop returns it at once. Backends wrap it with their own detail.
var ErrRejected = errors.New("rejected")

// Fence validates accumulate epochs: Retry.Acc applies a contribution
// only while ValidEpoch(proc, epoch) holds, discarding late flushes from
// zombie process incarnations.
type Fence interface {
	ValidEpoch(proc int, epoch int64) bool
}
