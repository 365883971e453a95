package dist

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Config describes the simulated machine. Defaults reproduce the paper's
// Lonestar testbed (Table I and Sec. IV-A): dual-socket 12-core nodes on a
// 5 GB/s InfiniBand fabric, with the ERI timing constants of Table V.
type Config struct {
	CoresPerNode int     // 12 on Lonestar
	BandwidthBps float64 // interconnect bandwidth, bytes/s (5 GB/s)
	LatencySec   float64 // per one-sided operation
	// QueueServiceSec is the serialization cost of one access to a
	// centralized task-queue counter (NWChem's dynamic scheduler); each
	// access also pays LatencySec.
	QueueServiceSec float64
	// TIntGTFock is the average single-core time per ERI for the
	// GTFock/ERD-style engine (Table V: 4.76 us for C24H12).
	TIntGTFock float64
	// TIntNWChemFactor scales TIntGTFock to NWChem's per-ERI time; NWChem's
	// primitive pre-screening makes it faster, especially on alkanes
	// (Sec. IV-B). Typical: ~0.85 graphene, ~0.55 alkane.
	TIntNWChemFactor float64
	// GFlopsPerNode is the dense double-precision rate of one node
	// (Table I: 160 GFlop/s), used by the purification time model.
	GFlopsPerNode float64
	// CheckCostSec is the cost of one screening/symmetry check in the
	// Algorithm 3 task loop, which scans |Phi(M)| x |Phi(N)| candidate
	// quartets per task; part of GTFock's scheduler overhead.
	CheckCostSec float64
	// DenseEfficiency is the fraction of GFlopsPerNode a distributed
	// dense multiply actually achieves at SCF matrix sizes (panel widths
	// of a few hundred): well below peak for the era's stacks.
	DenseEfficiency float64
	// SummaStepOverheadSec is the per-panel-step synchronization cost of
	// a SUMMA multiply (broadcast setup, progress, imbalance).
	SummaStepOverheadSec float64
}

// Lonestar returns the paper's machine constants.
func Lonestar() Config {
	return Config{
		CoresPerNode: 12,
		BandwidthBps: 5e9,
		// Effective one-sided latency including ARMCI software overhead
		// and data-server contention (the raw wire latency is ~2 us).
		LatencySec: 10e-6,
		// NXTVAL-style remote atomic on the centralized counter: a network
		// round trip serviced by one process's progress engine; measured
		// costs under contention on fabrics of this era are tens of
		// microseconds.
		QueueServiceSec:      25e-6,
		TIntGTFock:           4.76e-6,
		TIntNWChemFactor:     0.85,
		GFlopsPerNode:        160,
		CheckCostSec:         3e-9,
		DenseEfficiency:      0.1,
		SummaStepOverheadSec: 3e-3,
	}
}

// CommTime returns the alpha-beta cost of a transfer: calls*latency +
// bytes/bandwidth.
func (c Config) CommTime(calls, bytes int64) float64 {
	return float64(calls)*c.LatencySec + float64(bytes)/c.BandwidthBps
}

// PaperCoreCounts are the core counts used for Tables III, IV, VI-VIII
// and Fig. 2: square node grids 1,3^2,6^2,9^2,12^2,18^2 nodes at 12
// cores/node, spanning 12..3888 cores as in the paper.
var PaperCoreCounts = []int{12, 108, 432, 972, 1728, 3888}

// SquareGridFor returns (prow, pcol) for n processes, as close to square
// as possible with prow*pcol == n (prow <= pcol).
func SquareGridFor(n int) (int, int) {
	if n <= 0 {
		panic("dist: non-positive process count")
	}
	best := 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			best = d
		}
	}
	return best, n / best
}

// ParseGrid parses a process-grid flag of the form "RxC" into positive
// (prow, pcol).
func ParseGrid(s string) (prow, pcol int, err error) {
	r, c, _ := strings.Cut(s, "x")
	prow, rerr := strconv.Atoi(r)
	pcol, cerr := strconv.Atoi(c)
	if rerr != nil || cerr != nil || prow <= 0 || pcol <= 0 {
		return 0, 0, fmt.Errorf("dist: grid must be RxC with positive dimensions, got %q", s)
	}
	return prow, pcol, nil
}

// NodesFor converts a core count to a node count for GTFock (one process
// per node, Sec. IV-A); the core count must be a multiple of CoresPerNode.
func (c Config) NodesFor(cores int) (int, error) {
	if cores%c.CoresPerNode != 0 {
		return 0, fmt.Errorf("dist: %d cores is not a multiple of %d per node",
			cores, c.CoresPerNode)
	}
	return cores / c.CoresPerNode, nil
}

// IsPerfectSquare reports whether n is a perfect square.
func IsPerfectSquare(n int) bool {
	if n < 0 {
		return false
	}
	r := int(math.Round(math.Sqrt(float64(n))))
	return r*r == n
}
