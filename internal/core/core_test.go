package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/dist"
	"gtfock/internal/linalg"
	"gtfock/internal/screen"
)

func TestSymmetryCheckPicksOneOrdering(t *testing.T) {
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			a, b := SymmetryCheck(i, j), SymmetryCheck(j, i)
			if i == j {
				if !a {
					t.Fatalf("SymmetryCheck(%d,%d) must be true", i, j)
				}
			} else if a == b {
				t.Fatalf("SymmetryCheck(%d,%d)=%v and (%d,%d)=%v: not exclusive",
					i, j, a, j, i, b)
			}
		}
	}
}

// Every quartet orbit must be computed exactly once by the task scheme:
// enumerate the quartets each task computes (symmetry checks only) and
// verify each unordered orbit appears exactly once.
func TestTaskSchemeCoversOrbitsOnce(t *testing.T) {
	const ns = 7
	type orbit [4]int
	canon := func(m, p, n, q int) orbit {
		// Canonical form of the 8-fold orbit of (mp|nq).
		bra := [2]int{m, p}
		ket := [2]int{n, q}
		if bra[0] < bra[1] {
			bra[0], bra[1] = bra[1], bra[0]
		}
		if ket[0] < ket[1] {
			ket[0], ket[1] = ket[1], ket[0]
		}
		if bra[0] < ket[0] || (bra[0] == ket[0] && bra[1] < ket[1]) {
			bra, ket = ket, bra
		}
		return orbit{bra[0], bra[1], ket[0], ket[1]}
	}
	seen := map[orbit]int{}
	for m := 0; m < ns; m++ {
		for n := 0; n < ns; n++ {
			if !SymmetryCheck(m, n) {
				continue
			}
			for p := 0; p < ns; p++ {
				if !SymmetryCheck(m, p) {
					continue
				}
				for q := 0; q < ns; q++ {
					if !SymmetryCheck(n, q) {
						continue
					}
					if m == n && !SymmetryCheck(p, q) {
						continue
					}
					seen[canon(m, p, n, q)]++
				}
			}
		}
	}
	// All n^4/8-ish orbits must be present exactly once.
	want := 0
	for m := 0; m < ns; m++ {
		for p := 0; p <= m; p++ {
			for n := 0; n < ns; n++ {
				for q := 0; q <= n; q++ {
					if m > n || (m == n && p >= q) {
						want++
					}
				}
			}
		}
	}
	if len(seen) != want {
		t.Fatalf("covered %d orbits, want %d", len(seen), want)
	}
	for o, c := range seen {
		if c != 1 {
			t.Fatalf("orbit %v covered %d times", o, c)
		}
	}
}

func TestQueuePopOrderAndExhaustion(t *testing.T) {
	q := NewQueue(TaskBlock{R0: 2, R1: 4, C0: 5, C1: 7})
	var got []Task
	for {
		task, ok := q.Pop()
		if !ok {
			break
		}
		got = append(got, task)
	}
	want := []Task{{2, 5}, {2, 6}, {3, 5}, {3, 6}}
	if len(got) != len(want) {
		t.Fatalf("popped %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("popped %v, want %v", got, want)
		}
	}
}

func TestQueueStealHalvesAndPreservesTasks(t *testing.T) {
	q := NewQueue(TaskBlock{R0: 0, R1: 8, C0: 0, C1: 3})
	blk, ok := q.Steal()
	if !ok {
		t.Fatal("steal failed")
	}
	if blk.Count() != 12 {
		t.Fatalf("stole %d tasks, want half (12)", blk.Count())
	}
	// Owner keeps the rest; total tasks conserved.
	rest := 0
	for {
		_, ok := q.Pop()
		if !ok {
			break
		}
		rest++
	}
	if rest+blk.Count() != 24 {
		t.Fatalf("tasks lost: %d + %d != 24", rest, blk.Count())
	}
}

// Regression for the tail-imbalance hole: a single-row but arbitrarily
// wide block used to be unstealable (Steal split rows only), defeating
// work stealing exactly where it matters. The column fallback must
// split it.
func TestQueueStealColumnSplitFromSingleRow(t *testing.T) {
	q := NewQueue(TaskBlock{R0: 3, R1: 4, C0: 0, C1: 9})
	blk, ok := q.Steal()
	if !ok {
		t.Fatal("steal from a 1x9 block failed")
	}
	if blk.Count() != 4 { // half of 9 columns, rounded down
		t.Fatalf("stole %d tasks from 1x9, want 4", blk.Count())
	}
	seen := map[Task]int{}
	drain := func(q *Queue) {
		for {
			task, ok := q.Pop()
			if !ok {
				return
			}
			seen[task]++
		}
	}
	drain(NewQueue(blk))
	drain(q)
	if len(seen) != 9 {
		t.Fatalf("delivered %d distinct tasks, want 9", len(seen))
	}
	for task, n := range seen {
		if n != 1 {
			t.Fatalf("task %v delivered %d times", task, n)
		}
	}
}

// A cursor-pinned two-row block: the owner sits in the first row, so a
// row split sees only one spare row and used to give up. The fallback
// steals that whole row, then column-splits the cursor row's tail.
func TestQueueStealCursorPinnedBlock(t *testing.T) {
	q := NewQueue(TaskBlock{R0: 0, R1: 2, C0: 0, C1: 8})
	seen := map[Task]int{}
	for i := 0; i < 3; i++ { // cursor into row 0, column 3 next
		task, ok := q.Pop()
		if !ok {
			t.Fatal("pop failed")
		}
		seen[task]++
	}
	var stolen []TaskBlock
	for {
		blk, ok := q.Steal()
		if !ok {
			break
		}
		if blk.Empty() {
			t.Fatalf("stole empty block %+v", blk)
		}
		stolen = append(stolen, blk)
	}
	// First steal takes the full spare row (8 tasks), later ones split
	// the cursor row's remaining columns [3,8).
	if len(stolen) < 2 {
		t.Fatalf("only %d steals from a pinned 2x8 block, want >= 2", len(stolen))
	}
	if stolen[0].Count() != 8 {
		t.Fatalf("first steal took %d tasks, want the 8-task spare row", stolen[0].Count())
	}
	for _, blk := range stolen {
		q2 := NewQueue(blk)
		for {
			task, ok := q2.Pop()
			if !ok {
				break
			}
			if seen[task] > 0 {
				t.Fatalf("stole already-delivered task %v", task)
			}
			seen[task]++
		}
	}
	for {
		task, ok := q.Pop()
		if !ok {
			break
		}
		seen[task]++
	}
	if len(seen) != 16 {
		t.Fatalf("delivered %d distinct tasks, want 16", len(seen))
	}
	for task, n := range seen {
		if n != 1 {
			t.Fatalf("task %v delivered %d times", task, n)
		}
	}
}

func TestQueueConcurrentPopSteal(t *testing.T) {
	const rows, cols = 40, 10
	q := NewQueue(TaskBlock{R0: 0, R1: rows, C0: 0, C1: cols})
	var mu sync.Mutex
	seen := map[Task]int{}
	record := func(task Task) {
		mu.Lock()
		seen[task]++
		mu.Unlock()
	}
	var wg sync.WaitGroup
	// One owner popping, three thieves stealing into their own queues.
	wg.Add(4)
	go func() {
		defer wg.Done()
		for {
			task, ok := q.Pop()
			if !ok {
				return
			}
			record(task)
		}
	}()
	for th := 0; th < 3; th++ {
		go func() {
			defer wg.Done()
			for {
				blk, ok := q.Steal()
				if !ok {
					return
				}
				mine := NewQueue(blk)
				for {
					task, ok := mine.Pop()
					if !ok {
						break
					}
					record(task)
				}
			}
		}()
	}
	wg.Wait()
	if len(seen) != rows*cols {
		t.Fatalf("executed %d distinct tasks, want %d", len(seen), rows*cols)
	}
	for task, c := range seen {
		if c != 1 {
			t.Fatalf("task %v executed %d times", task, c)
		}
	}
}

// Concurrent conservation property: an owner popping, thieves stealing
// (row splits and column fallbacks) and re-stealing from each other, and
// a feeder adding blocks mid-flight must together deliver every task
// exactly once. Run under -race this doubles as the data-race audit of
// Pop's front-block shrink against concurrent Steal.
func TestQueueConcurrentPopStealAddBlock(t *testing.T) {
	const rows, cols = 8, 50 // wide and short: column fallback territory
	q := NewQueue(TaskBlock{R0: 0, R1: rows, C0: 0, C1: cols})
	extra := []TaskBlock{
		{R0: rows, R1: rows + 1, C0: 0, C1: cols}, // single wide row
		{R0: rows + 1, R1: rows + 3, C0: 0, C1: 7},
		{R0: rows + 3, R1: rows + 4, C0: 0, C1: 1}, // single task
	}
	want := rows * cols
	for _, b := range extra {
		want += b.Count()
	}

	var mu sync.Mutex
	seen := map[Task]int{}
	record := func(task Task) {
		mu.Lock()
		seen[task]++
		mu.Unlock()
	}
	var wg sync.WaitGroup
	wg.Add(5)
	go func() { // feeder: blocks arrive while popping and stealing run
		defer wg.Done()
		for _, b := range extra {
			q.AddBlock(b)
		}
	}()
	go func() { // owner
		defer wg.Done()
		misses := 0
		for misses < 100 { // outlast the feeder
			task, ok := q.Pop()
			if !ok {
				misses++
				continue
			}
			misses = 0
			record(task)
		}
	}()
	for th := 0; th < 3; th++ {
		go func() {
			defer wg.Done()
			misses := 0
			for misses < 100 {
				blk, ok := q.Steal()
				if !ok {
					misses++
					continue
				}
				misses = 0
				mine := NewQueue(blk)
				for {
					task, ok := mine.Pop()
					if !ok {
						break
					}
					record(task)
				}
			}
		}()
	}
	wg.Wait()
	// Steal deliberately never takes the last task of a block (the owner
	// finishes what it started), so if the owner goroutine hit its miss
	// limit first, single-task remnants may remain; the owner would have
	// popped them. Drain them here and check coverage over the union.
	for {
		task, ok := q.Pop()
		if !ok {
			break
		}
		record(task)
	}
	if len(seen) != want {
		t.Fatalf("executed %d distinct tasks, want %d", len(seen), want)
	}
	for task, c := range seen {
		if c != 1 {
			t.Fatalf("task %v executed %d times", task, c)
		}
	}
}

func buildSetup(t testing.TB, mol *chem.Molecule, bname string) (*basis.Set, *screen.Screening, *linalg.Matrix) {
	t.Helper()
	bs, err := basis.Build(mol, bname)
	if err != nil {
		t.Fatal(err)
	}
	scr := screen.Compute(bs, 1e-11)
	// A symmetric pseudo-density with decaying off-diagonals.
	d := linalg.NewMatrix(bs.NumFuncs, bs.NumFuncs)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < d.Rows; i++ {
		for j := 0; j <= i; j++ {
			v := rng.NormFloat64() * math.Exp(-0.1*float64(i-j))
			d.Set(i, j, v)
			d.Set(j, i, v)
		}
	}
	return bs, scr, d
}

// The real-mode parallel build must match the brute-force serial oracle
// for every grid shape.
func TestBuildMatchesSerialOracle(t *testing.T) {
	bs, scr, d := buildSetup(t, chem.Methane(), "sto-3g")
	ref := BuildSerial(bs, scr, d)
	for _, grid := range [][2]int{{1, 1}, {1, 3}, {2, 2}, {3, 4}, {5, 5}} {
		res := Build(bs, scr, d, Options{Prow: grid[0], Pcol: grid[1]})
		if err := linalg.MaxAbsDiff(ref, res.G); err > 1e-9 {
			t.Fatalf("grid %v: |G - serial| = %g", grid, err)
		}
		if res.G.SymmetryError() > 1e-11 {
			t.Fatalf("grid %v: G not symmetric", grid)
		}
	}
}

// Same check with d functions in play (cc-pVDZ) on a molecule with
// nontrivial screening.
func TestBuildMatchesSerialOracleCCPVDZ(t *testing.T) {
	bs, scr, d := buildSetup(t, chem.Hydrogen2(0.9), "cc-pvdz")
	ref := BuildSerial(bs, scr, d)
	res := Build(bs, scr, d, Options{Prow: 2, Pcol: 3})
	if err := linalg.MaxAbsDiff(ref, res.G); err > 1e-9 {
		t.Fatalf("|G - serial| = %g", err)
	}
}

// The build must be invariant (after index mapping) under shell
// reordering: compute in a permuted basis and map back.
func TestBuildInvariantUnderReordering(t *testing.T) {
	bs, scr, d := buildSetup(t, chem.Alkane(2), "sto-3g")
	ref := Build(bs, scr, d, Options{Prow: 2, Pcol: 2}).G

	order := rand.New(rand.NewSource(5)).Perm(bs.NumShells())
	pbs := bs.Permute(order)
	fmap := bs.FunctionPermutation(order)
	pd := linalg.NewMatrix(d.Rows, d.Cols)
	for i := 0; i < d.Rows; i++ {
		for j := 0; j < d.Cols; j++ {
			pd.Set(fmap[i], fmap[j], d.At(i, j))
		}
	}
	pscr := screen.Compute(pbs, 1e-11)
	pres := Build(pbs, pscr, pd, Options{Prow: 2, Pcol: 2}).G
	back := linalg.NewMatrix(d.Rows, d.Cols)
	for i := 0; i < d.Rows; i++ {
		for j := 0; j < d.Cols; j++ {
			back.Set(i, j, pres.At(fmap[i], fmap[j]))
		}
	}
	if err := linalg.MaxAbsDiff(ref, back); err > 1e-8 {
		t.Fatalf("reordering changed G by %g", err)
	}
}

// Work stealing engages when the initial partition is imbalanced, and all
// tasks still run exactly once (validated against the oracle).
func TestBuildWithStealingStillCorrect(t *testing.T) {
	bs, scr, d := buildSetup(t, chem.Alkane(3), "sto-3g")
	ref := BuildSerial(bs, scr, d)
	// Tall skinny grid: column procs own very different workloads due to
	// screening irregularity; steals will happen at these sizes.
	res := Build(bs, scr, d, Options{Prow: 7, Pcol: 1})
	if err := linalg.MaxAbsDiff(ref, res.G); err > 1e-9 {
		t.Fatalf("|G - serial| = %g", err)
	}
	var tasks int64
	for i := range res.Stats.Per {
		tasks += res.Stats.Per[i].TasksRun
	}
	ns := int64(bs.NumShells())
	if tasks != ns*ns {
		t.Fatalf("ran %d tasks, want %d", tasks, ns*ns)
	}
}

func TestBuildAccountsCommunication(t *testing.T) {
	bs, scr, d := buildSetup(t, chem.Methane(), "sto-3g")
	res := Build(bs, scr, d, Options{Prow: 2, Pcol: 2})
	if res.Stats.CallsAvg() <= 0 {
		t.Fatal("no communication calls recorded")
	}
	if res.Stats.VolumeAvgMB() <= 0 {
		t.Fatal("no communication volume recorded")
	}
	if res.Stats.TFockAvg() <= 0 || res.Stats.TCompAvg() <= 0 {
		t.Fatal("no times recorded")
	}
	if res.Stats.TCompAvg() > res.Stats.TFockAvg() {
		t.Fatal("compute time exceeds total time")
	}
}

func TestFootprintContainsTaskBlocks(t *testing.T) {
	_, scr, _ := buildSetup(t, chem.Alkane(4), "sto-3g")
	fp := NewFootprint()
	b := TaskBlock{R0: 2, R1: 5, C0: 7, C1: 9}
	fp.AddBlock(scr, b)
	// Region 1 rows present with spans covering Phi.
	for m := b.R0; m < b.R1; m++ {
		s, ok := fp.span(m)
		if !ok {
			t.Fatalf("row %d missing from footprint", m)
		}
		phi := scr.Phi[m]
		if s[0] > phi[0] || s[1] < phi[len(phi)-1] {
			t.Fatalf("span %v does not cover Phi(%d)", s, m)
		}
	}
	// Region 3 rows: members of Phi(M) for block rows.
	for _, p := range scr.Phi[b.R0] {
		if _, ok := fp.span(p); !ok {
			t.Fatalf("region-3 row %d missing", p)
		}
	}
}

func TestFootprintTransfersPositive(t *testing.T) {
	bs, scr, _ := buildSetup(t, chem.Alkane(4), "sto-3g")
	grid := dist.UniformGrid2D(2, 2, bs.NumFuncs, bs.NumFuncs)
	fp := NewFootprint()
	fp.AddBlock(scr, TaskBlock{R0: 0, R1: 3, C0: 0, C1: 3})
	patches, oracle := fp.Patches(bs, grid), rowShellPatches(bs, grid, fp)
	bytes := patchBytes(patches)
	if len(patches) == 0 || bytes <= 0 {
		t.Fatal("no transfers")
	}
	if len(patches) > len(oracle) || bytes != patchBytes(oracle) {
		t.Fatalf("%d patches of %d bytes; the per-row-shell walk takes %d of %d", len(patches), bytes, len(oracle), patchBytes(oracle))
	}
}

// Fig. 1's headline: the D footprint of a 50x50 block of tasks is vastly
// smaller than 2500x the single-task footprint (around 80x in the paper).
func TestBlockFootprintSharesData(t *testing.T) {
	mol := chem.Alkane(24)
	bs, err := basis.Build(mol, "sto-3g")
	if err != nil {
		t.Fatal(err)
	}
	scr := screen.Compute(bs, 1e-10)
	single, _ := ExactDElements(bs, scr, TaskBlock{R0: 30, R1: 31, C0: 60, C1: 61})
	block, _ := ExactDElements(bs, scr, TaskBlock{R0: 30, R1: 40, C0: 60, C1: 70})
	if single <= 0 || block <= 0 {
		t.Fatal("empty footprints")
	}
	ratio := float64(block) / float64(single)
	if ratio >= 100 { // 100 tasks in the block
		t.Fatalf("no sharing: block/single = %g for 100 tasks", ratio)
	}
	if ratio < 1 {
		t.Fatalf("block footprint smaller than single task: %g", ratio)
	}
}

// The shell cuts behind Grid (what Build hands to dist.NewGrid2D) against
// the split of GTFock's init_fock (pfock.c: n0 = ns/np, t = ns%np,
// n1 = ceil(ns/np), rowptr_sh[i] = i < t ? n1*i : n1*t + (i-t)*n0): for
// random shell counts and grid extents the cuts cover [0, ns) exactly
// once, are monotone, and hand every process n0 or n1 shells, t of them
// n1 — GTFock's block sizes. The placement differs when np does not
// divide ns: GTFock gives the t larger blocks to the first t processes,
// ours (floor(i*ns/np), no remainder bookkeeping) spreads them — 5 shells
// over 2 processes are cut [0 3 5] there and [0 2 5] here. Which process
// holds the larger block changes neither the load balance nor G.
func TestGridShellCutsMatchGTFockSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	gtfock := func(ns, np int) []int {
		n0, rem, n1 := ns/np, ns%np, (ns+np-1)/np
		ptr := make([]int, np+1)
		for i := 0; i < np; i++ {
			if i < rem {
				ptr[i] = n1 * i
			} else {
				ptr[i] = n1*rem + (i-rem)*n0
			}
		}
		ptr[np] = ns
		return ptr
	}
	check := func(ns, np int, funcCuts []int, bs *basis.Set) {
		t.Helper()
		shellOf := map[int]int{bs.NumFuncs: ns}
		for s, off := range bs.Offsets {
			shellOf[off] = s
		}
		want := gtfock(ns, np)
		n0, rem := ns/np, ns%np
		big, prev := 0, 0
		for i, fc := range funcCuts {
			s, ok := shellOf[fc]
			if !ok {
				t.Fatalf("ns=%d np=%d: cut %d is not a shell boundary", ns, np, fc)
			}
			if i == 0 {
				if s != 0 {
					t.Fatalf("ns=%d np=%d: first cut at shell %d", ns, np, s)
				}
				continue
			}
			switch size := s - prev; {
			case size == n0+1 && rem > 0:
				big++
			case size != n0:
				t.Fatalf("ns=%d np=%d: process %d holds %d shells, want %d or %d", ns, np, i-1, size, n0, n0+1)
			}
			if rem == 0 && s != want[i] {
				t.Fatalf("ns=%d np=%d: cut %d at shell %d, GTFock %d", ns, np, i, s, want[i])
			}
			prev = s
		}
		if prev != ns || big != rem || len(funcCuts) != np+1 {
			t.Fatalf("ns=%d np=%d: cuts end at %d with %d larger blocks, want %d and %d", ns, np, prev, big, ns, rem)
		}
	}
	for trial := 0; trial < 300; trial++ {
		ns, prow, pcol := 1+rng.Intn(500), 1+rng.Intn(16), 1+rng.Intn(16)
		bs := &basis.Set{Shells: make([]basis.Shell, ns), Offsets: make([]int, ns)}
		for i := range bs.Shells {
			bs.Shells[i].L = rng.Intn(3)
			bs.Offsets[i] = bs.NumFuncs
			bs.NumFuncs += bs.Shells[i].NumFuncs()
		}
		g := Grid(bs, prow, pcol)
		check(ns, prow, g.RowCuts, bs)
		check(ns, pcol, g.ColCuts, bs)
	}
	if ours, theirs := dist.UniformCuts(5, 2), gtfock(5, 2); ours[1] != 2 || theirs[1] != 3 {
		t.Fatalf("5 shells over 2: ours %v, GTFock %v", ours, theirs)
	}
}
