package core

import (
	"fmt"
	"math/rand"
	"testing"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/dist"
	"gtfock/internal/linalg"
	"gtfock/internal/reorder"
	"gtfock/internal/screen"
)

// rowShellPatches is the per-row-shell walk Footprint.Patches coalesces:
// one patch per row shell per owner block its span intersects, the paper's
// transfer granularity. It is the element-set oracle of the coalesced walk.
func rowShellPatches(bs *basis.Set, grid *dist.Grid2D, fp *Footprint) []dist.Patch {
	var out []dist.Patch
	for _, m := range fp.Rows() {
		s, _ := fp.span(m)
		r0 := bs.Offsets[m]
		out = append(out, grid.Patches(r0, r0+bs.ShellFuncs(m), bs.Offsets[s[0]], bs.Offsets[s[1]]+bs.ShellFuncs(s[1]))...)
	}
	return out
}

// patchBytes is the bytes a list of patches moves.
func patchBytes(ps []dist.Patch) int64 {
	var b int64
	for _, p := range ps {
		b += 8 * int64(p.Elems())
	}
	return b
}

// The coalesced footprint walk moves exactly the per-row-shell walk's
// elements: over random unions of task blocks (a static block plus stolen
// or adopted ones) on several grids, its patches are pairwise disjoint,
// each lies in the one owner block it names, together they cover the
// oracle's element set and nothing else, and they take no more calls than
// the oracle for the same bytes.
func TestCoalescedPatchesCoverRowShellWalkExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, c := range []struct{ mol, basis string }{{"CH4", "cc-pvdz"}, {"alkane:6", "sto-3g"}} {
		mol, err := chem.ParseSpec(c.mol)
		if err != nil {
			t.Fatal(err)
		}
		bs, scr, _ := buildSetup(t, mol, c.basis)
		ns, nf := bs.NumShells(), bs.NumFuncs
		for _, g := range [][2]int{{1, 1}, {1, 2}, {2, 2}, {3, 2}} {
			grid := Grid(bs, g[0], g[1])
			for trial := 0; trial < 40; trial++ {
				fp := NewFootprint()
				for k := 1 + rng.Intn(3); k > 0; k-- {
					r0, c0 := rng.Intn(ns), rng.Intn(ns)
					fp.AddBlock(scr, TaskBlock{R0: r0, R1: r0 + 1 + rng.Intn(ns-r0), C0: c0, C1: c0 + 1 + rng.Intn(ns-c0)})
				}
				name := fmt.Sprintf("%s/%s %dx%d trial %d", c.mol, c.basis, g[0], g[1], trial)

				patches, oracle := fp.Patches(bs, grid), rowShellPatches(bs, grid, fp)
				want := make([]bool, nf*nf)
				for _, p := range oracle {
					for r := p.R0; r < p.R1; r++ {
						for col := p.C0; col < p.C1; col++ {
							want[r*nf+col] = true
						}
					}
				}
				got := make([]int, nf*nf)
				var bytes int64
				for _, p := range patches {
					bi, bj := grid.Coords(p.Proc)
					if p.R0 < grid.RowCuts[bi] || p.R1 > grid.RowCuts[bi+1] ||
						p.C0 < grid.ColCuts[bj] || p.C1 > grid.ColCuts[bj+1] || p.Elems() <= 0 {
						t.Fatalf("%s: patch %+v is not a non-empty part of owner block (%d,%d)", name, p, bi, bj)
					}
					bytes += 8 * int64(p.Elems())
					for r := p.R0; r < p.R1; r++ {
						for col := p.C0; col < p.C1; col++ {
							got[r*nf+col]++
						}
					}
				}
				for i := range got {
					if (got[i] == 1) != want[i] || got[i] > 1 {
						t.Fatalf("%s: element (%d,%d) covered %d times, oracle %v", name, i/nf, i%nf, got[i], want[i])
					}
				}
				if len(patches) > len(oracle) || bytes != patchBytes(oracle) {
					t.Fatalf("%s: %d calls / %d bytes, the per-row-shell walk %d / %d", name, len(patches), bytes, len(oracle), patchBytes(oracle))
				}
			}
		}
	}
}

// At 1x1 every row shell of a small molecule spans every column shell, so
// the whole footprint is one rectangle: the build Gets D once and
// accumulates F once, moving the bytes the per-row-shell walk moved in 14
// calls (7 row shells, Get and Acc each).
func TestBuildMovesOneRectanglePerOwnerBlock(t *testing.T) {
	bs, scr, d := buildSetup(t, chem.Methane(), "sto-3g")
	res := Build(bs, scr, d, Options{})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// 9 basis functions: the 9x9 D Get plus the 9x9 F Acc, 8 bytes each.
	const wantMB = 2 * 9 * 9 * 8 / 1e6
	if calls, mb := res.Stats.CallsAvg(), res.Stats.VolumeAvgMB(); calls != 2 || mb != wantMB {
		t.Fatalf("1x1 CH4/sto-3g build: %g calls, %g MB; want 2 calls, %g MB", calls, mb, wantMB)
	}
	if err := linalg.MaxAbsDiff(BuildSerial(bs, scr, d), res.G); err > 1e-9 {
		t.Fatalf("|G - serial| = %g", err)
	}
}

// intakeFunc is a block intake: it merges b into fp and returns the
// patches to fetch.
type intakeFunc func(bs *basis.Set, scr *screen.Screening, grid *dist.Grid2D, fp *Footprint, b TaskBlock) []dist.Patch

// intakeCoverage runs random sequences of intakes into an empty footprint
// on several grids, and reports the first whose fetched patches do not
// cover every element of the final spans (fp.Patches, the flush's walk)
// exactly once, and nothing else.
func intakeCoverage(t *testing.T, in intakeFunc) error {
	rng := rand.New(rand.NewSource(49))
	for _, c := range []struct{ mol, basis string }{{"CH4", "cc-pvdz"}, {"alkane:30", "sto-3g"}} {
		mol, err := chem.ParseSpec(c.mol)
		if err != nil {
			t.Fatal(err)
		}
		bs, _, _ := buildSetup(t, mol, c.basis)
		// Cell order keeps each Phi(M) a narrow span, so held and new spans
		// of a row can lie apart.
		bs = bs.Permute(reorder.Cell(bs, 0))
		scr := screen.Compute(bs, 1e-11)
		ns, nf := bs.NumShells(), bs.NumFuncs
		for _, g := range [][2]int{{1, 1}, {2, 2}, {3, 2}} {
			grid := Grid(bs, g[0], g[1])
			for trial := 0; trial < 40; trial++ {
				fp := NewFootprint()
				got := make([]int, nf*nf)
				for k := 1 + rng.Intn(6); k > 0; k-- {
					r0, c0 := rng.Intn(ns), rng.Intn(ns)
					b := TaskBlock{R0: r0, R1: r0 + 1 + rng.Intn(min(3, ns-r0)), C0: c0, C1: c0 + 1 + rng.Intn(min(3, ns-c0))}
					for _, p := range in(bs, scr, grid, fp, b) {
						for r := p.R0; r < p.R1; r++ {
							for col := p.C0; col < p.C1; col++ {
								got[r*nf+col]++
							}
						}
					}
				}
				want := make([]bool, nf*nf)
				for _, p := range fp.Patches(bs, grid) {
					for r := p.R0; r < p.R1; r++ {
						for col := p.C0; col < p.C1; col++ {
							want[r*nf+col] = true
						}
					}
				}
				for i := range got {
					if (got[i] == 1) != want[i] {
						return fmt.Errorf("%s/%s %dx%d trial %d: element (%d,%d) fetched %d times, in the final spans: %v",
							c.mol, c.basis, g[0], g[1], trial, i/nf, i%nf, got[i], want[i])
					}
				}
			}
		}
	}
	return nil
}

// The one intake fetches each element of the final footprint once: any
// sequence of intakes into an empty footprint (a static block, then
// stolen and adopted ones) Gets every element of the flush's spans exactly
// once, the gap between a held span and a new one included, and nothing
// else. The plant fetches only the new block's own span beyond the held
// one, leaving such a gap unfetched, and must be reported.
func TestIntakeFetchesFinalSpansOnce(t *testing.T) {
	if err := intakeCoverage(t, func(bs *basis.Set, scr *screen.Screening, grid *dist.Grid2D, fp *Footprint, b TaskBlock) []dist.Patch {
		return fp.Intake(bs, scr, grid, b)
	}); err != nil {
		t.Fatal(err)
	}
	gapless := func(bs *basis.Set, scr *screen.Screening, grid *dist.Grid2D, fp *Footprint, b TaskBlock) []dist.Patch {
		blk, lo, hi := NewFootprint(), NewFootprint(), NewFootprint()
		blk.AddBlock(scr, b)
		for _, m := range blk.Rows() {
			s, _ := blk.span(m)
			held, ok := fp.span(m)
			switch {
			case !ok:
				lo.addSpan(m, s[0], s[1])
			default:
				if s[0] < held[0] {
					lo.addSpan(m, s[0], min(s[1], held[0]-1))
				}
				if s[1] > held[1] {
					hi.addSpan(m, max(s[0], held[1]+1), s[1])
				}
			}
			fp.addSpan(m, s[0], s[1])
		}
		return append(lo.Patches(bs, grid), hi.Patches(bs, grid)...)
	}
	if intakeCoverage(t, gapless) == nil {
		t.Fatal("an intake that leaves the gap between the held and the new span unfetched is not reported")
	}
}
