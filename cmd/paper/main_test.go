package main

import (
	"io"
	"sync"
	"testing"

	"gtfock/internal/dist"
	"gtfock/internal/screen"
)

var (
	quickOnce   sync.Once
	quickTables []table
)

// quickAll returns the whole quick run's tables, computed once for the
// package's tests.
func quickAll() []table {
	quickOnce.Do(func() {
		quickTables = newLab(dist.Lonestar(), screen.DefaultTau, quickSet, quickCores).all("")
	})
	return quickTables
}

// TestQuickAllPrintsEverything runs the whole regenerator on the
// scaled-down molecules through the one printer: cmd/paper is the only
// caller of the table, figure, claim and ablation code (and of the
// ablation policies in core.SimOptions and reorder.Random), so this is
// what keeps it compiling against and running on the current APIs. A
// failing experiment exits the process through check, which fails the
// test. TestPaperShapes checks the values.
func TestQuickAllPrintsEverything(t *testing.T) {
	if err := render(io.Discard, quickAll()); err != nil {
		t.Fatal(err)
	}
}
