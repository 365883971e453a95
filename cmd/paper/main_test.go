package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gtfock/internal/dist"
	"gtfock/internal/screen"
)

// TestQuickAllPrintsEverything runs the whole regenerator on the
// scaled-down molecules: cmd/paper is the only caller of the table,
// figure, claim and ablation code (and of the ablation policies in
// core.SimOptions and reorder.Random), so this is what keeps it
// compiling against and running on the current APIs. A failing
// experiment exits the process through check, which fails the test.
func TestQuickAllPrintsEverything(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	newLab(dist.Lonestar(), screen.DefaultTau, true).all("")
	os.Stdout = stdout
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := "\n" + string(raw)

	want := []string{"Figure 1:", "Figure 2:", "Claims (", "Ablation: shell ordering", "Ablation: work stealing"}
	for _, n := range []string{"I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX"} {
		want = append(want, fmt.Sprintf("Table %s:", n))
	}
	for _, h := range want {
		if !strings.Contains(out, "\n"+h) {
			t.Errorf("output has no %q block", h)
		}
	}
	// The ablation numbers EXPERIMENTS.md records: C30H62 is in the quick
	// set, so they are the same in both modes.
	for _, line := range []string{
		"cell       15.9", "natural    29.1", "random     26.3",
		"row-wise  1.03", "none      1.33",
	} {
		if !strings.Contains(out, line) {
			t.Errorf("no ablation line %q", line)
		}
	}
	// The richest-victim policy is deleted (EXPERIMENTS.md "Ablations"
	// keeps its number), not hidden.
	if strings.Contains(out, "richest") {
		t.Error("output still has a richest-victim line")
	}
	if t.Failed() {
		t.Logf("output:%s", out)
	}
}
