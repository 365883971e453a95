package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// smokeSizes are CH4-sized inputs: every code path of the benchmark in a
// few seconds, no claim about the numbers.
var smokeSizes = sizes{
	SP:       scfSpec{Mol: "CH4", Basis: "sto-3g"},
	D:        scfSpec{Mol: "CH4", Basis: "cc-pvdz", RefEnergy: -40.198710292482},
	Replay:   scfSpec{Mol: "CH4", Basis: "sto-3g", Cache: true},
	ServeMix: []string{"H2", "CH4", "CH4"},
}

// TestSmoke runs all five workloads, untraced and traced, and holds the
// benchmark to its manifest: every workload BENCHMARK.json declares is one
// the benchmark runs, every metric it names is emitted for every workload,
// under a well-formed name, with a finite value, and no correctness check
// fails. An internal-API
// refactor that breaks the benchmark fails here, in tier-1.
func TestSmoke(t *testing.T) {
	man, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json declares %d workloads", len(man.Workloads))
	}
	for _, w := range man.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Fatalf("BENCHMARK.json declares workload %s, the benchmark runs %v", w.Name, workloads)
		}
	}

	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for _, name := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{
				Workload: name, Seed: 0, Seconds: 0.2, Trace: trace,
				Prow: 1, Pcol: 1, WideProw: 1, WidePcol: 1, SetupReps: 1, TmpDir: t.TempDir(), Sizes: smokeSizes,
			}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d checks failed: %v", name, trace, res.Failed, res.Attempted, res.Failures)
			}
			line, err := res.line(trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			var want []metricDef
			if trace {
				want = man.PerLayer
				if res.tracer == nil || len(res.tracer.spans) == 0 {
					t.Errorf("%s: traced pass recorded no spans", name)
				}
			} else {
				for _, m := range man.EndToEnd {
					want = append(want, m.metricDef)
				}
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, manifest names %d", name, trace, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, manifest says %q", name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s is %v", name, m.Name, got.Value)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", name, m.Name, got.Value)
				case !wellFormed.MatchString(m.Name):
					t.Errorf("metric name %q is malformed", m.Name)
				}
			}
		}
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(v, n=4), which the acceptance check uses.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestVerdict covers the three outcomes of a -compare row.
func TestVerdict(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(v []float64, f float64) (out []float64) {
		for _, x := range v {
			out = append(out, x*f)
		}
		return out
	}
	noisy := []float64{0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1}
	for _, c := range []struct {
		a, b   []float64
		better string
		want   string
	}{
		{steady, scale(steady, 1.05), "lower", "within"},
		{steady, scale(steady, 1.20), "lower", "worse"},
		{steady, scale(steady, 1.20), "higher", "within"},
		{steady, scale(steady, 0.80), "higher", "worse"},
		{steady, noisy, "lower", "unresolved"},
	} {
		if _, got := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("verdict(better=%s) = %s, want %s", c.better, got, c.want)
		}
	}
}

// TestCompareSets drives -compare end to end on two written set files.
func TestCompareSets(t *testing.T) {
	dir := t.TempDir()
	// write makes a set file whose every value is factor; gap names what to
	// leave out of (or, for slowbox, skew in) its last workload.
	write := func(name string, factor float64, gap string) string {
		set := setFile{Workloads: map[string]*workloadSet{}}
		for _, w := range workloads {
			ws := &workloadSet{}
			for i := 0; i < 10; i++ {
				m := map[string]float64{}
				for _, d := range endToEnd {
					m[d.Name] = (1 + 0.001*float64(i)) * factor
				}
				ws.Runs = append(ws.Runs, runRecord{Seed: int64(i), Machine: machine{CPUProbeUS: 150}, Metrics: m})
			}
			set.Workloads[w] = ws
		}
		last := set.Workloads[workloads[len(workloads)-1]]
		switch gap {
		case "workload":
			delete(set.Workloads, workloads[len(workloads)-1])
		case "metric":
			delete(last.Runs[3].Metrics, endToEnd[1].Name)
		case "runs":
			last.Runs = nil
		case "slowbox":
			for i := range last.Runs {
				last.Runs[i].Machine.CPUProbeUS *= 1.3
			}
		}
		path := filepath.Join(dir, name)
		data, _ := json.Marshal(set)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slower := write("a.json", 1, ""), write("b.json", 1.01, ""), write("c.json", 2, "")
	// compareSets reads the manifest from the working directory.
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir("benchmark")
	var buf bytes.Buffer
	if err := compareSets(a, same, &buf); err != nil {
		t.Errorf("equal sets: %v\n%s", err, buf.String())
	}
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if rows, want := strings.Count(buf.String(), "within"), len(man.Workloads)*len(endToEnd); rows != want {
		t.Errorf("%d rows within, want %d:\n%s", rows, want, buf.String())
	}
	buf.Reset()
	if err := compareSets(a, slower, &buf); err == nil || !strings.Contains(buf.String(), "worse") {
		t.Errorf("a twice-slower set passed: %v\n%s", err, buf.String())
	}
	// A set that lost a workload, a metric or its runs must not pass.
	for _, gap := range []string{"workload", "metric", "runs"} {
		if err := compareSets(a, write("gap-"+gap+".json", 1, gap), io.Discard); err == nil {
			t.Errorf("a set without a %s passed", gap)
		}
	}
	// Nor may timings pass when the box itself ran 30 % slower.
	buf.Reset()
	if err := compareSets(a, write("slowbox.json", 1, "slowbox"), &buf); err == nil || !strings.Contains(buf.String(), "unresolved") {
		t.Errorf("a set from a slower box passed: %v\n%s", err, buf.String())
	}
}
