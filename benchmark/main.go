// Command benchmark is the one benchmark of the whole stack: five
// workloads from the ERI kernels up to an hfd job, end-to-end metrics a
// caller would see, and a traced pass that fills a per-layer ledger in
// the paper's vocabulary. BENCHMARK.json at the repository root names
// the workloads and metrics; README.md beside this file explains them.
//
//	benchmark --workload scf_sp --seed 0 --seconds 24 --trace 0   # one run, result JSON on the last line
//	benchmark -out set.json [-runs 10] [-seed 0] [-workload NAME] # a set: N seeds per workload + a traced pass
//	benchmark -compare A.json B.json                              # two sets, row by row
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// sizes are the inputs of the five workloads. The defaults are sized for
// many short samples whose count does not depend on the seed: a solve
// takes half a second on one worker and a 24 s run holds forty to sixty of
// them with some four hundred 50 ms Fock builds (a hundred 20 ms replay
// builds in seven solves on scf_replay, a few hundred jobs on serve_jobs).
// README.md, "Workloads", has the reasons; the smoke test swaps in
// CH4-sized ones.
type sizes struct {
	SP, D, Replay scfSpec
	ServeMix      []string // equal-thirds job mix, smallest to largest
}

var fullSizes = sizes{
	SP:       scfSpec{Mol: "alkane:3", Basis: "sto-3g", RefEnergy: -116.878829676865},
	D:        scfSpec{Mol: "CH4", Basis: "cc-pvdz", RefEnergy: -40.198710292482},
	Replay:   scfSpec{Mol: "alkane:6", Basis: "sto-3g", Cache: true, RefEnergy: -232.623507363494},
	ServeMix: []string{"H2", "CH4", "alkane:2"},
}

// workloads lists the five names in ledger order: kernel-bound first,
// service-bound last. BENCHMARK.json declares all but scf_net (README.md,
// "Workloads", says why); a set (-out) runs all five.
var workloads = []string{"scf_sp", "scf_d", "scf_replay", "scf_net", "serve_jobs"}

type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Prow x Pcol is the grid of every timed solve: one worker, so the
	// numbers do not hang on a second CPU being free at every instant.
	// The traced pass fills the parallel part of the ledger (Tables IV,
	// VI-VIII) from builds on WideProw x WidePcol.
	Prow, Pcol         int
	WideProw, WidePcol int
	// setup_s is taken over repeated set-ups: SetupReps before the first
	// timed call, and on the scf_* workloads as many after every solve.
	SetupReps int
	TmpDir    string // journals, checkpoints, registry: inside the checkout
	Sizes     sizes
}

// budget is the given share of the run's measuring time.
func (c runConfig) budget(share float64) time.Duration {
	return time.Duration(share * c.Seconds * float64(time.Second))
}

// result is what one run of one workload found.
type result struct {
	Attempted, Failed int
	Failures          []string
	Notes             []string // printed as comment lines ahead of the metrics
	E2E, Layer        map[string]float64
	Machine           machine // what the box did during the timed window
	tracer            *tracer
}

func newResult() *result {
	r := &result{E2E: map[string]float64{}, Layer: map[string]float64{}}
	for _, m := range perLayer {
		r.Layer[m.Name] = 0
	}
	return r
}

// check counts one verified operation; a miss is kept with its reason.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func runWorkload(cfg runConfig) (*result, error) {
	switch cfg.Workload {
	case "scf_sp":
		return runSCF(cfg, cfg.Sizes.SP)
	case "scf_d":
		return runSCF(cfg, cfg.Sizes.D)
	case "scf_replay":
		return runSCF(cfg, cfg.Sizes.Replay)
	case "scf_net":
		spec := cfg.Sizes.SP
		spec.Net = true
		return runSCF(cfg, spec)
	case "serve_jobs":
		return runServe(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.Workload, strings.Join(workloads, ", "))
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) line(trace bool) (resultLine, error) {
	defs, vals := endToEnd, r.E2E
	if trace {
		defs, vals = perLayer, r.Layer
	}
	out := resultLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s missing or not finite (%v)", d.Name, v)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
		seed     = flag.Int64("seed", 0, "input seed: 0 = pinned geometries with pinned energies, other = jittered geometries and shuffled job order")
		seconds  = flag.Float64("seconds", 24, "seconds one run measures")
		trace    = flag.Int("trace", 0, "1 = traced pass: per-layer metrics and benchmark/out/trace_<workload>.json")
		grid     = flag.String("grid", "1x1", "process grid RxC of the timed solves; refused when wider than nproc")
		wide     = flag.String("wide", "1x2", "process grid RxC of the traced pass's parallel ledger; refused when wider than nproc")
		out      = flag.String("out", "", "run a whole set (every workload, -runs seeds, one traced pass each) into this file")
		runs     = flag.Int("runs", 10, "untraced runs per workload in a set, on seeds seed..seed+runs-1")
		compare  = flag.Bool("compare", false, "compare two set files given as arguments")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two set files"))
		}
		fatal(compareSets(flag.Arg(0), flag.Arg(1), os.Stdout))
		return
	}

	// An oversubscribed grid measures the scheduler of the host, not of
	// core: refuse it instead of reporting a parallel efficiency.
	parseGrid := func(name, g string) (prow, pcol int) {
		if _, err := fmt.Sscanf(g, "%dx%d", &prow, &pcol); err != nil || prow < 1 || pcol < 1 {
			fatal(fmt.Errorf("bad -%s %q (want RxC)", name, g))
		}
		if prow*pcol > runtime.NumCPU() {
			fatal(fmt.Errorf("-%s %s needs %d CPUs, this machine has %d", name, g, prow*pcol, runtime.NumCPU()))
		}
		return prow, pcol
	}
	prow, pcol := parseGrid("grid", *grid)
	wideProw, widePcol := parseGrid("wide", *wide)

	if *out != "" {
		fatal(runSet(*out, *workload, *seed, *runs, *seconds, *grid, *wide))
		return
	}
	if *workload == "" {
		fatal(fmt.Errorf("give -workload NAME, -out FILE or -compare A B"))
	}

	// Everything a run writes stays under benchmark/out in the checkout.
	outDir := filepath.Join("benchmark", "out")
	fatal(os.MkdirAll(outDir, 0o755))
	tmp, err := os.MkdirTemp(outDir, "tmp-")
	fatal(err)
	cfg := runConfig{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace != 0,
		Prow: prow, Pcol: pcol, WideProw: wideProw, WidePcol: widePcol,
		SetupReps: 3, TmpDir: tmp, Sizes: fullSizes,
	}
	env := describeEnv(cfg.Seed, *grid, *wide, tmp)
	res, err := runWorkload(cfg)
	os.RemoveAll(tmp)
	fatal(err)
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "FAILED:", f)
	}
	if res.tracer != nil {
		fatal(res.tracer.writeFile(filepath.Join(outDir, "trace_"+cfg.Workload+".json"), env))
		for name, sec := range res.tracer.selfSeconds() {
			fmt.Printf("# trace self time %-18s %10.4f s\n", name, sec)
		}
	}
	for _, n := range res.Notes {
		fmt.Println("#", n)
	}
	line, err := res.line(cfg.Trace)
	fatal(err)
	printMetrics(env, cfg, line)
	ctx, err := json.Marshal(res.Machine)
	fatal(err)
	fmt.Printf("%s%s\n", machinePrefix, ctx)
	data, err := json.Marshal(line)
	fatal(err)
	fmt.Println(string(data))
	if res.Failed > 0 {
		os.Exit(1) // the result line above says correct:false; the exit code says it too
	}
}

// machinePrefix starts the line of a run's output that carries what the box
// did during the timed window; the result line itself may hold only metrics.
const machinePrefix = "# machine "

// printMetrics lists every metric by name with its unit, in declaration
// order, ahead of the machine-readable line.
func printMetrics(env environment, cfg runConfig, line resultLine) {
	e, _ := json.Marshal(env)
	fmt.Printf("# %s trace=%v env=%s\n", cfg.Workload, cfg.Trace, e)
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("%-40s %16.6g %s\n", d.Name, line.Metrics[d.Name].Value, d.Unit)
	}
}

// setFile is one complete set of runs of one commit: the input of -compare.
type setFile struct {
	Env        environment             `json:"env"`
	RunSeconds float64                 `json:"run_seconds"`
	Workloads  map[string]*workloadSet `json:"workloads"`
}

type workloadSet struct {
	Runs   []runRecord        `json:"runs"`   // untraced, one per seed
	Layers map[string]float64 `json:"layers"` // the traced pass on the first seed
}

type runRecord struct {
	Seed      int64              `json:"seed"`
	Machine   machine            `json:"machine"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// runSet runs each workload in fresh child processes — so rss_mb
// belongs to one workload and nothing warm carries over — and collects
// their result lines.
func runSet(path, only string, seed int64, runs int, seconds float64, grid, wide string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := workloads
	if only != "" {
		names = []string{only}
	}
	set := setFile{Env: describeEnv(seed, grid, wide, "."), RunSeconds: seconds, Workloads: map[string]*workloadSet{}}
	failed := 0
	child := func(name string, seed int64, trace int) (resultLine, machine, error) {
		var box machine
		cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-grid", grid, "-wide", wide)
		cmd.Stderr = os.Stderr
		data, err := cmd.Output()
		if err != nil {
			return resultLine{}, box, fmt.Errorf("%s seed %d: %w", name, seed, err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		var line resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			return line, box, fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
		}
		for _, l := range lines {
			if rest, ok := strings.CutPrefix(l, machinePrefix); ok {
				if err := json.Unmarshal([]byte(rest), &box); err != nil {
					return line, box, fmt.Errorf("%s seed %d: machine line: %w", name, seed, err)
				}
			}
		}
		failed += line.Failed
		return line, box, nil
	}
	values := func(line resultLine) map[string]float64 {
		m := map[string]float64{}
		for k, v := range line.Metrics {
			m[k] = v.Value
		}
		return m
	}
	for _, name := range names {
		ws := &workloadSet{}
		set.Workloads[name] = ws
		for r := 0; r < runs; r++ {
			line, box, err := child(name, seed+int64(r), 0)
			if err != nil {
				return err
			}
			ws.Runs = append(ws.Runs, runRecord{Seed: seed + int64(r), Machine: box, Attempted: line.Attempted, Failed: line.Failed, Metrics: values(line)})
			fmt.Printf("%-11s seed %-3d %ssteal=%.3f probe=%.1fus\n", name, seed+int64(r), oneLine(values(line), endToEnd), box.StealFrac, box.CPUProbeUS)
		}
		line, _, err := child(name, seed, 1)
		if err != nil {
			return err
		}
		ws.Layers = values(line)
		for _, d := range perLayer {
			fmt.Printf("  %-40s %16.6g %s\n", d.Name, ws.Layers[d.Name], d.Unit)
		}
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed their correctness check", failed)
	}
	return nil
}

func oneLine(m map[string]float64, defs []metricDef) string {
	var b strings.Builder
	for _, d := range defs {
		fmt.Fprintf(&b, "%s=%.4g ", d.Name, m[d.Name])
	}
	return b.String()
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
