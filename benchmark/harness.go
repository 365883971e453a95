package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// timed runs f and returns how long it took, in wall-clock seconds. Every
// duration the benchmark reports is raw wall time; what the machine did
// meanwhile is recorded beside it (see window), never subtracted.
func timed(f func()) float64 {
	t := time.Now()
	f()
	return time.Since(t).Seconds()
}

// window watches the machine over the timed part of a run, so a reader of
// the numbers can tell a slow program from a slow box: the share of CPU
// time the hypervisor took (steal in /proc/stat), and the time a fixed
// floating-point loop of the benchmark's own takes. The loop runs only
// between timed intervals, never inside one: twice as the window opens,
// twice as it closes, and wherever the workload calls probe in between.
type window struct {
	start  time.Time
	steal  int64 // summed over CPUs, in USER_HZ ticks
	ncpu   int
	probes []float64 // seconds per probe loop
}

// userHZ is the kernel's tick unit in /proc/stat (100 on every Linux ABI).
const userHZ = 100

func openWindow() *window {
	w := &window{start: time.Now()}
	w.steal, w.ncpu = readSteal()
	w.probe()
	w.probe()
	return w
}

// readSteal sums the per-CPU steal counters; zero CPUs where /proc/stat
// is missing.
func readSteal() (ticks int64, ncpu int) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "cpu") || strings.HasPrefix(line, "cpu ") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 9 {
			continue
		}
		if v, err := strconv.ParseInt(f[8], 10, 64); err == nil {
			ticks += v
			ncpu++
		}
	}
	return ticks, ncpu
}

var probeSink float64

// probe times the fixed work, 256k dependent multiply-adds on an
// L1-resident array, and keeps the fastest of three so a loop the
// scheduler interrupted does not count.
func (w *window) probe() {
	best := math.Inf(1)
	for k := 0; k < 3; k++ {
		var a [64]float64
		for i := range a {
			a[i] = 1 + float64(i)*1e-3
		}
		t := time.Now()
		s := 0.0
		for r := 0; r < 4000; r++ {
			for i := range a {
				s += a[i] * 1.0000001
				a[i] = a[i]*0.999999 + 1e-6
			}
		}
		probeSink = s
		best = math.Min(best, time.Since(t).Seconds())
	}
	w.probes = append(w.probes, best)
}

// machine is the recorded context of one run.
type machine struct {
	StealFrac   float64 `json:"steal_frac"`   // share of all CPU time stolen during the window
	CPUProbeUS  float64 `json:"cpu_probe_us"` // fastest probe loop: the speed of the box when nothing disturbs it
	CPUSlowdown float64 `json:"cpu_slowdown"` // slowest probe / fastest probe of the run
}

func (w *window) close() machine {
	w.probe()
	w.probe()
	m := machine{CPUProbeUS: fastest(w.probes) * 1e6}
	lo, hi := w.probes[0], w.probes[0]
	for _, p := range w.probes {
		lo, hi = math.Min(lo, p), math.Max(hi, p)
	}
	m.CPUSlowdown = hi / lo
	if now, ncpu := readSteal(); ncpu > 0 && ncpu == w.ncpu {
		m.StealFrac = float64(now-w.steal) / userHZ / (time.Since(w.start).Seconds() * float64(ncpu))
	}
	return m
}

func (m machine) ledger(L map[string]float64) {
	L["harness.steal_frac"] = m.StealFrac
	L["harness.cpu_probe_us"] = m.CPUProbeUS
	L["harness.cpu_slowdown"] = m.CPUSlowdown
}

// median returns the middle value (mean of the middle two); 0 for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// fastest is the statistic behind every reported timing: the smallest of
// the run's samples. The benchmark shares its host, and what the
// neighbours do only ever adds time to a sample, for milliseconds or for
// minutes at a stretch, to a share of the samples that changes from run
// to run; a median or a quartile wanders with that share, the floor of
// the distribution does not, and a timing has no lucky outliers below the
// work it stands for. The traced pass reports the median and the tail of
// the same samples beside it (scf.wall_p50_s, scf.fock_build_p50_s, the
// _hi_ metrics).
func fastest(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := v[0]
	for _, x := range v {
		m = math.Min(m, x)
	}
	return m
}

// fastestSum adds up, position by position, the fastest sample at each
// position over several runs of one sequence of steps: the duration of a
// run whose every step went undisturbed. A step lasts a small fraction of
// the sequence, and a quiet stretch has to be as long as the sample that
// is to fall into it. A run shorter than the last one contributes to the
// positions it has.
func fastestSum(runs [][]float64) float64 {
	if len(runs) == 0 {
		return 0
	}
	var total float64
	for k := range runs[len(runs)-1] {
		var at []float64
		for _, r := range runs {
			if k < len(r) {
				at = append(at, r[k])
			}
		}
		total += fastest(at)
	}
	return total
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

// quartiles matches Python's statistics.quantiles(v, n=4), the rule the
// acceptance check uses for spreads.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// tail returns the highest percentile of v that still has at least ten
// samples beyond it, with that percentile; with fewer than eleven
// samples there is no such percentile and the maximum stands in (pct 100).
func tail(v []float64) (value, pct float64) {
	if len(v) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 11 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// span is one traced call into a layer. Spans of one SCF or job share
// Trace; Parent is the ID of the span that caused this one (0 = root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Trace   string `json:"trace"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the tracer's origin
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced pass runs the same code.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(trace string, parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		StartNS: start.Sub(t.origin).Nanoseconds(), EndNS: end.Sub(t.origin).Nanoseconds(),
	})
	return id
}

// open reserves a span whose end is filled in by close.
func (t *tracer) open(trace string, parent int, name string) int {
	now := time.Now()
	return t.add(trace, parent, name, now, now)
}

func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].EndNS = time.Since(t.origin).Nanoseconds()
	t.mu.Unlock()
}

// selfSeconds sums, per span name, duration minus the part covered by
// child spans — the layer ledger of the trace.
func (t *tracer) selfSeconds() map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.EndNS - s.StartNS
	}
	for _, s := range t.spans {
		out[s.Name] += float64(s.EndNS-s.StartNS-child[s.ID]) / 1e9
	}
	return out
}

func (t *tracer) writeFile(path string, env environment) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Env   environment `json:"env"`
		Spans []span      `json:"spans"`
	}{env, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// environment is written into every output file so a number can never be
// read without the machine it came from.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Grid       string `json:"grid"`      // of the timed solves
	WideGrid   string `json:"wide_grid"` // of the traced pass's parallel ledger
	TmpFS      string `json:"tmp_fs"`    // filesystem holding journals and checkpoints
}

func describeEnv(seed int64, grid, wide, tmpDir string) environment {
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", Seed: seed,
		Grid: grid, WideGrid: wide, TmpFS: fsType(tmpDir),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// fsType names the filesystem under dir: fsync cost is a property of it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// statusMB reads one memory field of /proc/self/status in MB: VmRSS is the
// resident set now, VmHWM its high-water mark.
func statusMB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
