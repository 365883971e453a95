// Command loadgen drives an hfd daemon with a configurable open/closed
// mix of small-molecule SCF jobs — many tenants, priority and deadline
// distributions, optional bursts far beyond the daemon's admission
// capacity — and grades what comes back: accepted jobs must all reach an
// explicit terminal state (zero losses), energies must match solo
// in-process references, rejections must be fast, and the latency
// percentiles and goodput are printed as one JSON report (also written to
// -out when given). It is the open-loop overload driver; performance
// numbers anything gates on come from benchmark/ (workload serve_jobs).
//
//	hfd -listen 127.0.0.1:8680 -capacity 2 -max-queue 8 &
//	loadgen -addr 127.0.0.1:8680 -jobs 200 -concurrency 32 \
//	        -tenants teamA:3,teamB:1 -molecules CH4,NH3 -deadline-frac 0.3
//
// Against an HA deployment, -addr takes a comma-separated endpoint
// list: each request starts at the job's home endpoint and fails over
// with jittered retries to the others on connection errors, drains and
// overload rejections; event streams follow 307 owner redirects and
// re-attach across peer death and job adoption. The report carries
// per-endpoint submission counts and retries_total.
//
// Exit status is nonzero when an SLO verdict fails, so CI can gate on
// overload behavior the same way it gates on correctness.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gtfock/internal/chem"
	"gtfock/internal/dist"
	"gtfock/internal/scf"
	"gtfock/internal/serve"
)

type outcome struct {
	spec      serve.JobSpec
	accepted  bool
	rejectMs  float64 // submission latency of a rejection
	latencyMs float64 // submit -> terminal, accepted jobs
	state     string
	energy    float64
	converged bool
	retries   int
	err       string
}

type report struct {
	Jobs        int     `json:"jobs"`
	Accepted    int     `json:"accepted"`
	Rejected    int     `json:"rejected"`
	Completed   int     `json:"completed"`
	Canceled    int     `json:"canceled"`
	Shed        int     `json:"shed"`
	Parked      int     `json:"parked"`
	Failed      int     `json:"failed"`
	Lost        int     `json:"lost"` // accepted but no explicit terminal state
	GoodputPct  float64 `json:"goodput_pct"`
	ShedRatePct float64 `json:"shed_rate_pct"`
	P50Ms       float64 `json:"latency_p50_ms"`
	P99Ms       float64 `json:"latency_p99_ms"`
	RejectP99Ms float64 `json:"reject_p99_ms"`
	EnergyMaxEr float64 `json:"energy_max_err"`
	EnergyJobs  int     `json:"energy_checked_jobs"`
	WallSeconds float64 `json:"wall_seconds"`

	// EndpointSubmits counts accepted submissions per endpoint;
	// RetriesTotal counts every client-side failover retry (submit and
	// stream re-attach) across all endpoints.
	EndpointSubmits map[string]int64 `json:"endpoint_submits,omitempty"`
	RetriesTotal    int64            `json:"retries_total"`

	SLO map[string]bool `json:"slo"`
	OK  bool            `json:"ok"`
}

// endpoints is the client-side view of an HA deployment: one or more
// hfd addresses, per-endpoint submission counters and a global retry
// counter, shared by all submitter goroutines.
type endpoints struct {
	bases   []string // "http://host:port"
	submits []atomic.Int64
	retries atomic.Int64
}

func newEndpoints(addrs string) *endpoints {
	var e endpoints
	for _, a := range strings.Split(addrs, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		if !strings.HasPrefix(a, "http://") {
			a = "http://" + a
		}
		e.bases = append(e.bases, a)
	}
	e.submits = make([]atomic.Int64, len(e.bases))
	return &e
}

// retrySleep is the jittered backoff between failover attempts, so N
// clients retrying a dead peer do not stampede the survivors in phase.
func retrySleep() { dist.SleepBackoff(context.Background(), 60*time.Millisecond) }

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:8680", "hfd address, or comma-separated HA endpoint list")
		njobs   = flag.Int("jobs", 100, "total jobs to submit")
		conc    = flag.Int("concurrency", 16, "concurrent submitters")
		tenants = flag.String("tenants", "teamA:3,teamB:1", "tenant traffic weights name:w,...")
		mols    = flag.String("molecules", "CH4", "comma-separated molecule mix (chem.ParseSpec strings)")
		bname   = flag.String("basis", "sto-3g", "basis set for every job")
		maxIter = flag.Int("max-iter", 30, "SCF iteration cap per job")

		deadlineFrac = flag.Float64("deadline-frac", 0, "fraction of jobs submitted with a deadline")
		deadlineMs   = flag.Int64("deadline-ms", 10000, "deadline for deadline-carrying jobs")
		priorities   = flag.Int("priorities", 2, "priority levels drawn uniformly [0, n)")
		seed         = flag.Int64("seed", 1, "traffic RNG seed")

		verify = flag.Bool("verify", true, "check energies against solo in-process references")
		tol    = flag.Float64("tol", 1e-9, "energy agreement tolerance vs the solo reference")

		sloP99Ms    = flag.Float64("slo-p99-ms", 0, "accepted-job p99 latency SLO (0 = don't grade)")
		sloRejectMs = flag.Float64("slo-reject-ms", 100, "rejection latency SLO")
		jobTimeout  = flag.Duration("job-timeout", 5*time.Minute, "per-job cap on stream-following and failover retries")
		out         = flag.String("out", "", "also write the JSON report to this file")
	)
	flag.Parse()

	tenantNames, tenantWeights := parseWeights(*tenants)
	molList := strings.Split(*mols, ",")

	// Solo references, one per distinct molecule: the same SCF options
	// run in-process, no service, no fleet — the energy every accepted
	// job must reproduce.
	refs := map[string]float64{}
	if *verify {
		for _, m := range molList {
			mol, err := chem.ParseSpec(m)
			fatalIf(err)
			res, err := scf.RunHF(mol, scf.Options{BasisName: *bname, MaxIter: *maxIter})
			fatalIf(err)
			if !res.Converged {
				fatalIf(fmt.Errorf("reference %s did not converge", m))
			}
			refs[m] = res.Energy
		}
	}

	rng := rand.New(rand.NewSource(*seed))
	specs := make([]serve.JobSpec, *njobs)
	for i := range specs {
		specs[i] = serve.JobSpec{
			Tenant:   tenantNames[pickWeighted(rng, tenantWeights)],
			Priority: rng.Intn(max(1, *priorities)),
			Molecule: molList[rng.Intn(len(molList))],
			Basis:    *bname,
			MaxIter:  *maxIter,
		}
		if rng.Float64() < *deadlineFrac {
			specs[i].DeadlineMs = *deadlineMs
		}
	}

	eps := newEndpoints(*addr)
	if len(eps.bases) == 0 {
		fatalIf(fmt.Errorf("no endpoints in -addr %q", *addr))
	}
	outcomes := make([]outcome, *njobs)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= *njobs {
					return
				}
				outcomes[i] = driveJob(eps, i%len(eps.bases), specs[i], *jobTimeout)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	rep := grade(outcomes, refs, *tol, *sloP99Ms, *sloRejectMs)
	rep.WallSeconds = wall.Seconds()
	rep.RetriesTotal = eps.retries.Load()
	rep.EndpointSubmits = map[string]int64{}
	for i, b := range eps.bases {
		rep.EndpointSubmits[strings.TrimPrefix(b, "http://")] = eps.submits[i].Load()
	}
	blob, _ := json.MarshalIndent(rep, "", "  ")
	fmt.Println(string(blob))
	if *out != "" {
		fatalIf(os.WriteFile(*out, append(blob, '\n'), 0o644))
	}
	if !rep.OK {
		os.Exit(1)
	}
}

// driveJob submits one job — failing over across endpoints — and
// follows its event stream to a terminal state, re-attaching (through
// 307 owner redirects) when the stream breaks because the owning peer
// died and the job was adopted elsewhere.
func driveJob(eps *endpoints, home int, spec serve.JobSpec, timeout time.Duration) outcome {
	o := outcome{spec: spec}
	body, _ := json.Marshal(spec)
	deadline := time.Now().Add(timeout)
	n := len(eps.bases)

	// Submit with per-request failover: a connection error, a draining
	// 503 or an overload rejection moves to the next endpoint after a
	// jittered backoff. Only when every endpoint refused is the job
	// counted rejected.
	var id string
	t0 := time.Now()
	var lastReject string
	for attempt := 0; id == ""; attempt++ {
		if attempt >= 3*n || !time.Now().Before(deadline) {
			o.state = "rejected"
			o.rejectMs = float64(time.Since(t0).Nanoseconds()) / 1e6
			o.err = lastReject
			return o
		}
		ep := (home + attempt) % n
		if attempt > 0 {
			eps.retries.Add(1)
			retrySleep()
		}
		resp, err := http.Post(eps.bases[ep]+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			lastReject = err.Error()
			continue
		}
		var idBody struct {
			ID    string `json:"id"`
			Error string `json:"error"`
			Cause string `json:"cause"`
		}
		json.NewDecoder(resp.Body).Decode(&idBody)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusAccepted:
			id = idBody.ID
			eps.submits[ep].Add(1)
			home = ep // stream from the endpoint that accepted
		case resp.StatusCode == http.StatusServiceUnavailable:
			lastReject = idBody.Error
		default:
			o.state = "error"
			o.err = fmt.Sprintf("submit: HTTP %d: %s", resp.StatusCode, idBody.Error)
			return o
		}
	}
	o.accepted = true

	// Follow the NDJSON event stream to a terminal event. A broken
	// stream or dead endpoint rotates to the next one; the API there
	// answers 307 with the current owner (followed transparently) or
	// 503 while the adoption is in flight. Terminal events that only
	// reflect the dying owner's teardown are retriable: the adopter
	// will finish the job.
	terminal := ""
	for ep := home; terminal == "" && time.Now().Before(deadline); {
		resp, err := http.Get(eps.bases[ep%n] + "/v1/jobs/" + id + "/events")
		if err != nil || resp.StatusCode != http.StatusOK {
			if resp != nil {
				resp.Body.Close()
			}
			eps.retries.Add(1)
			retrySleep()
			ep++
			continue
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() && terminal == "" {
			var ev struct {
				Type string `json:"type"`
				Msg  string `json:"msg"`
			}
			if json.Unmarshal(sc.Bytes(), &ev) != nil {
				continue
			}
			switch ev.Type {
			case "done", "failed", "canceled", "shed":
				if ev.Type != "done" &&
					(strings.Contains(ev.Msg, "lease lost") || strings.Contains(ev.Msg, "peer killed")) {
					continue
				}
				terminal = ev.Type
			}
		}
		resp.Body.Close()
		if terminal == "" {
			eps.retries.Add(1)
			retrySleep()
			ep++
		}
	}

	// Terminal status, with the same failover: any peer redirects to
	// the owner, and a finished job's outcome survives in the registry.
	var status serve.Status
	got := false
	for attempt := 0; attempt < 3*n && !got; attempt++ {
		st, err := http.Get(eps.bases[(home+attempt)%n] + "/v1/jobs/" + id)
		if err != nil || st.StatusCode != http.StatusOK {
			if st != nil {
				st.Body.Close()
			}
			eps.retries.Add(1)
			retrySleep()
			continue
		}
		got = json.NewDecoder(st.Body).Decode(&status) == nil
		st.Body.Close()
	}
	if !got {
		o.err = "status: no endpoint answered"
		return o
	}
	o.latencyMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	o.state = status.State
	o.retries = status.Retries
	o.err = status.Error
	if status.Result != nil {
		o.energy = status.Result.Energy
		o.converged = status.Result.Converged
	}
	return o
}

func grade(outcomes []outcome, refs map[string]float64, tol, sloP99, sloReject float64) report {
	rep := report{Jobs: len(outcomes), SLO: map[string]bool{}}
	var lat, rej []float64
	for _, o := range outcomes {
		switch {
		case o.accepted:
			rep.Accepted++
			lat = append(lat, o.latencyMs)
		case o.state == "rejected":
			rep.Rejected++
			rej = append(rej, o.rejectMs)
		}
		switch o.state {
		case "done":
			rep.Completed++
		case "canceled":
			rep.Canceled++
		case "shed":
			rep.Shed++
		case "parked":
			rep.Parked++
		case "failed":
			rep.Failed++
		default:
			if o.accepted {
				rep.Lost++
			}
		}
		if o.state == "done" {
			if ref, ok := refs[o.spec.Molecule]; ok {
				rep.EnergyJobs++
				if d := abs(o.energy - ref); d > rep.EnergyMaxEr {
					rep.EnergyMaxEr = d
				}
			}
		}
	}
	if rep.Accepted > 0 {
		rep.GoodputPct = 100 * float64(rep.Completed) / float64(rep.Accepted)
	}
	rep.ShedRatePct = 100 * float64(rep.Shed+rep.Rejected) / float64(rep.Jobs)
	rep.P50Ms, rep.P99Ms = pct(lat, 0.50), pct(lat, 0.99)
	rep.RejectP99Ms = pct(rej, 0.99)

	rep.SLO["zero_accepted_losses"] = rep.Lost == 0
	rep.SLO["energy_within_tol"] = rep.EnergyJobs == 0 || rep.EnergyMaxEr <= tol
	rep.SLO["rejects_fast"] = len(rej) == 0 || rep.RejectP99Ms <= sloReject
	if sloP99 > 0 {
		rep.SLO["latency_p99"] = len(lat) == 0 || rep.P99Ms <= sloP99
	}
	rep.OK = true
	for _, ok := range rep.SLO {
		rep.OK = rep.OK && ok
	}
	return rep
}

func pct(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(q * float64(len(s)-1))
	return s[i]
}

func parseWeights(s string) ([]string, []float64) {
	var names []string
	var weights []float64
	for _, ent := range strings.Split(s, ",") {
		name, wstr, ok := strings.Cut(ent, ":")
		w := 1.0
		if ok {
			var err error
			w, err = strconv.ParseFloat(wstr, 64)
			fatalIf(err)
		}
		names = append(names, name)
		weights = append(weights, w)
	}
	return names, weights
}

func pickWeighted(rng *rand.Rand, w []float64) int {
	var total float64
	for _, x := range w {
		total += x
	}
	r := rng.Float64() * total
	for i, x := range w {
		if r < x {
			return i
		}
		r -= x
	}
	return len(w) - 1
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}
