package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"gtfock/internal/core"
	"gtfock/internal/dist"
	"gtfock/internal/metrics"
	netga "gtfock/internal/net"
	"gtfock/internal/scf"
	"gtfock/internal/serve"
)

// serveCapacity is the number of jobs the service runs at once. The closed
// loop has one client, which waits for its job's terminal event before it
// submits the next, as a caller who needs the energy does; so a 503 is a
// failure, and what is timed is the service, not a queue in front of it.
const serveCapacity = 1

// service is cmd/hfd's composition in process: two multi-session shards,
// a FleetRunner on a 1x1 grid per job, a Peer whose registry is opened
// durably (fsync per record) behind its HTTP API, and the job API on a
// real loopback listener.
type service struct {
	base   string // job API URL
	shards []*netga.MultiServer
	reg    *serve.Registry
	peer   *serve.Peer
	https  []*http.Server
	rpc    *metrics.RPC
	sm     *metrics.Serve

	mu     sync.Mutex
	builds map[int][]float64 // seconds per Fock build of every job, by the job's basis size
	tr     *tracer
}

func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln) // returns when stop shuts hs down
	return hs, ln.Addr().String(), nil
}

func startService(dir string, tr *tracer) (*service, error) {
	s := &service{rpc: &metrics.RPC{}, sm: metrics.NewServe(), tr: tr, builds: map[int][]float64{}}
	ok := false
	defer func() {
		if !ok {
			s.stop()
		}
	}()
	var addrs []string
	for i := 0; i < 2; i++ {
		ms, err := netga.NewMultiServer(2, i, 256, 512<<20)
		if err != nil {
			return nil, err
		}
		addr, err := ms.Start("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, ms)
		addrs = append(addrs, addr)
	}
	ckptDir, err := os.MkdirTemp(dir, "ckpt-")
	if err != nil {
		return nil, err
	}
	regDir, err := os.MkdirTemp(dir, "registry-")
	if err != nil {
		return nil, err
	}
	runner := serve.NewFleetRunner(addrs, ckptDir)
	runner.Prow, runner.Pcol = 1, 1
	runner.RPC, runner.Serve = s.rpc, s.sm
	// The only window onto a job's Fock builds from outside: the backend
	// factory runs as a build starts and its cleanup as the build ends.
	runner.TuneCore = func(o *core.Options) {
		inner := o.Backend
		o.Backend = func(grid *dist.Grid2D, stats *dist.RunStats) (dist.Backend, dist.Backend, func(), error) {
			t := time.Now()
			d, f, cleanup, err := inner(grid, stats)
			return d, f, func() {
				if cleanup != nil {
					cleanup()
				}
				end := time.Now()
				s.mu.Lock()
				s.builds[grid.Rows] = append(s.builds[grid.Rows], end.Sub(t).Seconds())
				s.mu.Unlock()
				s.tr.add("fleet", 0, "core.Build", t, end)
			}, err
		}
	}

	if s.reg, err = serve.OpenRegistry(regDir, serve.RegistryConfig{Metrics: s.sm}); err != nil {
		return nil, err
	}
	rhs, regAddr, err := listen((&serve.RegistryAPI{Reg: s.reg}).Handler())
	if err != nil {
		return nil, err
	}
	s.https = append(s.https, rhs)

	// The job API's address is the peer's identity, so bind first.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	apiAddr := ln.Addr().String()
	s.peer, err = serve.NewPeer(serve.PeerConfig{
		ID: apiAddr, Addr: apiAddr,
		Registry:      serve.NewRegistryClient(regAddr, 0),
		CheckpointDir: ckptDir,
		Server:        serve.Config{Capacity: serveCapacity, Runner: runner, Metrics: s.sm},
	})
	if err != nil {
		ln.Close()
		return nil, err
	}
	api := &serve.API{Server: s.peer.Server(), RPC: s.rpc, Peer: s.peer}
	hs := &http.Server{Handler: api.Handler()}
	go hs.Serve(ln)
	s.https = append(s.https, hs)
	s.base = "http://" + apiAddr

	// Ready once the peer has synced with the registry.
	for deadline := time.Now().Add(5 * time.Second); ; {
		resp, err := http.Get(s.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("service not ready within 5s: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	ok = true
	return s, nil
}

// stop tears the service down, waiting first for the terminal records of
// finished jobs to land in the registry (the peer writes them after the
// client has already seen `done`).
func (s *service) stop() {
	if s.reg != nil {
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
			active := 0
			for _, rec := range s.reg.List() {
				if !rec.Terminal() {
					active++
				}
			}
			if active == 0 {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if s.peer != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		s.peer.Drain(ctx)
		cancel()
		s.peer.Close()
	}
	for _, hs := range s.https {
		hs.Close()
	}
	for _, ms := range s.shards {
		ms.Close()
	}
	if s.reg != nil {
		s.reg.Close()
	}
}

// jobOutcome is what one client saw of one job.
type jobOutcome struct {
	mol              string
	ok               bool
	err              string
	energy           float64
	latency          float64   // POST sent -> terminal event read, seconds
	steps            []float64 // the same latency, cut at the service's event timestamps
	submit           float64   // POST round trip, seconds
	queueWait, runMs float64   // from the service's own event timestamps
	events           int
	rssMB            float64 // the process's resident set when the job ended
}

// driveJob submits one job and follows its NDJSON event stream to the
// terminal event.
func (s *service) driveJob(spec serve.JobSpec, traceID string) jobOutcome {
	o := jobOutcome{mol: spec.Molecule}
	body, _ := json.Marshal(spec)
	root := s.tr.open(traceID, 0, "job")
	defer s.tr.close(root)
	t := time.Now()
	sub := s.tr.open(traceID, root, "serve.submit")
	resp, err := http.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	s.tr.close(sub)
	if err != nil {
		o.err = err.Error()
		return o
	}
	var accepted struct{ ID, Error string }
	json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	o.submit = time.Since(t).Seconds()
	if resp.StatusCode != http.StatusAccepted {
		o.err = fmt.Sprintf("submit: HTTP %d: %s", resp.StatusCode, accepted.Error)
		return o
	}
	stream, err := http.Get(s.base + "/v1/jobs/" + accepted.ID + "/events")
	if err != nil {
		o.err = err.Error()
		return o
	}
	defer stream.Body.Close()
	// The job's latency cut into steps: POST sent -> queued -> running ->
	// each iteration -> terminal event emitted -> terminal event read.
	var queued, running, last int64
	mark := t.UnixNano()
	step := func(now int64) {
		o.steps = append(o.steps, float64(now-mark)/1e9)
		mark = now
	}
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		var ev serve.Event
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue
		}
		o.events++
		switch ev.Type {
		case "queued":
			queued = ev.Time
			step(ev.Time)
		case "running":
			running = ev.Time
			step(ev.Time)
			s.tr.add(traceID, root, "serve.queue_wait", time.Unix(0, queued), time.Unix(0, running))
			last = running
		case "iteration":
			step(ev.Time)
			s.tr.add(traceID, root, "serve.iteration", time.Unix(0, last), time.Unix(0, ev.Time))
			last = ev.Time
		case "done", "failed", "canceled", "shed":
			end := time.Now()
			step(ev.Time)
			step(end.UnixNano())
			o.latency = end.Sub(t).Seconds()
			o.queueWait = float64(running-queued) / 1e6
			o.runMs = float64(ev.Time-running) / 1e6
			o.ok, o.energy, o.err = ev.Type == "done", ev.Energy, ev.Msg
			return o
		}
	}
	o.err = "event stream ended without a terminal event"
	return o
}

// runServe is the serve_jobs workload.
func runServe(cfg runConfig) (*result, error) {
	out := newResult()
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	out.tracer = tr

	// Set-up: bring the whole service up until /readyz answers, several
	// times; the last instance serves the load. A start waits for the
	// peer's first registry heartbeat, so most of it is a timer.
	var svc *service
	var setups []float64
	for len(setups) < cfg.SetupReps {
		if svc != nil {
			svc.stop()
		}
		t := time.Now()
		var err error
		if svc, err = startService(cfg.TmpDir, tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer svc.stop()
	out.E2E["setup_s"] = fastest(setups)

	// Solo references: the same spec through scf.RunHF in process with the
	// service's defaults (grid 1x1, as the runner's). Every job must
	// reproduce its energy; its solo time is the base of the overhead ratio.
	mix := cfg.Sizes.ServeMix
	refs := map[string]*scf.Result{}
	solo := map[string]float64{}
	for _, m := range mix {
		if refs[m] != nil {
			continue
		}
		mol, err := molecule(m, 0)
		if err != nil {
			return nil, err
		}
		var walls []float64
		for i := 0; i < 5; i++ {
			var res *scf.Result
			walls = append(walls, timed(func() { res, err = scf.RunHF(mol, scf.Options{BasisName: "sto-3g", MaxIter: 30}) }))
			out.check(err == nil && res.Converged, "solo reference %s did not converge: %v", m, err)
			if err != nil {
				return out, nil
			}
			refs[m] = res
		}
		solo[m] = fastest(walls)
	}

	// The seed fixes the order in which the mix comes round; the shares of
	// the mix stay fixed so the median job is the same size on every seed.
	rng := rand.New(rand.NewSource(cfg.Seed))
	var cycle []string
	next := func() string {
		if len(cycle) == 0 {
			cycle = append([]string(nil), mix...)
			rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		}
		m := cycle[0]
		cycle = cycle[1:]
		return m
	}

	// One warm-up job per entry of the mix, then the timed closed loop.
	for i, m := range mix {
		o := svc.driveJob(serve.JobSpec{Molecule: m, Basis: "sto-3g"}, fmt.Sprintf("warm-%d", i))
		out.check(o.ok, "warm-up job %s: %s", m, o.err)
	}
	svc.mu.Lock()
	clear(svc.builds)
	svc.mu.Unlock()
	before := svc.sm.Snapshot()

	// closedLoop keeps the client busy for the given time and returns what
	// it saw and how long the loop ran.
	closedLoop := func(d time.Duration, tag string) ([]jobOutcome, float64) {
		began := time.Now()
		var outcomes []jobOutcome
		for i := 0; i < 3 || time.Since(began) < d; i++ {
			o := svc.driveJob(serve.JobSpec{Molecule: next(), Basis: "sto-3g"}, fmt.Sprintf("%s-%d", tag, i))
			o.rssMB = statusMB("VmRSS")
			outcomes = append(outcomes, o)
		}
		return outcomes, time.Since(began).Seconds()
	}
	// midSteps collects the step records of the mix's middle molecule.
	mid := mix[len(mix)/2]
	midSteps := func(os []jobOutcome) (steps [][]float64) {
		for _, o := range os {
			if o.ok && o.mol == mid {
				steps = append(steps, o.steps)
			}
		}
		return steps
	}

	win := openWindow()
	share := 1.0
	if cfg.Trace {
		share = 0.5
	}
	outcomes, loop := closedLoop(cfg.budget(share), "job")
	traceOverhead := 0.0
	if cfg.Trace {
		// The same loop again with tracing off, for the overhead.
		win.probe()
		svc.tr = nil
		plain, _ := closedLoop(cfg.budget(share), "plain")
		svc.tr = tr
		traceOverhead = fastestSum(midSteps(outcomes))/fastestSum(midSteps(plain)) - 1
		for _, o := range plain {
			out.check(o.ok, "untraced job %s: %s", o.mol, o.err)
		}
	}
	out.Machine = win.close()
	after := svc.sm.Snapshot()

	// The mix is trimodal, a decade between sizes, so its median job is the
	// middle molecule: the end-to-end latency and build time are that
	// molecule's.
	var lat, midLat, submits, waits, runs, events, rss []float64
	for _, o := range outcomes {
		good := o.ok && math.Abs(o.energy-refs[o.mol].Energy) <= energyTol
		out.check(good, "job %s: ok=%v energy %.12f vs solo %.12f: %s", o.mol, o.ok, o.energy, refs[o.mol].Energy, o.err)
		if !o.ok {
			continue
		}
		lat = append(lat, o.latency)
		if o.mol == mid {
			midLat = append(midLat, o.latency)
		}
		submits = append(submits, o.submit*1e3)
		waits = append(waits, o.queueWait)
		runs = append(runs, o.runMs)
		events = append(events, float64(o.events))
		rss = append(rss, o.rssMB)
	}
	// Per molecule of the mix: what the service adds to its solo solve.
	for m := range solo {
		var ls []float64
		for _, o := range outcomes {
			if o.ok && o.mol == m {
				ls = append(ls, o.latency)
			}
		}
		out.Notes = append(out.Notes, fmt.Sprintf("serve_jobs %-9s %3d jobs, latency %.4f s, solo solve %.4f s", m, len(ls), fastest(ls), solo[m]))
	}
	sort.Strings(out.Notes)
	svc.mu.Lock()
	builds := append([]float64(nil), svc.builds[refs[mid].F.Rows]...)
	svc.mu.Unlock()
	out.E2E["scf_wall_s"] = fastestSum(midSteps(outcomes))
	out.E2E["fock_build_s"] = fastest(builds)
	out.E2E["rss_mb"] = median(rss)
	if !cfg.Trace {
		return out, nil
	}

	L := out.Layer
	out.Machine.ledger(L)
	L["harness.peak_rss_mb"] = statusMB("VmHWM")
	L["trace_overhead_frac"] = traceOverhead
	L["serve.jobs_per_s"] = float64(len(lat)) / loop
	L["serve.submit_ms"] = median(submits)
	L["serve.queue_wait_ms"] = median(waits)
	L["serve.run_ms"] = median(runs)
	L["serve.events_per_job"] = mean(events)
	L["serve.job_latency_hi_s"], _ = tail(lat)
	L["serve.admitted"] = float64(after.Admitted - before.Admitted)
	L["serve.rejected"] = float64(after.RejectedQueue + after.RejectedQuota + after.RejectedMem -
		before.RejectedQueue - before.RejectedQuota - before.RejectedMem)
	L["serve.retries_total"] = float64(after.Retries - before.Retries)
	// The median job against the solo solve of its molecule: the ratio's
	// excess over 1 is what the service adds.
	L["serve.solo_scf_ms"] = solo[mid] * 1e3
	L["serve.overhead_ratio"] = fastestSum(midSteps(outcomes)) / solo[mid]
	L["scf.fock_build_hi_s"], L["scf.fock_build_hi_pct"] = tail(builds)
	L["scf.fock_build_samples"] = float64(len(builds))
	L["scf.wall_hi_s"] = L["serve.job_latency_hi_s"]
	L["scf.wall_p50_s"], L["scf.fock_build_p50_s"] = median(midLat), median(builds)

	rpcLedger(L, svc.rpc)

	// Direct calls into a second durable registry: one fsync'd record each.
	probeDir, err := os.MkdirTemp(cfg.TmpDir, "registry-probe-")
	if err != nil {
		return nil, err
	}
	reg, err := serve.OpenRegistry(probeDir, serve.RegistryConfig{})
	if err != nil {
		return nil, err
	}
	var creates, finishes []float64
	for i := 0; i < 20; i++ {
		var id string
		var fence uint64
		creates = append(creates, timed(func() {
			id, fence, err = reg.Create(serve.JobSpec{Molecule: mid}, "probe", "probe", 1, "")
		}))
		if err != nil {
			break
		}
		finishes = append(finishes, timed(func() {
			err = reg.Finish(id, "probe", 1, fence, serve.RecDone, &serve.JobResult{Converged: true}, "")
		}))
		if err != nil {
			break
		}
	}
	reg.Close()
	if err != nil {
		return nil, err
	}
	L["serve.registry_create_us"] = median(creates) * 1e6
	L["serve.registry_finish_us"] = median(finishes) * 1e6

	// The layers beneath the service, probed at the median job's size: its
	// solo solve stands in for the SCF inside a job.
	midMol, _ := molecule(mid, 0)
	prep, err := prepare(midMol, "sto-3g")
	if err != nil {
		return nil, err
	}
	var res *scf.Result
	wall := timed(func() { res, err = scf.RunHF(midMol, scf.Options{BasisName: "sto-3g", MaxIter: 30}) })
	if err != nil {
		return nil, err
	}
	buildAccounting(L, res.Iterations)
	var fock, dens float64
	for _, it := range res.Iterations {
		fock += it.FockTime.Seconds()
		dens += it.DensityTime.Seconds()
	}
	n := float64(len(res.Iterations))
	L["scf.iterations"] = n
	L["scf.energy_ha"] = res.Energy
	L["scf.fock_share"] = fock / wall
	L["scf.density_s_per_iter"] = dens / n
	L["scf.diis_s_per_iter"] = math.Max(wall-fock-dens, 0) / n
	if err := netProbes(cfg, core.Grid(prep.bs, 1, 1), L); err != nil {
		return nil, err
	}
	if err := layerProbes(cfg, prep, res.D.Clone().Scale(0.5), res, false, out); err != nil {
		return nil, err
	}
	L["failed_frac"] = float64(out.Failed) / float64(out.Attempted)
	return out, nil
}
