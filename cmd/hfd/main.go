// Command hfd is the multi-tenant HF service daemon: it accepts many
// concurrent SCF jobs (molecule + basis + options) over HTTP,
// multiplexes them onto a shared fleet of multi-session fockd shards
// through job-scoped netga sessions, and streams per-iteration progress.
//
// Overload never degrades it into an OOM or unbounded latency: admission
// control rejects with an explicit 503 once the queue-depth or
// resident-memory budget is exceeded, tenants get weighted fair shares
// of the executor, every job can carry a deadline, and under pressure
// the lowest-priority work is shed or checkpoint-parked first
// (DESIGN.md §12).
//
//	hfd -listen 127.0.0.1:8680 -shards 2 -capacity 2 -max-queue 8
//	curl -d '{"molecule":"CH4","basis":"sto-3g"}' http://127.0.0.1:8680/v1/jobs
//	curl http://127.0.0.1:8680/v1/jobs/j-000001/events   # NDJSON stream
//
// -shards N starts an embedded in-process shard fleet; -shard-addrs
// points at externally launched `fockd -multi` shards instead. SIGTERM
// and SIGINT drain gracefully: admission stops, running jobs checkpoint
// and park, their leases are released, then the daemon exits.
//
// Every hfd is a peer of a job registry (DESIGN.md §13). Without
// -registry it hosts its own: on -registry-listen, or on a private
// loopback listener, in memory or durable with -registry-dir. A lone
// hfd is a one-peer tier; N peers share one registry and one shard
// fleet by pointing -registry at the host's -registry-listen. Each peer
// executes only under a heartbeat-refreshed, incarnation-fenced lease
// and adopts jobs whose owner stopped heartbeating, resuming from the
// last SCF checkpoint — the checkpoint directory must be shared storage
// across peers. /readyz turns true one registry round trip after the
// listeners are bound, and the first adoption scan runs at start, so a
// restarted peer adopts already-expired orphans at once. Status/event
// queries for a job owned by another peer answer 307 with the owner's
// address.
//
//	hfd -listen 127.0.0.1:8680 -registry-listen 127.0.0.1:8690 \
//	    -registry-dir hfd-reg -checkpoint-dir /shared/ckpt
//	hfd -listen 127.0.0.1:8681 -registry 127.0.0.1:8690 \
//	    -shard-addrs <same fleet> -checkpoint-dir /shared/ckpt
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gtfock/internal/dist"
	"gtfock/internal/fault"
	"gtfock/internal/metrics"
	netga "gtfock/internal/net"
	"gtfock/internal/serve"
)

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:8680", "HTTP address to serve the job API on")
		ackAddr = flag.String("http", "", "optional /debug/vars address")

		shards        = flag.Int("shards", 2, "embedded multi-session shard servers to start (ignored with -shard-addrs)")
		shardAddrs    = flag.String("shard-addrs", "", "comma-separated external fockd -multi shard addresses")
		shardSessions = flag.Int("shard-sessions", 256, "per-shard session table cap (embedded shards)")
		shardMemMB    = flag.Int64("shard-mem-mb", 512, "per-shard resident memory budget in MiB (embedded shards, 0 = unlimited)")

		capacity  = flag.Int("capacity", 2, "concurrently executing jobs")
		maxQueue  = flag.Int("max-queue", 0, "admission queue depth bound (0 = 4x capacity)")
		memMB     = flag.Int64("mem-budget-mb", 256, "admitted-job resident memory budget in MiB (0 = unlimited)")
		ckptDir   = flag.String("checkpoint-dir", "hfd-ckpt", "per-job SCF checkpoint directory")
		gridSpec  = flag.String("grid", "2x2", "per-job process grid RxC")
		tenants   = flag.String("tenants", "", "tenant weights, e.g. 'teamA:3,teamB:1' (unknown tenants get weight 1)")
		maxQdTen  = flag.Int("tenant-max-queued", 0, "per-tenant queued-job quota (0 = global bound only)")
		maxRunTen = flag.Int("tenant-max-running", 0, "per-tenant running-job quota (0 = capacity only)")
		preempt   = flag.Bool("preempt", true, "park the lowest-priority running job for a higher-priority arrival")
		retryMax  = flag.Int("retry-max", 3, "shard-failure retries per job")
		opTimeout = flag.Duration("op-timeout", 0, "per-RPC socket deadline (0 = transport default)")
		drainFor  = flag.Duration("drain", 30*time.Second, "max graceful-drain time on SIGTERM/SIGINT")

		regAddr   = flag.String("registry", "", "job registry of another hfd to join ('' = host one)")
		regListen = flag.String("registry-listen", "", "address of the hosted job registry ('' = private loopback port)")
		regDir    = flag.String("registry-dir", "", "hosted registry durability directory ('' = in-memory)")
		advertise = flag.String("advertise", "", "job-API address other peers redirect clients to (default: the bound -listen address)")
		peerID    = flag.String("peer-id", "", "stable peer identity in the registry (default -advertise)")
		leaseTTL  = flag.Duration("lease-ttl", 1500*time.Millisecond, "hosted registry lease TTL (joining peers fetch the host's TTL)")
		scanEvery = flag.Duration("scan-every", time.Second, "adoption scanner cadence after the first scan, which runs at start")

		faultReset = flag.Float64("fault-net-reset", 0, "injected connection-reset probability per RPC (chaos)")
		faultDup   = flag.Float64("fault-net-dup", 0, "injected duplicate-delivery probability per RPC (chaos)")
		faultDelay = flag.Float64("fault-net-delay", 0, "injected slow-link probability per RPC (chaos)")
		faultFor   = flag.Duration("fault-net-delay-for", 20*time.Millisecond, "injected slow-link delay")
		faultSeed  = flag.Int64("fault-seed", 1, "fault injector RNG seed")
	)
	flag.Parse()

	fatalIf(checkRegistryFlags(*regAddr, *regListen, *regDir))
	prow, pcol, err := dist.ParseGrid(*gridSpec)
	fatalIf(err)
	fatalIf(os.MkdirAll(*ckptDir, 0o755))

	// Shard fleet: embedded multi-session servers, or an external one.
	var addrs []string
	var embedded []*netga.Server
	if *shardAddrs != "" {
		addrs = strings.Split(*shardAddrs, ",")
	} else {
		for i := 0; i < *shards; i++ {
			ms, err := netga.NewMultiServer(*shards, i, *shardSessions, *shardMemMB<<20)
			fatalIf(err)
			addr, err := ms.Start("127.0.0.1:0")
			fatalIf(err)
			embedded = append(embedded, ms)
			addrs = append(addrs, addr)
		}
	}

	runner := serve.NewFleetRunner(addrs, *ckptDir)
	runner.Prow, runner.Pcol = prow, pcol
	runner.RetryMax = *retryMax
	runner.OpTimeout = *opTimeout
	if *faultReset > 0 || *faultDup > 0 || *faultDelay > 0 {
		runner.Fault = fault.New(fault.Config{
			Seed:         *faultSeed,
			NetResetProb: *faultReset, NetDupProb: *faultDup,
			NetDelayProb: *faultDelay, NetDelayFor: *faultFor,
		})
	}

	cfg := serve.Config{
		Capacity: *capacity, MaxQueue: *maxQueue, MemBudget: *memMB << 20,
		DefaultTenant: serve.TenantConfig{Weight: 1, MaxQueued: *maxQdTen, MaxRunning: *maxRunTen},
		Preempt:       *preempt,
		Runner:        runner,
		Metrics:       runner.Serve,
	}
	if *tenants != "" {
		cfg.Tenants = map[string]serve.TenantConfig{}
		for _, ent := range strings.Split(*tenants, ",") {
			name, wstr, ok := strings.Cut(ent, ":")
			if !ok {
				fatalIf(fmt.Errorf("bad -tenants entry %q (want name:weight)", ent))
			}
			w, err := strconv.ParseFloat(wstr, 64)
			fatalIf(err)
			cfg.Tenants[name] = serve.TenantConfig{Weight: w, MaxQueued: *maxQdTen, MaxRunning: *maxRunTen}
		}
	}
	// Bind every listener before the peer starts: its first registry call
	// and its first adoption scan run at construction, and an adopted job
	// advertises the job-API address to clients from that scan on.
	ln, err := net.Listen("tcp", *listen)
	fatalIf(err)
	var reg *serve.Registry
	regTarget := *regAddr
	if regTarget == "" {
		reg, regTarget = hostRegistry(*regListen, *regDir, *leaseTTL)
	}
	adv := *advertise
	if adv == "" {
		adv = ln.Addr().String()
	}
	id := *peerID
	if id == "" {
		id = adv
	}
	// HeartbeatEvery is deliberately left zero: the peer derives it from
	// the registry's advertised TTL, so a joining peer whose -lease-ttl
	// disagrees with the registry host's cannot heartbeat too slowly and
	// falsely expire its own leases.
	peer, err := serve.NewPeer(serve.PeerConfig{
		ID: id, Addr: adv,
		Registry:      serve.NewRegistryClient(regTarget, 0),
		CheckpointDir: *ckptDir,
		Server:        cfg,
		ScanEvery:     *scanEvery,
	})
	fatalIf(err)
	srv := peer.Server()
	fmt.Printf("hfd: peer %q (incarnation %d) against registry %s\n", id, peer.Incarnation(), regTarget)

	api := &serve.API{Server: srv, RPC: runner.RPC, Cache: runner.Cache, Peer: peer}
	hs := &http.Server{Handler: api.Handler()}
	if *ackAddr != "" {
		metrics.PublishFunc("hfd", func() any { return api.Stats() })
		dbg, err := metrics.StartDebugServer(*ackAddr)
		fatalIf(err)
		fmt.Printf("hfd: debug endpoint on http://%s/debug/vars\n", dbg)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		fmt.Printf("hfd: %s: draining (stop admission, park running jobs, release leases)\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
		defer cancel()
		// Parks, then releases every lease: the survivors adopt on their
		// next scan, or a restart of this daemon over a durable registry.
		if err := peer.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "hfd: %v\n", err)
		}
		hs.Shutdown(context.Background())
	}()

	fmt.Printf("hfd: serving on http://%s (fleet: %s; capacity %d, queue %d)\n",
		ln.Addr(), strings.Join(addrs, ","), srv.Capacity(), srv.MaxQueue())
	if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
		fatalIf(err)
	}
	for _, ms := range embedded {
		ms.Close()
	}
	if reg != nil {
		reg.Close() // final snapshot of the hosted registry
	}
	snap := runner.Serve.Snapshot()
	fmt.Printf("hfd: done: %d admitted, %d completed, %d rejected, %d shed, %d parked\n",
		snap.Admitted, snap.Completed,
		snap.RejectedQueue+snap.RejectedQuota+snap.RejectedMem, snap.Shed, snap.Parked)
}

// checkRegistryFlags refuses a daemon that would both join a registry
// and host one: it would serve the hosted registry but use the joined
// one, and two registries would allocate the same job ids into one
// checkpoint directory.
func checkRegistryFlags(regAddr, regListen, regDir string) error {
	if regAddr != "" && (regListen != "" || regDir != "") {
		return errors.New("-registry joins another daemon's registry; it cannot be combined with -registry-listen or -registry-dir, which host one")
	}
	return nil
}

// hostRegistry starts this daemon's own job registry on addr (a private
// loopback port when empty), durable in dir when dir is set, and returns
// it with the address peers reach it on.
func hostRegistry(addr, dir string, ttl time.Duration) (*serve.Registry, string) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	rln, err := net.Listen("tcp", addr)
	fatalIf(err)
	rcfg := serve.RegistryConfig{LeaseTTL: ttl}
	var reg *serve.Registry
	if dir == "" {
		reg = serve.NewRegistry(rcfg)
	} else {
		reg, err = serve.OpenRegistry(dir, rcfg)
		fatalIf(err)
	}
	rhs := &http.Server{Handler: (&serve.RegistryAPI{Reg: reg}).Handler()}
	go func() {
		if err := rhs.Serve(rln); err != nil && err != http.ErrServerClosed {
			fatalIf(fmt.Errorf("registry: %w", err))
		}
	}()
	fmt.Printf("hfd: job registry on http://%s (lease TTL %s)\n", rln.Addr(), ttl)
	return reg, rln.Addr().String()
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hfd:", err)
		os.Exit(1)
	}
}
