// Command fockbuild runs one distributed Fock matrix construction and
// reports timing, communication, scheduling and load-balance statistics.
//
// Real mode executes the build on goroutine processes with actual ERI
// computation; sim mode runs the discrete-event simulation at paper-scale
// core counts.
//
// Examples:
//
//	fockbuild -mol C24H12 -engine gtfock -grid 2x2
//	fockbuild -mol C96H24 -engine nwchem -mode sim -cores 3888
//	fockbuild -mol alkane:40 -reorder cell -grid 4x2
//
// Fault tolerance (gtfock real mode): every build runs under leases, epoch
// fencing and orphan re-execution; the -fault-* flags inject seeded worker
// crashes, stalls and transport faults for it to recover from (the seeded
// sweep of those rates against the serial oracle is the core package's
// TestChaosRecoveryMatchesOracle):
//
//	fockbuild -mol alkane:4 -basis sto-3g -fault-crash 0.3 -fault-stall 0.05
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/core"
	"gtfock/internal/dist"
	"gtfock/internal/fault"
	"gtfock/internal/integrals"
	"gtfock/internal/linalg"
	"gtfock/internal/metrics"
	netga "gtfock/internal/net"
	"gtfock/internal/nwchem"
	"gtfock/internal/reorder"
	"gtfock/internal/scf"
	"gtfock/internal/screen"
)

func main() {
	var (
		molSpec = flag.String("mol", "C24H12", "molecule: a paper formula (C96H24, C100H202, ...), alkane:N, or flake:K")
		bname   = flag.String("basis", "cc-pvdz", "basis set: sto-3g, 6-31g, cc-pvdz, or cc-pvtz")
		engine  = flag.String("engine", "gtfock", "gtfock or nwchem")
		mode    = flag.String("mode", "real", "real (goroutine processes) or sim (discrete-event, paper scale)")
		grid    = flag.String("grid", "2x2", "process grid RxC for real mode")
		cores   = flag.Int("cores", 3888, "total cores for sim mode (multiple of 12)")
		tau     = flag.Float64("tau", screen.DefaultTau, "screening tolerance")
		ord     = flag.String("reorder", "cell", "shell ordering: cell or natural (gtfock only)")
		trace   = flag.Bool("trace", false, "print an activity timeline (sim mode, or gtfock real mode)")

		// Observability (gtfock real mode).
		metricsOut = flag.String("metrics", "", "write per-worker metrics JSON to this file")
		httpAddr   = flag.String("http", "", "serve /debug/vars (expvar) and /debug/pprof on this address (e.g. localhost:6060)")
		httpWait   = flag.Bool("http-wait", false, "after the build, keep the -http endpoint serving until interrupted")

		// Fault injection / recovery (gtfock real mode).
		faultSeed       = flag.Int64("fault-seed", 1, "seed for the deterministic fault injector")
		faultCrash      = flag.Float64("fault-crash", 0, "probability a worker crashes before its flush")
		faultCrashAfter = flag.Float64("fault-crash-after", 0, "probability a worker crashes after its flush")
		faultStall      = flag.Float64("fault-stall", 0, "per-task probability of a worker stall")
		faultStallMS    = flag.Int("fault-stall-ms", 50, "stall duration in ms")
		faultDrop       = flag.Float64("fault-drop", 0, "probability a one-sided op is dropped")
		faultDelay      = flag.Float64("fault-delay", 0, "probability a one-sided op is delayed")
		faultDelayMS    = flag.Int("fault-delay-ms", 1, "op delay in ms")
		leaseMS         = flag.Int("lease-ms", 200, "worker lease TTL in ms with -fault-* flags or -backend net (a plain local build keeps core's 1s)")

		// Stored-ERI cache (gtfock real mode): build 1 records each task's
		// surviving integral batch, builds 2..N replay it without touching
		// the kernel layer. -eri-spill parks over-budget batches on the
		// shard servers so cache capacity scales with the fleet.
		eriCache  = flag.Bool("eri-cache", false, "record surviving ERIs on build 1 and replay on later builds (gtfock real mode)")
		eriBuilds = flag.Int("eri-builds", 2, "total builds with -eri-cache: build 1 records, builds 2..N replay")
		eriBudget = flag.Int64("eri-cache-budget", 0, "resident stored-ERI bytes; over budget spills (-eri-spill) or drops (0 = unlimited)")
		eriSpill  = flag.Bool("eri-spill", false, "spill over-budget batches to the shard servers (requires -backend net with -net-servers)")

		// Network backend (gtfock real mode): the global arrays live in
		// fockd shard servers and every one-sided op is a framed TCP RPC.
		backend    = flag.String("backend", "local", "global-array transport: local (in-process) or net (fockd shard servers)")
		netServers = flag.String("net-servers", "", "comma-separated fockd addresses (backend=net); must match the fockd cluster order")
		netSession = flag.Uint64("net-session", 0, "session id for the net backend (0 = derive from wall clock); a fresh id resets the servers")
		netFleet   = flag.String("fleet", "", "elastic fleet coordinator address (backend=net); replaces -net-servers with live membership")
		netVerify  = flag.Bool("net-verify", false, "verify the net-backed G against the serial oracle (small molecules)")

		// Network fault injection (backend=net): applied at the conn layer.
		netReset       = flag.Float64("fault-net-reset", 0, "probability an RPC's connection is reset mid-flight")
		netDup         = flag.Float64("fault-net-dup", 0, "probability an RPC frame is delivered twice")
		netDelay       = flag.Float64("fault-net-delay", 0, "probability an RPC is held on a slow link")
		netDelayMS     = flag.Int("fault-net-delay-ms", 1, "slow-link delay in ms")
		netPartition   = flag.Float64("fault-net-partition", 0, "probability a rank opens a partition window")
		netPartitionMS = flag.Int("fault-net-partition-ms", 100, "partition window duration in ms")
	)
	flag.Parse()

	mol, err := chem.ParseSpec(*molSpec)
	fatalIf(err)
	bs, err := basis.Build(mol, *bname)
	fatalIf(err)
	fmt.Printf("%s: %d atoms, %d shells, %d basis functions\n",
		mol.Formula(), mol.NumAtoms(), bs.NumShells(), bs.NumFuncs)

	scr := screen.Compute(bs, *tau)
	if *engine == "gtfock" {
		by, err := reorder.ByName(*ord)
		fatalIf(err)
		if by != nil {
			order := by(bs)
			pbs := bs.Permute(order)
			scr = scr.Permute(order, pbs)
			bs = pbs
		}
	}
	fmt.Printf("screening: B = %.1f avg significant partners, %d unique quartets, work scale %.3f\n",
		scr.AvgPhi(), scr.UniqueQuartetCount(), scr.WorkScale)

	switch *mode {
	case "sim":
		cfg := dist.Lonestar()
		var st *dist.RunStats
		var tr *dist.Trace
		switch *engine {
		case "gtfock":
			if *trace {
				tr = &dist.Trace{}
			}
			st, err = core.SimulateOptions(bs, scr, cfg, *cores, core.SimOptions{Trace: tr})
		case "nwchem":
			st, err = nwchem.Simulate(bs, scr, cfg, *cores)
		default:
			err = fmt.Errorf("unknown engine %q", *engine)
		}
		fatalIf(err)
		report(st, fmt.Sprintf("simulated, %d cores", *cores))
		if tr != nil {
			fmt.Print(tr.Timeline(100, 24))
		}
	case "real":
		prow, pcol, err := dist.ParseGrid(*grid)
		fatalIf(err)
		if *eriCache && *engine != "gtfock" {
			fatalIf(fmt.Errorf("-eri-cache requires -engine gtfock"))
		}
		// The SCF's starting density, halved: the builders take the
		// spinless density.
		d := scf.GuessDensity(bs).Scale(0.5)
		switch *engine {
		case "gtfock":
			copt := core.Options{Prow: prow, Pcol: pcol}
			if *faultCrash > 0 || *faultCrashAfter > 0 || *faultStall > 0 ||
				*faultDrop > 0 || *faultDelay > 0 ||
				*netReset > 0 || *netDup > 0 || *netDelay > 0 || *netPartition > 0 {
				copt.Fault = fault.New(fault.Config{
					Seed:             *faultSeed,
					CrashBeforeFlush: *faultCrash,
					CrashAfterFlush:  *faultCrashAfter,
					StallProb:        *faultStall,
					StallFor:         time.Duration(*faultStallMS) * time.Millisecond,
					DropProb:         *faultDrop,
					DelayProb:        *faultDelay,
					DelayFor:         time.Duration(*faultDelayMS) * time.Millisecond,
					NetResetProb:     *netReset,
					NetDupProb:       *netDup,
					NetDelayProb:     *netDelay,
					NetDelayFor:      time.Duration(*netDelayMS) * time.Millisecond,
					NetPartitionProb: *netPartition,
					NetPartitionFor:  time.Duration(*netPartitionMS) * time.Millisecond,
				})
			}
			session := *netSession
			if session == 0 {
				session = uint64(time.Now().UnixNano())
			}
			var rpc *metrics.RPC
			var sess *netga.Session
			if *backend == "net" {
				if *netFleet == "" && *netServers == "" {
					fatalIf(fmt.Errorf("-backend net requires -net-servers or -fleet"))
				}
				// The fockd cluster must have been started with the same
				// molecule, basis, grid and ordering so both sides derive the
				// identical block layout.
				var addrs []string
				if *netFleet != "" {
					fmt.Printf("net backend: elastic fleet at %s, session %d\n", *netFleet, session)
				} else {
					addrs = strings.Split(*netServers, ",")
					fmt.Printf("net backend: %d shard servers, session %d\n", len(addrs), session)
				}
				rpc = &metrics.RPC{}
				sess = netga.NewSession(netga.Config{Session: session, RPC: rpc, Fault: copt.Fault}, nil, *netFleet, addrs)
				copt.Backend = sess.Backend
			} else if *backend != "local" {
				fatalIf(fmt.Errorf("unknown backend %q", *backend))
			}
			if copt.Fault != nil || copt.Backend != nil {
				// A plain local build keeps core's 1s default instead: a big
				// molecule's longest task must fit the lease.
				copt.LeaseTTL = time.Duration(*leaseMS) * time.Millisecond
			}
			if *trace {
				copt.Trace = &dist.Trace{}
			}
			var reg *metrics.Registry
			if *metricsOut != "" || *httpAddr != "" {
				reg = metrics.NewRegistry(prow * pcol)
				copt.Metrics = reg
			}
			if *httpAddr != "" {
				metrics.PublishFunc("fock_metrics", func() any { return reg.Snapshot() })
				addr, err := metrics.StartDebugServer(*httpAddr)
				fatalIf(err)
				fmt.Printf("debug endpoint: http://%s/debug/vars (expvar) and http://%s/debug/pprof/\n", addr, addr)
			}
			var store *integrals.ERIStore
			if *eriCache {
				var spill integrals.BlobStore
				if *eriSpill {
					if sess == nil || *netServers == "" {
						fatalIf(fmt.Errorf("-eri-spill requires -backend net with -net-servers"))
					}
					spill = sess
				}
				store = integrals.NewERIStore(bs.NumShells(), *eriBudget, spill, session, nil)
				copt.ERIStore = store
			}
			// One builder serves the recording build and every replay.
			fb := core.NewBuilder(bs, scr, copt.PairTable, copt)
			res := fb.Build(d, copt)
			fatalIf(res.Err)
			fmt.Printf("wall time: %v,  |G|_max = %.6f\n", res.Wall, res.G.MaxAbs())
			report(res.Stats, fmt.Sprintf("real, %dx%d grid, %s backend", prow, pcol, *backend))
			if store != nil {
				replayCachedBuilds(fb, d, copt, store, res, *eriBuilds)
			}
			if sess != nil {
				sess.Close(true)
			}
			if rpc != nil {
				reportRPC(rpc)
			}
			if *netVerify {
				ref := core.BuildSerial(bs, scr, d)
				diff := linalg.MaxAbsDiff(ref, res.G)
				status := "ok"
				if diff > 1e-9 {
					status = "MISMATCH"
				}
				fmt.Printf("serial oracle check: |G - serial| = %.2e  %s\n", diff, status)
				if diff > 1e-9 {
					fatalIf(fmt.Errorf("net-backed G diverged from the serial oracle"))
				}
			}
			if copt.Trace != nil {
				printTrace(copt.Trace)
			}
			if *metricsOut != "" {
				fatalIf(writeMetrics(*metricsOut, reg))
				fmt.Printf("metrics written to %s\n", *metricsOut)
			}
			if *httpAddr != "" && *httpWait {
				fmt.Println("serving debug endpoint; interrupt (Ctrl-C) to exit")
				ch := make(chan os.Signal, 1)
				signal.Notify(ch, os.Interrupt)
				<-ch
			}
		case "nwchem":
			res, err := nwchem.Build(bs, scr, d, nwchem.Options{Procs: prow * pcol})
			fatalIf(err)
			fmt.Printf("wall time: %v,  |G|_max = %.6f\n", res.Wall, res.G.MaxAbs())
			report(res.Stats, fmt.Sprintf("real, %d processes", prow*pcol))
		default:
			fatalIf(fmt.Errorf("unknown engine %q", *engine))
		}
	default:
		fatalIf(fmt.Errorf("unknown mode %q", *mode))
	}
}

func report(st *dist.RunStats, label string) {
	fmt.Printf("Fock build statistics (%s):\n", label)
	fmt.Printf("  T_fock avg/max:      %.4f / %.4f s\n", st.TFockAvg(), st.TFockMax())
	fmt.Printf("  T_comp avg:          %.4f s\n", st.TCompAvg())
	fmt.Printf("  T_overhead avg:      %.4f s\n", st.TOverheadAvg())
	fmt.Printf("  load balance l:      %.4f\n", st.LoadBalance())
	fmt.Printf("  comm volume/process: %.2f MB in %.0f calls\n", st.VolumeAvgMB(), st.CallsAvg())
	fmt.Printf("  steals/process:      %.2f (from %.2f victims)\n", st.StealsAvg(), st.VictimsAvg())
	fmt.Printf("  queue ops/process:   %.1f\n", st.QueueOpsAvg())
	if r := &st.Recovery; r.Any() {
		fmt.Printf("  recovery:            %d crashes, %d stalls, %d aborts, %d workers fenced\n",
			r.Crashes, r.Stalls, r.Aborts, r.WorkersFenced)
		fmt.Printf("                       %d blocks orphaned, %d reassigned (%d tasks), %d fenced flushes\n",
			r.BlocksOrphaned, r.BlocksReassigned, r.TasksReassigned, r.FencedFlushes)
		fmt.Printf("                       %d op drops, %d op retries, %d extra rounds\n",
			r.OpDrops, r.OpRetries, r.Rounds)
	}
}

// printTrace renders a real-mode trace: the timeline plus per-kind and
// discarded-work totals.
func printTrace(tr *dist.Trace) {
	fmt.Print(tr.Timeline(100, 24))
	tot := tr.KindTotals()
	fmt.Printf("  traced time: compute %.4fs, prefetch %.4fs, flush %.4fs, steal %.4fs\n",
		tot[byte(dist.SpanCompute)], tot[byte(dist.SpanPrefetch)],
		tot[byte(dist.SpanFlush)], tot[byte(dist.SpanSteal)])
	if n, secs := tr.DiscardedTotal(); n > 0 {
		fmt.Printf("  discarded (fenced incarnations): %d spans, %.4fs re-executed elsewhere\n", n, secs)
	}
}

// writeMetrics dumps the registry snapshot as indented JSON.
func writeMetrics(path string, reg *metrics.Registry) error {
	data, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// replayCachedBuilds re-runs the build against the store populated by
// the first (recording) build and reports the replay speedup and
// hit rate per build. Every replayed G is checked against the recorded
// build's G at the chaos-oracle tolerance.
func replayCachedBuilds(fb *core.Builder, d *linalg.Matrix,
	copt core.Options, store *integrals.ERIStore, first core.Result, n int) {
	prev := store.Stats()
	fmt.Printf("stored-ERI cache: %d quartets recorded, %.1f MB resident",
		prev.QuartetsStored, float64(prev.BytesStored-prev.SpillBytes)/(1<<20))
	if prev.Spills > 0 {
		fmt.Printf(", %.1f MB spilled in %d blobs", float64(prev.SpillBytes)/(1<<20), prev.Spills)
	}
	if prev.Dropped > 0 {
		fmt.Printf(", %d tasks dropped over budget", prev.Dropped)
	}
	fmt.Println()
	for b := 2; b <= n; b++ {
		res := fb.Build(d, copt)
		fatalIf(res.Err)
		cur := store.Stats()
		it := cur.Sub(prev)
		prev = cur
		diff := linalg.MaxAbsDiff(first.G, res.G)
		status := "ok"
		if diff > 1e-9 {
			status = "MISMATCH"
		}
		fmt.Printf("  replay build %d: wall %v (%.2fx vs record), hit rate %.1f%%",
			b, res.Wall, float64(first.Wall)/float64(res.Wall), 100*it.HitRate())
		if it.SpillFetches > 0 || it.SpillMisses > 0 {
			fmt.Printf(", %d spill fetches (%d misses)", it.SpillFetches, it.SpillMisses)
		}
		fmt.Printf(", |G-build1| = %.2e  %s\n", diff, status)
		if diff > 1e-9 {
			fatalIf(fmt.Errorf("replay build %d diverged from the recorded build", b))
		}
	}
}

// reportRPC prints the transport-level counters of a net-backed build.
func reportRPC(rpc *metrics.RPC) {
	s := rpc.Snapshot()
	fmt.Printf("RPC transport statistics:\n")
	fmt.Printf("  calls:               %d (%d retries, %d failures)\n", s.Calls, s.Retries, s.Failures)
	fmt.Printf("  connections:         %d dials, %d reconnects\n", s.Dials, s.Reconnects)
	if s.Resets > 0 || s.DupSends > 0 || s.Partitioned > 0 {
		fmt.Printf("  injected faults:     %d resets, %d dup sends, %d partitioned\n",
			s.Resets, s.DupSends, s.Partitioned)
	}
	if s.DeadlineExceeded > 0 || s.PeerResets > 0 {
		fmt.Printf("  failure classes:     %d deadline exceeded, %d peer resets\n",
			s.DeadlineExceeded, s.PeerResets)
	}
	if s.StaleRetries > 0 || s.ViewRefreshes > 0 || s.BlocksMigrated > 0 {
		fmt.Printf("  elastic fleet:       %d shard retry answers (%d map-generation), %d view refreshes, %d blocks migrated\n",
			s.StaleRetries, s.PlacementRetries, s.ViewRefreshes, s.BlocksMigrated)
	}
	if s.LatencyNS.Count > 0 {
		fmt.Printf("  latency:             mean %.1fus, p95 %.1fus, max %.1fus\n",
			s.LatencyNS.Mean/1e3, float64(s.LatencyNS.P95)/1e3,
			float64(s.LatencyNS.Max)/1e3)
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fockbuild:", err)
		os.Exit(1)
	}
}
