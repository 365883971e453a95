// Command fockd is one shard server of the network-backed Global Arrays
// transport: it hosts the D and F blocks of a subset of the process grid
// and serves framed one-sided Get/Put/Acc RPCs over TCP, with
// idempotency-token dedup so retrying clients accumulate exactly once.
//
// Every fockd of a cluster — and the fockbuild driver — must be started
// with the same molecule, basis, grid shape, shell ordering and server
// count, so all of them derive the identical block layout:
//
//	fockd -mol alkane:2 -basis sto-3g -grid 2x2 -servers 2 -index 0 -listen 127.0.0.1:7101
//	fockd -mol alkane:2 -basis sto-3g -grid 2x2 -servers 2 -index 1 -listen 127.0.0.1:7102
//	fockbuild -mol alkane:2 -basis sto-3g -grid 2x2 -backend net -net-servers 127.0.0.1:7101,127.0.0.1:7102
//
// With -journal-dir the shard is durable: mutations are write-ahead
// journaled and periodically snapshotted, and a killed server restarted
// on the same flags replays to its exact pre-crash state and resumes the
// session. With -standby-of the server runs as a hot standby of the
// given primary and serves only once a driver promotes it (fockbuild
// -net-standbys names the standbys to the driver).
//
// SIGTERM and SIGINT shut down gracefully: stop accepting, drain
// in-flight ops, flush a final snapshot, close listeners — so rolling
// restarts do not rely on crash recovery.
//
// Elastic fleet mode replaces the static -servers/-index layout with
// lease-based membership and live resharding:
//
//	fockd -fleet -mol alkane:2 -basis sto-3g -grid 2x2 -listen 127.0.0.1:7100
//	fockd -join 127.0.0.1:7100 -member-id 1 -mol alkane:2 -basis sto-3g -grid 2x2
//	fockd -join 127.0.0.1:7100 -member-id 2 -mol alkane:2 -basis sto-3g -grid 2x2
//	fockbuild -mol alkane:2 -basis sto-3g -grid 2x2 -backend net -fleet 127.0.0.1:7100
//
// -fleet runs the membership/placement coordinator; -join runs a shard
// member hosting whatever blocks the coordinator migrates to it. Members
// heartbeat to keep their lease; on SIGTERM a member leaves gracefully,
// serving until its blocks have drained to the survivors. -http serves
// /debug/vars with the shard (fock_shard) or fleet (fock_fleet) state.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/core"
	"gtfock/internal/dist"
	"gtfock/internal/metrics"
	netga "gtfock/internal/net"
	"gtfock/internal/reorder"
)

func main() {
	var (
		molSpec  = flag.String("mol", "alkane:2", "molecule: a paper formula, alkane:N, or flake:K")
		bname    = flag.String("basis", "sto-3g", "basis set: sto-3g, 6-31g, cc-pvdz, or cc-pvtz")
		gridSpec = flag.String("grid", "2x2", "process grid RxC (must match the driver)")
		ord      = flag.String("reorder", "cell", "shell ordering: cell, morton, natural (must match the driver)")
		servers  = flag.Int("servers", 1, "total number of shard servers in the cluster")
		index    = flag.Int("index", 0, "this server's index in [0, servers)")
		listen   = flag.String("listen", "127.0.0.1:0", "TCP address to listen on")

		journalDir    = flag.String("journal-dir", "", "directory for the write-ahead journal and snapshots (empty = volatile)")
		snapshotEvery = flag.Int("snapshot-every", 0, "journal records between snapshots (0 = default, <0 = journal only)")
		standbyOf     = flag.String("standby-of", "", "run as a hot standby replicating from this primary address")
		drainFor      = flag.Duration("drain", 5*time.Second, "max time to drain in-flight ops on SIGTERM/SIGINT")

		fleetMode = flag.Bool("fleet", false, "run the elastic fleet coordinator instead of a shard server")
		joinAddr  = flag.String("join", "", "fleet coordinator address to join as an elastic member")
		memberID  = flag.Uint64("member-id", 0, "stable member id for -join (nonzero, unique per member)")
		incarn    = flag.Uint64("incarnation", 0, "member incarnation for -join (bump when rejoining after a kill)")
		standby   = flag.String("standby", "", "hot-standby address to advertise to the fleet for -join")
		leaseTTL  = flag.Duration("lease-ttl", 1500*time.Millisecond, "membership lease TTL (fleet and members must agree)")
		httpAddr  = flag.String("http", "", "serve /debug/vars and /debug/pprof on this address")

		multiMode     = flag.Bool("multi", false, "serve many job-scoped sessions for hfd (no fixed molecule/grid; each session carries its own)")
		multiSessions = flag.Int("multi-sessions", 256, "session table cap in -multi mode")
		multiMemMB    = flag.Int64("multi-mem-mb", 0, "resident memory budget in MiB in -multi mode (0 = unlimited)")
	)
	flag.Parse()

	if *multiMode {
		runMulti(*servers, *index, *multiSessions, *multiMemMB<<20, *listen, *httpAddr)
		return
	}

	if !*fleetMode && *joinAddr == "" && (*index < 0 || *index >= *servers) {
		fatalIf(fmt.Errorf("-index %d outside [0, %d)", *index, *servers))
	}
	mol, err := chem.ParseSpec(*molSpec)
	fatalIf(err)
	bs, err := basis.Build(mol, *bname)
	fatalIf(err)
	var order []int
	switch *ord {
	case "cell":
		order = reorder.Cell(bs, 0)
	case "morton":
		order = reorder.Morton(bs, 0)
	case "natural":
		order = reorder.Identity(bs.NumShells())
	default:
		fatalIf(fmt.Errorf("unknown ordering %q", *ord))
	}
	bs = bs.Permute(order)
	prow, pcol, err := parseGrid(*gridSpec)
	fatalIf(err)

	grid := core.Grid(bs, prow, pcol)

	if *fleetMode {
		runFleet(grid, *listen, *leaseTTL, *httpAddr)
		return
	}

	var hostedProcs []int
	if *joinAddr == "" {
		_, hosted := netga.SplitProcs(grid.NumProcs(), *servers)
		hostedProcs = hosted[*index]
	}
	var opts []netga.ServerOption
	if *journalDir != "" {
		fatalIf(os.MkdirAll(*journalDir, 0o755))
		opts = append(opts, netga.WithDurability(*journalDir, *snapshotEvery))
	}
	if *standbyOf != "" {
		opts = append(opts, netga.WithStandby(*standbyOf))
	}
	srv := netga.NewServer(grid, hostedProcs, opts...)
	addr, err := srv.Start(*listen)
	fatalIf(err)
	if *httpAddr != "" {
		metrics.PublishFunc("fock_shard", func() any { return srv.Stats() })
		dbg, err := metrics.StartDebugServer(*httpAddr, nil)
		fatalIf(err)
		fmt.Printf("fockd: debug endpoint on http://%s/debug/vars\n", dbg)
	}

	var fm *netga.FleetMember
	if *joinAddr != "" {
		if *memberID == 0 {
			fatalIf(fmt.Errorf("-join requires a nonzero -member-id"))
		}
		self := netga.Member{
			ID: *memberID, Addr: addr, Standby: *standby,
			Epoch: srv.Stats().Epoch, Incarnation: *incarn,
		}
		fm, err = netga.JoinFleet(*joinAddr, self, *leaseTTL, 0)
		fatalIf(err)
		fmt.Printf("fockd member %d: joined fleet %s, serving a %dx%d grid (%d funcs) on %s (blocks arrive by migration)\n",
			*memberID, *joinAddr, prow, pcol, bs.NumFuncs, addr)
	} else {
		role := "primary"
		if *standbyOf != "" {
			role = "standby of " + *standbyOf
		}
		fmt.Printf("fockd %d/%d (%s): serving procs %v of a %dx%d grid (%d funcs) on %s\n",
			*index, *servers, role, hostedProcs, prow, pcol, bs.NumFuncs, addr)
	}

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	if fm != nil {
		// Graceful leave: ask the fleet to drain our blocks to the
		// survivors and keep serving until none are left (or the drain
		// window closes — then shut down anyway; the journal has the rest).
		fmt.Printf("fockd member %d: leaving fleet, draining %d hosted blocks\n",
			*memberID, srv.Stats().HostedProcs)
		if err := fm.Leave(); err != nil {
			fmt.Fprintln(os.Stderr, "fockd: leave:", err)
		} else {
			deadline := time.Now().Add(*drainFor + 30*time.Second)
			for srv.Stats().HostedProcs > 0 && time.Now().Before(deadline) {
				time.Sleep(50 * time.Millisecond)
			}
		}
	}
	// Graceful shutdown: drain in-flight ops and flush a final snapshot,
	// so the next start replays nothing.
	srv.Shutdown(*drainFor)
	st := srv.Stats()
	fmt.Printf("fockd %d: %d requests, %d accs applied, %d dedup hits, %d sessions, %d rejects\n",
		*index, st.Requests, st.AccApplied, st.AccDups, st.Sessions, st.Rejects)
	if st.JournalRecords+st.Replayed+st.Snapshots > 0 {
		fmt.Printf("fockd %d: durability: %d journaled, %d replayed at start, %d snapshots, epoch %d\n",
			*index, st.JournalRecords, st.Replayed, st.Snapshots, st.Epoch)
	}
	if st.ReplSent+st.ReplApplied+st.Promotions > 0 {
		fmt.Printf("fockd %d: replication: %d forwarded, %d applied from stream, %d promotions\n",
			*index, st.ReplSent, st.ReplApplied, st.Promotions)
	}
	if st.BlocksIn+st.BlocksOut+st.Freezes+st.PlacementFenced > 0 {
		fmt.Printf("fockd %d: elastic: %d blocks in, %d out, %d freezes, %d ops fenced, placement gen %d, %d still hosted\n",
			*index, st.BlocksIn, st.BlocksOut, st.Freezes, st.PlacementFenced, st.PGen, st.HostedProcs)
	}
}

// runMulti serves the hfd job service's shard role: many concurrent
// job-scoped sessions, each with its own grid, admitted against a
// session cap and a memory budget. Volatile by design — a killed shard
// forgets its sessions and hfd retries the affected jobs from their
// checkpoints under fresh sessions.
func runMulti(servers, index, maxSessions int, memBudget int64, listen, httpAddr string) {
	ms, err := netga.NewMultiServer(servers, index, maxSessions, memBudget)
	fatalIf(err)
	addr, err := ms.Start(listen)
	fatalIf(err)
	if httpAddr != "" {
		metrics.PublishFunc("fock_multi", func() any { return ms.Stats() })
		dbg, err := metrics.StartDebugServer(httpAddr, nil)
		fatalIf(err)
		fmt.Printf("fockd: debug endpoint on http://%s/debug/vars\n", dbg)
	}
	fmt.Printf("fockd %d/%d (multi-session): serving on %s (cap %d sessions, budget %d MiB)\n",
		index, servers, addr, maxSessions, memBudget>>20)

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	ms.Close()
	st := ms.Stats()
	fmt.Printf("fockd %d: %d requests, %d accs applied, %d dedup hits, %d sessions opened, %d session rejects\n",
		index, st.Requests, st.AccApplied, st.AccDups, st.SessionsOpened, st.SessionRejects)
}

// runFleet runs the elastic fleet coordinator: membership leases, the
// versioned placement, and the block-migration engine.
func runFleet(grid *dist.Grid2D, listen string, ttl time.Duration, httpAddr string) {
	f := netga.NewFleet(grid, netga.FleetConfig{LeaseTTL: ttl})
	addr, err := f.Start(listen)
	fatalIf(err)
	if httpAddr != "" {
		metrics.PublishFunc("fock_fleet", func() any {
			return struct {
				Stats netga.FleetStats `json:"stats"`
				View  netga.FleetView  `json:"view"`
			}{f.Stats(), f.View()}
		})
		dbg, err := metrics.StartDebugServer(httpAddr, nil)
		fatalIf(err)
		fmt.Printf("fockd fleet: debug endpoint on http://%s/debug/vars\n", dbg)
	}
	fmt.Printf("fockd fleet: coordinating %d blocks on %s (lease TTL %v)\n",
		grid.NumProcs(), addr, ttl)

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	st := f.Stats()
	f.Close()
	fmt.Printf("fockd fleet: %d members (%d dead, %d leaving), %d joins, %d rejoins, %d leaves, %d expiries, %d promotions, %d blocks moved, view gen %d, placement gen %d\n",
		st.Members, st.Dead, st.Leaving, st.Joins, st.Rejoins, st.Leaves,
		st.Expiries, st.Promotions, st.BlocksMoved, st.ViewGen, st.PlacementGen)
}

func parseGrid(s string) (int, int, error) {
	parts := strings.Split(s, "x")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("grid must be RxC, got %q", s)
	}
	r, err := strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, err
	}
	c, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, err
	}
	return r, c, nil
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fockd:", err)
		os.Exit(1)
	}
}
