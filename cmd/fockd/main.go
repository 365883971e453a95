// Command fockd is one shard server of the network-backed Global Arrays
// transport: it serves framed one-sided Get/Put/Acc RPCs over TCP against
// the D and F blocks of the sessions it holds, with idempotency-token
// dedup so retrying clients accumulate exactly once. It is one server on
// one start, serve, signal, shutdown path; the flags say what its session
// table holds and who else it talks to.
//
// By default the table is pinned to one session over a fixed grid. Every
// such fockd of a cluster — and the fockbuild driver — must be started
// with the same molecule, basis, grid shape, shell ordering and server
// count, so all of them derive the identical block layout (a driver that
// differs is refused at its Hello):
//
//	fockd -mol alkane:2 -basis sto-3g -grid 2x2 -servers 2 -index 0 -listen 127.0.0.1:7101
//	fockd -mol alkane:2 -basis sto-3g -grid 2x2 -servers 2 -index 1 -listen 127.0.0.1:7102
//	fockbuild -mol alkane:2 -basis sto-3g -grid 2x2 -backend net -net-servers 127.0.0.1:7101,127.0.0.1:7102
//
// With -journal-dir the pinned session is durable: mutations are
// write-ahead journaled and periodically snapshotted, and a killed server
// restarted on the same flags replays to its exact pre-crash state and
// resumes the session; that restart is how a static cluster recovers a
// killed shard. With -join it is an elastic member instead of shard
// -index of -servers: it hosts whatever blocks the coordinator migrates
// to it, heartbeats to keep its lease, and on SIGTERM leaves gracefully,
// serving until its blocks have drained to the survivors:
//
//	fockd -fleet -mol alkane:2 -basis sto-3g -grid 2x2 -listen 127.0.0.1:7100
//	fockd -join 127.0.0.1:7100 -member-id 1 -mol alkane:2 -basis sto-3g -grid 2x2
//	fockd -join 127.0.0.1:7100 -member-id 2 -mol alkane:2 -basis sto-3g -grid 2x2
//	fockbuild -mol alkane:2 -basis sto-3g -grid 2x2 -backend net -fleet 127.0.0.1:7100
//
// (-fleet runs that membership/placement coordinator, not a shard.) A
// member's hot standby is a fockd started with -standby-of the member's
// address and advertised by the member with -standby; it serves once the
// coordinator promotes it, when the member's lease expires. The
// coordinator is the one promoter: a driver never promotes.
//
// With -multi the table admits many job-scoped sessions for hfd, each
// carrying its own grid, against -multi-sessions and -multi-mem-mb; it
// needs no molecule. Such a shard is volatile, and says so: combined with
// -journal-dir, -snapshot-every, -standby-of, -join, -standby or -fleet it
// exits non-zero rather than run without the durability it was asked
// for. So does every flag its mode would ignore: -fleet with a shard's
// -journal-dir, -snapshot-every, -standby-of or -join, and a member's
// -standby, -member-id or -incarnation without -join.
//
// SIGTERM and SIGINT shut down gracefully: stop accepting, drain
// in-flight ops, flush a final snapshot, close listeners — so rolling
// restarts do not rely on crash recovery. -http serves /debug/vars with
// the shard (fock_shard) or fleet (fock_fleet) state.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
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
		ord      = flag.String("reorder", "cell", "shell ordering: cell or natural (must match the driver)")
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
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	fatalIf(checkFlags(set))

	var opts []netga.ServerOption
	if *journalDir != "" {
		opts = append(opts, netga.WithDurability(*journalDir, *snapshotEvery))
	}
	if *standbyOf != "" {
		opts = append(opts, netga.WithStandby(*standbyOf))
	}
	var (
		srv  *netga.Server
		what string // the banner's description of the session table
	)
	if *multiMode {
		var err error
		srv, err = netga.NewMultiServer(*servers, *index, *multiSessions, *multiMemMB<<20, opts...)
		fatalIf(err)
		what = fmt.Sprintf("admitting job-scoped sessions (cap %d, budget %d MiB)", *multiSessions, *multiMemMB)
	} else {
		grid, nfuncs := layoutFromFlags(*molSpec, *bname, *ord, *gridSpec)
		if *fleetMode {
			runFleet(grid, *listen, *leaseTTL, *httpAddr)
			return
		}
		var hostedProcs []int
		what = "serving whatever blocks migrate in"
		if *joinAddr == "" {
			if *index < 0 || *index >= *servers {
				fatalIf(fmt.Errorf("-index %d outside [0, %d)", *index, *servers))
			}
			_, hosted := netga.SplitProcs(grid.NumProcs(), *servers)
			hostedProcs = hosted[*index]
			what = fmt.Sprintf("serving procs %v", hostedProcs)
		}
		srv = netga.NewServer(grid, hostedProcs, opts...)
		what += fmt.Sprintf(" of a %dx%d grid (%d funcs)", grid.Prow, grid.Pcol, nfuncs)
	}
	addr, err := srv.Start(*listen)
	fatalIf(err)
	if *httpAddr != "" {
		metrics.PublishFunc("fock_shard", func() any { return srv.Stats() })
		dbg, err := metrics.StartDebugServer(*httpAddr)
		fatalIf(err)
		fmt.Printf("fockd: debug endpoint on http://%s/debug/vars\n", dbg)
	}

	var fm *netga.FleetMember
	who := fmt.Sprintf("%d/%d", *index, *servers)
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
		who = fmt.Sprintf("member %d of fleet %s", *memberID, *joinAddr)
	}
	role := "primary"
	if *standbyOf != "" {
		role = "standby of " + *standbyOf
	}
	fmt.Printf("fockd %s (%s): %s on %s\n", who, role, what, addr)

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
	fmt.Printf("fockd %s: %d requests, %d accs applied, %d dedup hits, %d sessions, %d rejects\n",
		who, st.Requests, st.AccApplied, st.AccDups, st.Sessions, st.Rejects)
	if st.SessionsClosed+st.SessionRejects > 0 {
		fmt.Printf("fockd %s: session table: %d closed, %d still open, %d refused by the cap or the budget\n",
			who, st.SessionsClosed, st.SessionsOpen, st.SessionRejects)
	}
	if st.JournalRecords+st.Replayed+st.Snapshots > 0 {
		fmt.Printf("fockd %s: durability: %d journaled, %d replayed at start, %d snapshots, epoch %d\n",
			who, st.JournalRecords, st.Replayed, st.Snapshots, st.Epoch)
	}
	if st.ReplSent+st.ReplApplied+st.Promotions > 0 {
		fmt.Printf("fockd %s: replication: %d forwarded, %d applied from stream, %d promotions\n",
			who, st.ReplSent, st.ReplApplied, st.Promotions)
	}
	if st.BlocksIn+st.BlocksOut+st.Freezes+st.PlacementFenced > 0 {
		fmt.Printf("fockd %s: elastic: %d blocks in, %d out, %d freezes, %d ops fenced, placement gen %d, %d still hosted\n",
			who, st.BlocksIn, st.BlocksOut, st.Freezes, st.PlacementFenced, st.PGen, st.HostedProcs)
	}
}

// checkFlags refuses a flag that the mode the others select would ignore.
// set holds the names of the flags given on the command line.
func checkFlags(set map[string]bool) error {
	for _, r := range []struct {
		mode, why string
		refused   []string
	}{
		{"multi", "a -multi shard is static and volatile; it needs the pinned session of a -mol/-grid shard",
			[]string{"fleet", "join", "standby", "journal-dir", "snapshot-every", "standby-of"}},
		{"fleet", "the -fleet coordinator holds no shard state; it applies to a shard server",
			[]string{"journal-dir", "snapshot-every", "standby-of", "join"}},
	} {
		for _, f := range r.refused {
			if set[r.mode] && set[f] {
				return fmt.Errorf("-%s with -%s: %s", r.mode, f, r.why)
			}
		}
	}
	for _, f := range []string{"standby", "member-id", "incarnation"} {
		if set[f] && !set["join"] {
			return fmt.Errorf("-%s without -join: it describes a fleet member", f)
		}
	}
	return nil
}

// layoutFromFlags derives the block layout every process of a cluster
// must agree on, and the basis size for the banner.
func layoutFromFlags(molSpec, bname, ord, gridSpec string) (*dist.Grid2D, int) {
	mol, err := chem.ParseSpec(molSpec)
	fatalIf(err)
	bs, err := basis.Build(mol, bname)
	fatalIf(err)
	by, err := reorder.ByName(ord)
	fatalIf(err)
	if by != nil {
		bs = bs.Permute(by(bs))
	}
	prow, pcol, err := dist.ParseGrid(gridSpec)
	fatalIf(err)
	return core.Grid(bs, prow, pcol), bs.NumFuncs
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
				netga.FleetStats
				View netga.FleetView `json:"view"`
			}{f.Stats(), f.View()}
		})
		dbg, err := metrics.StartDebugServer(httpAddr)
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

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fockd:", err)
		os.Exit(1)
	}
}
