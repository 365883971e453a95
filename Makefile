GO ?= go
NET_SRC = $(filter-out %_test.go,$(wildcard internal/net/*.go))
CORE_SRC = $(filter-out %_test.go,$(wildcard internal/core/*.go))
SCF_SRC = $(filter-out %_test.go,$(wildcard internal/scf/*.go))
INTEGRALS_SRC = $(filter-out %_test.go,$(wildcard internal/integrals/*.go))

.PHONY: build test vet race generate-check net-test net-smoke net-failover net-elastic cache-test serve-test serve-ha e2e-flake fmt-check wal-single backend-single server-single session-single core-single screen-single perimeter-single guess-single scf-single ci microbench bench-gate

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-detector run of the full suite; the chaos tests exercise the
# fault-tolerant build's concurrency hardest. The second run pins
# GOMAXPROCS so that a rank's fork-join is exercised with one lane and
# with four on any runner, whatever its core count.
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,4 ./internal/core/ ./internal/scf/

# Regenerate the ERI kernels (every s/p and d class but ss|ss) and fail
# if the committed kernels_gen.go drifted from what cmd/kernelgen emits —
# edits belong in the generator, never in the generated file.
generate-check:
	$(GO) generate ./internal/integrals
	git diff --exit-code -- internal/integrals/kernels_gen.go

# Transport-focused gate: race-detector run of the network and
# global-array packages.
net-test:
	$(GO) test -race ./internal/net/... ./internal/dist/...

# Fixed-seed loopback chaos smoke: the Fock build over TCP shard
# servers under injected resets/dups/partitions must match the serial
# oracle with exactly-once accumulation.
net-smoke:
	$(GO) test -count=1 -run 'TestLoopback(Chaos)?BuildMatchesSerial' ./internal/net/

# Process-kill chaos gate under the race detector: durable shard servers
# SIGKILLed and restarted (snapshot + journal replay) mid-build, and a
# primary killed with no restart so its hot standby must be promoted —
# both must match the serial oracle with exactly-once accumulation, plus
# the durability/failover unit layer (journal replay property, dedup
# eviction bounds, graceful shutdown) and the internal/wal crash-point
# enumeration underneath it.
net-failover:
	$(GO) test -race -count=1 -run 'TestLoopbackKillRestartBuildMatchesSerial|TestLoopbackStandbyPromotionBuildMatchesSerial|TestJournal|TestSnapshot|TestKillRestartRecoversState|TestDedupEvictionAtCheckpointOnly|TestGracefulShutdownFlushesSnapshot|TestStandbyPromotionPreservesState|TestServerKill|TestRunServerKills|TestWAL' ./internal/net/ ./internal/fault/ ./internal/wal/

# Elastic-fleet gate under the race detector: the membership-churn chaos
# build (shard join, graceful leave, and primary kill mid-build on a
# deterministic schedule must match the serial oracle exactly-once), plus
# the fleet coordinator unit layer (lease expiry, standby promotion,
# drain), the placement property tests (deterministic minimal-move
# rebalance), and the concurrent-promotion single-flight router test.
net-elastic:
	$(GO) test -race -count=1 -run 'TestElasticChurnBuildMatchesSerial|TestFleet|TestRebalance|TestRouter|TestMembershipChurn' ./internal/net/ ./internal/fault/

# Stored-ERI cache gate under the race detector: the store unit layer
# (commit idempotence, budget/spill/drop legs, blob keying), record/replay
# equivalence against the serial oracle (including under chaos with
# exactly-once accounting), one stored batch replayed against different
# densities staying linear in D, the default-option reference energies
# (the cached alkane:6 run among them), and the blob spill legs over the
# real transport.
cache-test:
	$(GO) test -race -count=1 -run 'TestERIStore|TestStore|TestStoredBatchReplayIsLinearInDensity|TestDefaultOptionsReproduceReferenceEnergies|TestPerIterationFockStats|TestBlowUpReportedAtProducingIteration|TestBlob|TestSpillE2E' ./internal/integrals/ ./internal/core/ ./internal/scf/ ./internal/net/

# Multi-tenant HF service gate under the race detector: the overload +
# chaos acceptance e2e (burst at 4x admission capacity onto a live
# 2-shard fleet; every accepted job must match its solo energy to 1e-9,
# including across an injected mid-SCF shard kill+restart; rejections
# must be explicit and land in <100ms), plus the multi-session shard
# layer, the fair-share/quota/shed scheduler, and the job lifecycle
# unit tests.
serve-test:
	$(GO) test -race -count=1 -run 'TestOverloadEndToEnd|TestMultiServer|TestLayoutRoundTrip|TestClassifyFailureCounters|TestFairShare|TestTenantQuotas|TestShedLadder|TestAdmission|TestMemoryBudget|TestDeadline|TestClientCancel|TestPreemption|TestNoPreemption|TestDrain|TestEventStream' ./internal/serve/ ./internal/net/

# HA service-tier gate under the race detector: the daemon-kill chaos
# e2e (3 peers sharing a lease registry over a live 2-shard fleet, one
# peer SIGKILLed mid-burst; survivors must adopt its leases and resume
# from checkpoint, every accepted job finishing with its solo energy to
# 1e-9 and clients seeing at most one retriable error), plus the
# fake-clock lease unit suite (acquire/renew/expiry, incarnation
# fencing, double-adopt race with exactly one winner), registry WAL
# recovery (incl. the snapshot-boundary crash and the internal/wal
# crash-point enumeration), the finish-then-publish contract, readiness
# drain transitions, a new peer ready and adopting already-orphaned
# jobs on its first scan (no tick), cross-peer owner redirects, the
# deterministic daemon-kill schedule, and the background checkpoint
# writer an adopter's
# resume depends on: latest-wins, flushed on every exit of a solve, F/D
# handed over uncopied (the race detector is the check), a failed write
# sticky, and CkptIter advertised only after the file is durable.
serve-ha:
	$(GO) test -race -count=1 -run 'TestHAEndToEnd|TestReadyzDrainTransition|TestPeerReadyWithoutTick|TestPeerAdoptsOrphanOnStart|TestOwnerRedirect|TestKilledPeerLosesLeasesAndSurvivorAdopts|TestLeaseAcquireRenewExpiry|TestIncarnationFencing|TestDoubleAdoptOneWinner|TestReleaseMakesImmediatelyAdoptable|TestFinishThenPublish|TestRegistryRecovery|TestSnapshotBoundary|TestRegistryGoldenBytes|TestDaemonKillPlanDeterministic|TestRunDaemonKillsExecutesSchedule|TestWAL|TestCkptWriter|TestCheckpointFlushedOnEveryExitPath|TestCheckpointWriteFailureFailsRun|TestCheckpointHandOffIsRaceFree|TestCheckpointDurableBeforeAdvertised' ./internal/serve/ ./internal/scf/ ./internal/fault/ ./internal/wal/

# Flake hunt: every timing-sensitive end-to-end test 20 times over
# (non-race, about a minute). A flaky e2e is a failing e2e — an assertion that
# depends on scheduling luck must not merge.
e2e-flake:
	$(GO) test -count=20 -run 'TestHAEndToEnd|TestOverloadEndToEnd|TestAPIStreamsRealJob|TestPreemptionResumesFromSlowCheckpoint|TestElasticChurnBuildMatchesSerial|TestLoopbackKillRestartBuildMatchesSerial|TestLoopbackStandbyPromotionBuildMatchesSerial|TestSpillE2EReplayMatchesSerial' ./internal/serve/ ./internal/net/

# Every tracked Go file is gofmt-clean (`gofmt -w <file>` fixes a hit).
fmt-check:
	@bad="$$(gofmt -l $$(git ls-files '*.go'))"; test -z "$$bad" || { echo "not gofmt-clean:"; echo "$$bad"; exit 1; }

# One durability implementation, checked mechanically: outside
# internal/wal (and tests) nothing checksums a frame, fsyncs, or renames
# a file into place — except the one .prev rotation of the SCF
# checkpoint. A hit means a hand-rolled WAL or atomic write crept back.
wal-single:
	@! grep -rn --include='*.go' --exclude='*_test.go' -e 'crc32\.' -e '\.Sync()' internal cmd | grep -v '^internal/wal/'
	@! grep -rn --include='*.go' --exclude='*_test.go' 'os\.Rename' internal cmd | grep -v -e '^internal/wal/' -e '^internal/scf/checkpoint\.go:'
	@test "$$(grep -c 'os\.Rename' internal/scf/checkpoint.go)" -le 1

# One transport contract, checked mechanically: outside tests no type
# grows a retrying, fenced or error-twin one-sided method again (the two
# loops in internal/dist/retry.go are the only ones), the network client
# sleeps a backoff nowhere but in its driver-op loop, and the static
# membership map the fleet view superseded stays gone.
backend-single:
	@! grep -rnE --include='*.go' --exclude='*_test.go' 'func \(.*\) (GetRetry|AccFencedRetry|AccFenced|Fallible|SetFence|LoadMatrixErr|ToMatrixErr)\(' internal cmd
	@test "$$(grep -c 'SleepBackoff(' internal/net/client.go)" -eq 1
	@test "$$(awk '/^func \(c \*Client\) driverOp\(/,/^}/' internal/net/client.go | grep -c 'SleepBackoff(')" -eq 1
	@! grep -rn 'WithMembership\|SetMembership\|lookupStandby' internal cmd

# One shard server and one ERI engine, checked mechanically: in non-test
# internal/net there is one accept loop, one per-conn serve loop, one
# hello and one accumulate loop — the pinned and the admitting session
# table (NewServer, NewMultiServer) share all four — and the second
# production ERI algorithm stays gone.
server-single:
	@test "$$(cat $(NET_SRC) | grep -c 'Accept()')" -eq 1
	@test "$$(cat $(NET_SRC) | grep -cE '^func \(.*\) serveConn\(')" -eq 1
	@test "$$(cat $(NET_SRC) | grep -cE '^func \(.*\) hello\(')" -eq 1
	@test "$$(cat $(NET_SRC) | grep -cF 'dst[i] += req.Alpha * row[i]')" -eq 1
	@! grep -rn 'UseHGP\|eriCartHGP' internal cmd

# One net session, checked mechanically: outside internal/net (and tests)
# nobody assembles a D/F client pair — netga.Session is the one place —
# the hand-rolled backend factories and the in-core SCF engine stay gone,
# and the drivers share dist.ParseGrid.
session-single:
	@! grep -rn --include='*.go' --exclude='*_test.go' 'Array: *[01]\|\.Array = ' cmd internal | grep -v '^internal/net/'
	@! grep -rn 'persistentBackend\|netFactory\|fleetFactory\|EngineInCore' cmd internal
	@test "$$(cat cmd/*/*.go | grep -c '^func parseGrid')" -eq 0

# One worker runtime, checked mechanically: in non-test internal/core no
# code branches on whether a ledger exists or keeps the fence beside it,
# the worker walks a footprint's patches in one place, the two test-only
# lease options stay gone, and the general-kernel switch lives only in
# internal/integrals (its tests' oracle). Lanes have no knob: GOMAXPROCS
# is read in one place, and neither Options struct grows a thread count.
core-single:
	@! grep -nE 'led [!=]= nil|\.fence\b|MonitorEvery|MaxFaultRounds' $(CORE_SRC)
	@test "$$(grep -c '\.Patches(' internal/core/real.go)" -eq 1
	@test "$$(cat $(CORE_SRC) | grep -c 'GOMAXPROCS(')" -eq 1
	@! awk '/^type Options struct/,/^}/' internal/core/real.go internal/scf/scf.go | grep -E '^[[:space:]]+(Num)?(Threads|Lanes|Workers)\b'
	@! grep -rn --include='*.go' --exclude='*_test.go' 'DisableFastKernels' internal cmd | grep -v '^internal/integrals/'

# One quartet screen, checked mechanically: Cauchy-Schwarz at tau over a
# primitive prescreen fixed at integrals.PrimTol. The density-weighted
# screen, the dD telescope and the QQR bound stay gone; no struct but
# integrals.Engine has a PrimTol field to thread a second value through;
# and outside tests the constant is read by exactly the four production
# pair tables (RunHF's, the atomic guess's, core.Build's fallback and
# nwchem.Build's) and cmd/paper's Table V.
screen-single:
	@! grep -rnE --include='*.go' 'DensityScreen|DeltaD|UpdateDensity|MaxQuartetDensity|NewQQR' cmd internal gtfock.go
	@! grep -rnE --include='*.go' '^[[:space:]]+PrimTol[[:space:]]+float64' cmd internal gtfock.go | grep -v '^internal/integrals/md\.go:'
	@test "$$(grep -rl --include='*.go' --exclude='*_test.go' 'integrals\.PrimTol' cmd internal gtfock.go | LC_ALL=C sort | tr '\n' ' ')" = "cmd/paper/tables.go internal/core/real.go internal/nwchem/real.go internal/scf/guess.go internal/scf/scf.go "

# One perimeter, checked mechanically: every internal package is in the
# non-test dependency closure of something that runs (a command, the
# benchmark, the facade); the packages, alternatives and test-only
# helpers deleted for serving no tier and no table stay gone (their
# measured numbers are in EXPERIMENTS.md "Ablations"); the one-electron
# integrals have one path, CoreHamiltonian's single pass, with the
# per-matrix T and V builders and their per-pair context only in the
# tests' oracle; and cmd/ and examples/ hold exactly the seven commands
# and the one compiled README snippet.
perimeter-single:
	@test "$$($(GO) list -deps ./cmd/... ./benchmark . | grep '^gtfock/internal/' | sort -u)" = "$$($(GO) list ./internal/...)"
	@! grep -rnE --include='*.go' 'internal/(correlate|props)|AOTensor|reorder\.Morton|StealRichest|finalizeOrbitals|gwhGuess|GrapheneRibbon|MatMulParallel|runChaos' cmd internal examples gtfock.go
	@! grep -nE 'newOE1Ctx|Kinetic\(|NuclearAttraction\(' $(INTEGRALS_SRC)
	@test "$$(ls cmd | tr '\n' ' ')" = "fockbuild fockd hf hfd kernelgen loadgen paper "
	@test "$$(ls examples)" = "quickstart"

# scf_callers prints, once each, the non-test internal/scf functions whose
# body calls $(1) (a call on the func line itself counts).
scf_callers = awk '/^func /{f=$$0; sub(/\(.*/, "", f); b=$$0; sub(/^func [^{]*\{/, "", b)} !/^func /{b=$$0} b ~ /$(1)\(/{print f}' $(SCF_SRC) | sort -u

# One starting density, checked mechanically: every cold SCF starts from
# scf.GuessDensity and nothing selects another start — scf.Options has no
# Guess* or InitialDensity field, neither hf nor fockbuild defines a
# -guess flag, fockbuild's identity density stays gone, and in non-test
# internal/scf exactly one function (atomicDensity) runs the atomic SCF
# and only the memo (atomFor) calls it.
guess-single:
	@! awk '/^type Options struct/,/^}/' internal/scf/scf.go | grep -E '^[[:space:]]+(Guess[A-Za-z0-9]*|InitialDensity)\b'
	@! grep -nE 'flag\.[A-Za-z0-9]+\((&[^,]+, *)?"guess' cmd/hf/*.go cmd/fockbuild/*.go
	@! grep -rnw --include='*.go' guessDensity cmd internal gtfock.go
	@test "$$($(call scf_callers,sphericalBlock))" = "func atomicDensity"
	@test "$$($(call scf_callers,atomicDensity))" = "func atomFor"

# One Fock build in the SCF, checked mechanically: non-test internal/scf
# builds G in one place (buildG, the one core.Build call), which RunHF and
# the atomic guess both call, and never imports the NWChem baseline (a
# Fock-build comparison, not an SCF engine); the NWChem and serial engine
# values and the guess's hand-rolled ERI tensor stay gone; and hf has no
# -engine flag.
scf-single:
	@! grep -n '"gtfock/internal/nwchem"' $(SCF_SRC)
	@test "$$(cat $(SCF_SRC) | grep -c 'core\.Build(')" -eq 1
	@test "$$($(call scf_callers,buildG) | LC_ALL=C sort | tr '\n' ' ')" = "func RunHF func atomicDensity "
	@! grep -rnE --include='*.go' 'EngineNWChem|EngineSerial|eriTensor' cmd internal examples gtfock.go
	@! grep -nE 'flag\.[A-Za-z0-9]+\((&[^,]+, *)?"engine"' cmd/hf/*.go

# The aggregate gate. `race` already runs every test of the named subset
# gates (net-smoke, net-failover, net-elastic, cache-test, serve-test,
# serve-ha) under the race detector, so those stay developer targets and
# parallel workflow jobs instead of running twice here.
ci: build vet fmt-check generate-check wal-single backend-single server-single session-single core-single screen-single perimeter-single guess-single scf-single race e2e-flake

# Per-class ERI kernel microbenchmarks (one iteration each; a
# compile-and-run smoke that also prints ns per primitive quartet),
# BenchmarkBoys*, and BenchmarkOverlap / BenchmarkCoreHamiltonian at
# alkane:6/sto-3g and CH4/cc-pVDZ. For diagnosis only: nothing gates on
# them.
microbench:
	$(GO) test -bench . -benchtime 1x -run NONE ./internal/integrals/

# The performance gate: the benchmark BENCHMARK.json declares, run on the
# committed tree of BASE (a detached worktree under .bench_build/, built
# from its own source by its own benchmark/run.sh) and on the working
# tree, on this box, back to back; -compare prints one verdict row per
# declared workload x end-to-end metric against the BENCHMARK.json bounds
# and exits non-zero unless every row is `within`. No baseline file
# crosses machines. About eight minutes on a 2-core box.
bench-gate:
	@test -n "$(BASE)" || { echo "usage: make bench-gate BASE=<git ref>" >&2; exit 2; }
	@git worktree remove --force .bench_build/base 2>/dev/null; git worktree prune
	git worktree add --detach .bench_build/base $(BASE)
	bash .bench_build/base/benchmark/run.sh -out $(CURDIR)/.bench_build/base.json -runs 5 -seconds 6
	git worktree remove --force .bench_build/base
	bash benchmark/run.sh -out .bench_build/head.json -runs 5 -seconds 6
	$(GO) run ./benchmark -compare .bench_build/base.json .bench_build/head.json
