GO ?= go

.PHONY: build test vet race generate-check net-test cache-test serve-test serve-ha e2e-flake ci microbench bench-gate

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

# Stored-ERI cache gate under the race detector: the store unit layer
# (commit idempotence, budget/spill/drop legs, blob keying), record/replay
# equivalence against the serial oracle (including under chaos with
# exactly-once accounting), one stored batch replayed against different
# densities staying linear in D, the default-option reference energies
# (the cached alkane:6 run among them), and the blob spill legs over the
# real transport, and the service path: every hfd job attempt records and
# replays within the store share of its admission charge (full, partial
# and no store), its totals summed into the runner's one counter set.
cache-test:
	$(GO) test -race -count=1 -run 'TestERIStore|TestStore|TestStoredBatchReplayIsLinearInDensity|TestDefaultOptionsReproduceReferenceEnergies|TestPerIterationFockStats|TestBlowUpReportedAtProducingIteration|TestBlob|TestSpillE2E|TestCacheAdd|TestFleetRunnerStoreShare' ./internal/integrals/ ./internal/core/ ./internal/scf/ ./internal/net/ ./internal/metrics/ ./internal/serve/

# Multi-tenant HF service gate under the race detector: the overload +
# chaos acceptance e2e (burst at 4x admission capacity onto a live
# 2-shard fleet; every accepted job must match its solo energy to 1e-9,
# including across an injected mid-SCF shard kill+restart; rejections
# must be explicit and land in <100ms), plus the multi-session shard
# layer, the fair-share/quota/shed scheduler, and the job lifecycle
# unit tests, and the memory charges: local buffers per lane in the
# admission charge, the store share a job's run gets at dispatch without
# crowding out admission, and finished jobs kept queryable with their
# older event histories trimmed; the runner's pooled shard conns (one
# hello per shard per session, a restarted shard redialed without a
# retry) and finished jobs' checkpoint files removed.
serve-test:
	$(GO) test -race -count=1 -run 'TestOverloadEndToEnd|TestFleetRunnerStoreShare|TestFleetRunnerPoolsConns|TestFleetRunnerRedialsRestartedShard|TestFinishedJobsLeaveNoCheckpoints|TestStoresLeaveRoomForAdmission|TestFinishedJobsKeepStatus|TestMultiServer|TestLayoutRoundTrip|TestClassifyFailureCounters|TestFairShare|TestTenantQuotas|TestShedLadder|TestAdmission|TestMemoryBudget|TestDeadline|TestClientCancel|TestPreemption|TestNoPreemption|TestDrain|TestEventStream' ./internal/serve/ ./internal/net/

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
# jobs on its first scan (no tick) but never one whose charge admission
# would refuse, cross-peer owner redirects, the fault plan and schedule
# the e2e's kill fires from, and the background checkpoint writer an
# adopter's resume depends on: its rent-or-buy cadence, the last completed
# iteration handed over and flushed on every exit of a solve but
# convergence, F/D handed over uncopied (the race detector is the
# check), a failed write sticky, CkptIter advertised only after the file
# is durable, a dead owner's file kept for its adopter and a finished
# job's removed, and the pooled conns a restarted shard leaves dead.
serve-ha:
	$(GO) test -race -count=1 -run 'TestHAEndToEnd|TestReadyzDrainTransition|TestPeerReadyWithoutTick|TestPeerAdoptsOrphanOnStart|TestPeerAdoptsOnlyWhatItWouldAdmit|TestOwnerRedirect|TestKilledPeerLosesLeasesAndSurvivorAdopts|TestLeaseAcquireRenewExpiry|TestIncarnationFencing|TestDoubleAdoptOneWinner|TestReleaseMakesImmediatelyAdoptable|TestFinishThenPublish|TestRegistryRecovery|TestSnapshotBoundary|TestRegistryGoldenBytes|PlanDeterministic|ExecutesSchedule|TestWAL|TestCkptWriter|TestCheckpointFlushedOnEveryExitPath|TestCheckpointWriteFailureFailsRun|TestCheckpointHandOffIsRaceFree|TestCheckpointCadenceRentOrBuy|TestCheckpointDurableBeforeAdvertised|TestFleetRunnerRedialsRestartedShard|TestFinishedJobsLeaveNoCheckpoints' ./internal/serve/ ./internal/scf/ ./internal/fault/ ./internal/wal/

# Flake hunt: every timing-sensitive end-to-end test 20 times over
# (non-race, about two minutes). A flaky e2e is a failing e2e — an assertion that
# depends on scheduling luck must not merge.
e2e-flake:
	$(GO) test -count=20 -run 'TestHAEndToEnd|TestOverloadEndToEnd|TestFleetRunnerRedialsRestartedShard|TestAPIStreamsRealJob|TestPreemptionResumesFromSlowCheckpoint|TestChaosSweepBuildMatchesSerial|TestSpillE2EReplayMatchesSerial' ./internal/serve/ ./internal/net/

# The aggregate gate. `race` already runs every test of the named subset
# gates (net-test, cache-test, serve-test, serve-ha) under the race
# detector, so those stay developer targets and parallel workflow jobs
# instead of running twice here. The structural rules (gofmt among them)
# are TestStructure in the root package, so `test` and `race` run them.
ci: build vet generate-check race e2e-flake

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
