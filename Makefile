GO ?= go

.PHONY: build test vet race e2e-flake ci microbench bench-gate

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

# Flake hunt: every timing-sensitive end-to-end test 20 times over
# (non-race, about two minutes). A flaky e2e is a failing e2e — an assertion that
# depends on scheduling luck must not merge.
e2e-flake:
	$(GO) test -count=20 -run 'TestHAEndToEnd|TestOverloadEndToEnd|TestFleetRunnerRedialsRestartedShard|TestAPIStreamsRealJob|TestPreemptionResumesFromSlowCheckpoint|TestChaosSweepBuildMatchesSerial|TestSpillE2EReplayMatchesSerial|TestHeartbeatLeaseLossCancels' ./internal/serve/ ./internal/net/

# The aggregate gate, and the one suite CI runs. `race` runs every test
# of every package under the race detector, so a new test is gated by
# being in ./..., with no list to extend; one package alone is
# `go test -race ./internal/<pkg>/`. The structural rules (gofmt among
# them) are TestStructure in the root package, so `test` and `race` run
# them, and so is the generated-kernel freshness check (cmd/kernelgen's
# TestCommittedKernelsMatchGenerator).
ci: build vet race e2e-flake

# Per-class ERI kernel microbenchmarks (one iteration each; a
# compile-and-run smoke that also prints ns per primitive quartet),
# BenchmarkBoys*, and one benchmark per step of the SCF set-up that
# setup_s times: BenchmarkScreenCompute, BenchmarkNewPairTable
# (alkane:6/sto-3g at primTol 0, as the benchmark's set-up builds it, and
# at PrimTol), BenchmarkOverlap and BenchmarkCoreHamiltonian (alkane:6/
# sto-3g and CH4/cc-pVDZ), so every step has an A/B figure. For diagnosis
# only: nothing gates on them.
microbench:
	$(GO) test -bench . -benchtime 1x -run NONE ./internal/integrals/ ./internal/screen/

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
