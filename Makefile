GO ?= go

.PHONY: check build vet test race lint fmtcheck bench benchcmp benchall chaos cluster-smoke batch-smoke sample-smoke partition-smoke fuzz-smoke bench-check

# check gates a change: build + formatting + vet + catchlint + the
# full test suite under the race detector (this includes
# internal/telemetry's concurrent counter/histogram/tracer tests and
# the runner's /metrics tests) + the seeded chaos suite + the
# cluster determinism smoke + the batch-kernel determinism smoke +
# the sampling accuracy smoke + the self-healing partition smoke + a
# short run of every fuzz target + the benchmark module's build and
# tests.
check: build fmtcheck vet lint race chaos cluster-smoke batch-smoke sample-smoke partition-smoke fuzz-smoke bench-check

# smoke runs the named tests of one package, bypassing the go test
# cache so it always re-proves. It first lists the package's tests and
# fails if any named test is missing: a -run pattern drops a renamed or
# deleted test silently, and the target would still pass.
# Usage: $(call smoke,PACKAGE,TEST NAMES[,EXTRA FLAGS])
empty :=
space := $(empty) $(empty)
define smoke
	@pat='^($(subst $(space),|,$(strip $(2))))$$'; \
	listed=$$($(GO) test -list "$$pat" $(1)) || { echo "$$listed"; exit 1; }; \
	for name in $(strip $(2)); do \
		printf '%s\n' "$$listed" | grep -qx "$$name" || \
			{ echo "$(1) has no test $$name; update the smoke target"; exit 1; }; \
	done; \
	echo "$(GO) test -run '$$pat' -count=1 $(3) $(1)"; \
	$(GO) test -run "$$pat" -count=1 $(3) $(1)
endef

# bench-check builds and tests the benchmark module (perfbench/, its own
# Go module over the repository's packages), so an API change that
# breaks the benchmark fails here rather than in a benchmark run.
bench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# partition-smoke proves the self-healing layer: with -replicas 2,
# killing any single peer yields a byte-identical sweep with zero
# recomputation (kill-one-peer variant); the manifest-diff reconcile
# run on a peer's return to live restores full replication, whether
# the peer kept its cache or came back as a fresh process with an
# empty one; and a split-brain 3-node cluster (seeded fault schedule
# severing one node) keeps computing on both sides, then converges
# every key to its full replica set in the first probe round after
# heal, leaving the repair pass nothing to push.
partition-smoke:
	$(call smoke,./internal/cluster,TestClusterReplicationSurvivesKill TestClusterReconcileOnReturn TestClusterDrainRefillsWipedPeer TestClusterPartitionTolerance)

# fuzz-smoke runs every native fuzz target for a short -fuzztime
# beyond its seed corpus (which plain `go test` already replays): the
# POST /v1/run body, the fault-plan parser, the benchmark-output
# parser, the POST /v1/sweep body, the POST /v1/cluster/fill body, the
# POST /v1/cluster/shard body, the job key's one-pass encoder against
# its reference, a disk cache entry read by Cache.GetDisk and checked
# against encoding/json, ValidKey against its regular expression, and
# the peer replies to GET /v1/results/{key}, GET /v1/cluster/manifest
# and POST /v1/cluster/shard; every body one node takes from another
# is checked against encoding/json too. Go fuzzes one target per
# invocation, hence one line per target. A run body's seed names 1,000
# workloads (6 KB), a shard body carries a whole config (about 1 KB), a
# cache entry a whole result list (about 2 KB) written to a fresh
# directory per input, and a fill or peer reply a whole document;
# minimizing each new input that large under the default budget would
# take most of the run, so those seven targets cap it at 100 execs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzRunRequest$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/runner
	$(GO) test -run '^$$' -fuzz '^FuzzParsePlan$$' -fuzztime 10s ./internal/fault
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/perf
	$(GO) test -run '^$$' -fuzz '^FuzzSweepRequest$$' -fuzztime 10s ./internal/runner
	$(GO) test -run '^$$' -fuzz '^FuzzFillRequest$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzShardRequest$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzJobKey$$' -fuzztime 10s ./internal/runner
	$(GO) test -run '^$$' -fuzz '^FuzzCacheEntry$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/runner
	$(GO) test -run '^$$' -fuzz '^FuzzValidKey$$' -fuzztime 10s ./internal/runner
	$(GO) test -run '^$$' -fuzz '^FuzzPeerResult$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzPeerManifest$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzShardReply$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/cluster

# sample-smoke proves representative-interval sampling stays honest:
# the fig13 grid run through a sampling engine must reproduce every
# per-workload normalized performance ratio within 2% of the exact run
# while measuring at least 10x fewer instructions, with zero fallbacks
# to full simulation, and its results must hash to the committed
# sampled golden value.
sample-smoke:
	$(call smoke,./internal/experiments,TestSampleSmokeFig13)

# batch-smoke proves the lock-step batch kernel preserves determinism:
# the fig13 experiment run through a batching engine must hash to the
# same committed golden value as the scalar run, while actually taking
# the batch path.
batch-smoke:
	$(call smoke,./internal/experiments,TestBatchSmokeFig13)

# cluster-smoke proves the distribution layer preserves determinism: a
# 3-node in-memory cluster shards a sweep over the ring and the
# Flattened output must be byte-identical to the single-node run, with
# the chaos variants (dead peer, injected peer faults) alongside.
cluster-smoke:
	$(call smoke,./internal/cluster,TestClusterSmoke TestClusterKillOnePeer TestClusterPeerFaultInjection)

# chaos re-proves determinism under injected faults: seeded fault
# schedules (disk errors, corrupt cache entries, panics, hangs, and a
# kill followed by a re-run over the same cache) over real small
# sweeps must produce byte-identical results vs the fault-free run.
# Runs the runner's four TestChaos* tests; ~1s.
chaos:
	$(call smoke,./internal/runner,TestChaosDeterminismUnderFaults TestChaosKillResumeCycle TestChaosHangRecoversViaTimeout TestChaosBatchHangFallsBack,-v)

# lint runs the in-repo static-analysis suite (see DESIGN.md,
# "Static analysis"): determinism, hotpath-noalloc,
# atomic-consistency, telemetry-discipline, error-hygiene,
# annotation-hygiene, snapshot-coverage, reset-coverage and
# key-coverage.
lint:
	$(GO) run ./cmd/catchlint

# fmtcheck fails if any file is not gofmt-clean (gofmt -l prints the
# offenders; grep . fails the target when the list is non-empty).
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs everything under the race detector; internal/cluster,
# internal/sample and internal/memo run twice because their
# interleavings (replica fan-out and concurrent shard dispatch, the
# sampling profile memo's coalescing, coalesced fills) differ run to
# run.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=2 ./internal/cluster ./internal/sample ./internal/memo

# bench re-records the committed simulator-throughput baseline from the
# per-metric medians of 5 samples per benchmark.
bench:
	$(GO) run ./cmd/catchbench -count 5 -out BENCH_sim.json

# benchcmp runs the Sim* benchmarks fresh (5 samples each, compared by
# median so one noisy sample cannot fail the gate), prints the
# per-benchmark throughput deltas, and fails if any benchmark's
# throughput normalized to BenchmarkSimBaseline (measured in the same
# run, so machine-speed drift cancels in the ratio) dropped more than
# 10% against the committed baseline. Re-record with `make bench` only
# after an intentional performance change.
benchcmp:
	$(GO) run ./cmd/catchbench -count 5 -compare BENCH_sim.json

# benchall regenerates every table/figure benchmark (slow).
benchall:
	$(GO) test -bench=. -benchmem
