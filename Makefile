GO ?= go
FUZZTIME ?= 30s

# Pinned versions of the external analyzers `make lint` runs when they
# are installed (CI installs exactly these; offline dev environments
# skip them with a notice — dexvet itself always runs, it needs nothing
# beyond the repo).
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build test test-race vet fmt lint check bench bench-graph bench-core bench-json bench-diff perfbench profile-churn mutants fuzz fuzz-churn fuzz-graph fuzz-crash sim sim-scale dht experiments

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race gate over the whole module. The concurrency hot spots (the
# dex.Concurrent façade and its async event dispatcher, persistence)
# are where races have actually lived, but the full sweep costs little
# on top and has no blind spots.
test-race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Static-analysis gate, required in CI: dexvet mechanizes the repo's
# own invariants (guard discipline, engine determinism, 0-alloc hot
# paths, slot-native mutators — see cmd/dexvet and internal/analysis);
# staticcheck and govulncheck run at the pinned versions when
# installed. Zero unannotated findings is the merge bar: fix the code
# or annotate the site with //dexvet:allow <rule> <reason>.
lint:
	$(GO) run ./cmd/dexvet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed — skipped (CI pins $(STATICCHECK_VERSION))"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed — skipped (CI pins $(GOVULNCHECK_VERSION))"; \
	fi

check: build vet fmt lint test

bench:
	$(GO) test -bench . -benchtime 200x -run '^$$' .

# Substrate micro-benchmarks: walk-hop and edge-churn cost on the flat
# adjacency arena vs the map-of-maps Ref baseline (BenchmarkWalkHop must
# report 0 allocs/op).
bench-graph:
	$(GO) test ./internal/graph -run '^$$' -bench 'WalkHop|GraphChurn' -benchtime 100000x

# Engine-state benchmarks + alloc gates: one steady-state recovery op
# (delete+insert) at 10^5 nodes on the slot-indexed store, the
# zero-allocation gates on the recovery path
# (mirrors bench-graph one layer up), and the Concurrent-façade churn
# rows at 1/4/8/16 submitters.
bench-core:
	$(GO) test ./internal/core -run 'ZeroAllocs' -count 1 -v
	$(GO) test ./internal/core -run '^$$' -bench RecoveryOp -benchtime 2000x -timeout 20m
	$(GO) test . -run '^$$' -bench ConcurrentChurn -benchtime 300x -timeout 20m

# Machine-readable benchmark baselines: re-run the hot-path benchmarks
# with -benchmem and emit BENCH_core.json / BENCH_graph.json via
# cmd/benchjson. CI diffs fresh runs against the committed files via
# cmd/benchdiff (see bench-diff below). The core and persist packages
# run in separate invocations — `go test p1 p2` runs the two test
# binaries concurrently, and the contention skews the gated
# RecoveryOp row by 20%+. The graph rows use a 2M-iteration window
# (at ~200ns/op, 100000x is a 20ms sample and pure scheduler noise),
# and every gated row is the fastest of several reruns — benchjson
# keeps the minimum per name, the noise-robust statistic on a host with
# steal (the recovery-op row takes 6: measured steal bursts run 2-3
# samples long, so 3 reruns can miss the floor entirely).
bench-json:
	$(GO) test ./internal/core -run '^$$' \
		-bench 'RecoveryOp/dense' -benchtime 200x -benchmem -count 6 -timeout 20m \
		| $(GO) run ./cmd/benchjson > BENCH_core.json
	$(GO) test ./internal/persist -run '^$$' \
		-bench 'WALAppend|Checkpoint' -benchtime 200x -benchmem -timeout 20m \
		| $(GO) run ./cmd/benchjson -append BENCH_core.json
	$(GO) test . -run '^$$' \
		-bench 'ConcurrentChurn' -benchtime 300x -benchmem -timeout 20m \
		| $(GO) run ./cmd/benchjson -append BENCH_core.json
	$(GO) test ./internal/graph -run '^$$' \
		-bench 'WalkHop|GraphChurn' -benchtime 2000000x -benchmem -count 3 \
		| $(GO) run ./cmd/benchjson > BENCH_graph.json

# Thresholded benchmark ratchet: regenerate fresh measurements and diff
# them against the committed baselines. The walk-hop, graph-churn,
# recovery-op, and serialized façade-churn (c=1) rows fail on >10%
# ns/op drift or any allocs/op increase; all other rows are report-only (runner noise makes
# a blanket hard gate hostile).
bench-diff:
	$(GO) test ./internal/core -run '^$$' \
		-bench 'RecoveryOp/dense' -benchtime 200x -benchmem -count 6 -timeout 20m \
		| $(GO) run ./cmd/benchjson > /tmp/bench_core_fresh.json
	$(GO) test ./internal/persist -run '^$$' \
		-bench 'WALAppend|Checkpoint' -benchtime 200x -benchmem -timeout 20m \
		| $(GO) run ./cmd/benchjson -append /tmp/bench_core_fresh.json
	$(GO) test . -run '^$$' \
		-bench 'ConcurrentChurn' -benchtime 300x -benchmem -timeout 20m \
		| $(GO) run ./cmd/benchjson -append /tmp/bench_core_fresh.json
	$(GO) test ./internal/graph -run '^$$' \
		-bench 'WalkHop|GraphChurn' -benchtime 2000000x -benchmem -count 3 \
		| $(GO) run ./cmd/benchjson > /tmp/bench_graph_fresh.json
	$(GO) run ./cmd/benchdiff -baseline BENCH_core.json -fresh /tmp/bench_core_fresh.json \
		-gate 'BenchmarkRecoveryOp/dense/n=100000,BenchmarkConcurrentChurn/serialized/c=1'
	$(GO) run ./cmd/benchdiff -baseline BENCH_graph.json -fresh /tmp/bench_graph_fresh.json \
		-gate 'BenchmarkWalkHop,BenchmarkGraphChurn'

# The repo benchmark (BENCHMARK.json): one workload of perfbench/ —
# steady, rebuild or durable — built from this checkout into
# .bench_build/ and run for a 10 s measured window, printing every
# end-to-end metric by name. Run-to-run comparisons must keep SEED
# fixed; the exact counters (msgs/rounds/topo per op) repeat bit for bit.
WORKLOAD ?= steady
SEED ?= 1

perfbench:
	bash perfbench/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds 10 --trace 0

# Churn-trace profiling: a CPU + allocation pprof pair for the engine's
# steady-state churn hot path — the profile that motivated PR 10's
# findNbr fence and insert fast path. Artifacts land in profiles/
# (the directory is committed, its contents are git-ignored); inspect
# with `go tool pprof profiles/churn_cpu.pprof`. CI runs this with
# PROFILE_BENCHTIME=20x and PROFILE_FLAGS=-short purely as a
# does-the-target-still-build-and-run smoke, so the profiling recipe
# cannot rot.
PROFILE_BENCHTIME ?= 200x
PROFILE_FLAGS ?=

profile-churn:
	@mkdir -p profiles
	$(GO) test ./internal/core -run '^$$' -bench 'RecoveryOp/dense/n=100000' \
		-benchtime $(PROFILE_BENCHTIME) -timeout 20m $(PROFILE_FLAGS) \
		-cpuprofile profiles/churn_cpu.pprof -memprofile profiles/churn_alloc.pprof

# Mutation harness: copies the module into a temp dir, seeds each fault
# listed in internal/core/mutants_test.go into its target file (store.go
# for the state store, invariant.go for the audit's row check) in turn,
# and requires `go test -short ./internal/core ./internal/persist` to
# fail on every one. An anchor that no longer matches exactly once
# fails the harness, so the mutant list cannot rot silently. Runs the
# two suites once per mutant (a few minutes).
mutants:
	$(GO) test -tags mutants ./internal/core -run '^TestMutants$$' -count 1 -timeout 60m -v

# Differential fuzzing, one target per oracle tier: FuzzChurnTrace
# replays decoded operation traces under the incremental-vs-full-rebuild
# oracle plus the exhaustive invariant check; FuzzGraphOps replays graph
# mutation sequences against the map-of-maps Ref oracle (swap-safety for
# the flat adjacency arena); FuzzCrashRecovery kills persistent runs at
# arbitrary points (including torn/corrupted WAL tails) and demands the
# recovered network match a fresh oracle run of the surviving prefix.
fuzz: fuzz-churn fuzz-graph fuzz-crash

fuzz-churn:
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzChurnTrace -fuzztime $(FUZZTIME)

fuzz-graph:
	$(GO) test ./internal/graph -run '^$$' -fuzz FuzzGraphOps -fuzztime $(FUZZTIME)

fuzz-crash:
	$(GO) test ./internal/persist -run '^$$' -fuzz FuzzCrashRecovery -fuzztime $(FUZZTIME)

sim:
	$(GO) run ./cmd/dexsim -n0 128 -steps 1000 -adversary random -gap-every 100

# Scale demonstration: grow past 10^5 nodes with the o(n) sampled audit
# verifying every step (use -steps 1000000 for the 10^6-node run).
sim-scale:
	$(GO) run ./cmd/dexsim -n0 8192 -steps 100000 -pinsert 1.0 -adversary insert -gap-every 0 -audit sampled

dht:
	$(GO) run ./cmd/dexdht -n0 64 -keys 1000 -churn 500

experiments:
	$(GO) run ./cmd/dexbench -exp all
