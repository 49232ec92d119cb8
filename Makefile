GO ?= go

.PHONY: ci vet build test loc bench-test bench-gate identity race bench profile service-smoke cluster-smoke graph-smoke boundcheck planner-check chaos chaos-tcp bench-transport

ci: vet build test bench-test race

# gofmt -l prints the files it would rewrite; any output fails the lane.
# bench/ is its own module and is vetted by bench-test.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l . | grep -v '^bench/'); test -z "$$unformatted" || { echo "gofmt -l:"; echo "$$unformatted"; exit 1; }

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The size ROADMAP's quality axis tracks: lines of non-test Go outside
# bench/ (tracked or not yet added, ignored build outputs excluded).
loc:
	@git ls-files -co --exclude-standard '*.go' | grep -v -e '^bench/' -e '_test\.go$$' | xargs cat | wc -l

# The benchmark harness is its own module (bench/go.mod, `replace mpcjoin
# => ../`), so the root `go test ./...` never compiles it. This lane does:
# a refactor that renames something bench/ imports fails here instead of
# in the benchmark run.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Run every package that spawns goroutines under the race detector: the
# worker-pool runtime, the mpc primitives it drives, the engine dispatch
# (concurrent executions + cancellation), the query service and its
# admission queue, and the TCP transport's per-peer round trips. CI calls
# this target, so the package list exists once.
race:
	$(GO) test -race ./internal/runtime/... ./internal/mpc/... ./internal/core/... ./internal/server/... ./internal/serve/... ./internal/transport/... ./internal/spmv/...

# One iteration of every Go benchmark in the repo with allocation counts —
# cheap enough for CI, and enough to see an allocation regression in the
# exchange/sort kernels. Numbers to compare across commits come from
# bench/ (bench-gate below), not from here.
bench:
	$(GO) test -run NONE -bench . -benchtime 1x -benchmem ./... | tee bench.txt

# CPU and allocation profiles of the op mixes two workloads run, each
# auto-planned at p=16: tree_mix's (BenchmarkTreeMixShapes: line, star,
# star-like and twig) into .bench_build/treemix.* and matmul_sweep's
# (BenchmarkMatMulSweepShapes: b4, b32, z and u) into .bench_build/matmul.*,
# each beside its test binary — what the next allocation or planning change
# is sized from. For each mix the target prints the top 20 functions by
# allocated bytes (alloc_space) and by CPU, the shares ROADMAP quotes;
# `go tool pprof` on the same files digs further.
profile_mix = $(GO) test -run NONE -bench '$(2)$$' -benchtime 10x -benchmem -o .bench_build/$(1).test \
		-cpuprofile .bench_build/$(1).cpu.prof -memprofile .bench_build/$(1).mem.prof -memprofilerate 4096 . && \
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=20 .bench_build/$(1).test .bench_build/$(1).mem.prof && \
	$(GO) tool pprof -top -nodecount=20 .bench_build/$(1).test .bench_build/$(1).cpu.prof
profile:
	mkdir -p .bench_build
	$(call profile_mix,treemix,TreeMixShapes)
	$(call profile_mix,matmul,MatMulSweepShapes)

# The benchmark gate: bench/run.sh on BASE and on this checkout, every
# workload BENCHMARK.json lists, alternating which side goes first; fails
# when a run is wrong or a deterministic metric (rounds_per_pass,
# load_over_bound_max, alloc_mb_per_pass) is worse than BASE beyond its
# BENCHMARK.json bound. Timing metrics are printed, not gated. ~5 min.
# BASE_DIR names an existing checkout of BASE to use instead of a git
# worktree; the script's --pairs mode (see its header) is how a timing
# claim is measured.
#   make bench-gate BASE=origin/main [BASE_DIR=../base-clone]
bench-gate:
	bash scripts/bench-gate.sh $(BASE) $(BASE_DIR)

# Byte-identity against another checkout (scripts/identity.sh): boundcheck,
# planner-check, chaos in-process and over tcp, and mpcbench -experiment all
# / -graph, all -quick, built and run in BASE_DIR and here; the four reports
# must be cmp-identical, the mpcbench rows identical minus wallNs/commit,
# every table identical minus timing lines. What a refactor of shared code
# shows instead of saying "outputs unchanged". ~30 s.
#   make identity BASE_DIR=../base-clone
identity:
	bash scripts/identity.sh $(BASE_DIR)

# End-to-end lane for the mpcd daemon: the test builds the binary with
# -race, boots it on an ephemeral port, registers a dataset, queries it
# under every strategy, round-trips a cache hit, floods a tenant past its
# admission quota, scrapes /metrics, SIGTERM-drains it, and checks the
# JSON access log.
service-smoke:
	$(GO) test -run TestServiceSmoke -count=1 -v ./cmd/mpcd

# Iterated graph-analytics lane: generate a power-law graph through the
# datagen CLI (exercising the graph generator end to end), then run the
# GRAPH-iterload sweep — BFS/SSSP/PageRank driver loops whose every
# iteration's max-load is checked against the Table 1 matmul formula and
# whose outputs are verified against sequential references. The JSON rows
# land in BENCH_graph.json for CI to upload.
graph-smoke:
	$(GO) run ./cmd/datagen -kind graph -n 2000 -degree 8 -s 1.2 -out /tmp/mpcjoin-graph
	$(GO) run ./cmd/mpcbench -graph -quick -json BENCH_graph.json

# Multi-process cluster lane: the test builds mpcd with -race, boots two
# shuffle peers plus a coordinator and an in-process golden daemon on
# ephemeral ports, runs one query per strategy with exchange rounds over
# real TCP asserting bit-identical rows and Stats against the golden,
# absorbs a dropped-frame fault schedule over the wire, and SIGTERM-drains
# all four processes.
cluster-smoke:
	$(GO) test -run TestClusterSmoke -count=1 -v ./cmd/mpcd

# Table 1 load-bound regression lane: run every query class across
# p ∈ {4,16,64} and assert measured MaxLoad stays within a constant factor
# of its Table 1 formula; BOUND_trace.json carries each run's per-round
# load timeline for CI to upload next to the bench artifacts.
boundcheck:
	$(GO) run ./cmd/boundcheck -quick -trace -json BOUND_trace.json

# Cost-based planner regression lane: per query class and cluster size,
# the auto-planned execution runs once and every legal candidate engine runs forced;
# auto's measured MaxLoad must stay within 1.1× of the best candidate and
# its Stats must be bit-identical to its chosen engine forced directly.
# PLAN_report.json carries each instance's ranked candidates with their
# predicted and measured loads for CI to upload.
planner-check:
	$(GO) run ./cmd/boundcheck -planner -quick -json PLAN_report.json

# Fault-resilience lane: every engine under every fault schedule, run
# under the race detector (retry recovery is the one path that re-enters
# the barrier concurrently). Exits non-zero unless each cell is either
# absorbed bit-identically or fails with the typed budget error;
# CHAOS_report.json carries the per-(engine, scenario) accounting for CI
# to upload as an artifact.
chaos:
	$(GO) run -race ./cmd/chaos -quick -workers 4 -json CHAOS_report.json

# Chaos over the wire: the same sweep with every faulted run's exchange
# rounds carried over TCP through loopback shuffle peers while baselines
# stay in-process — drops become elided frames and crashes discarded
# peer-side inboxes, and absorption must still be bit-identical.
chaos-tcp:
	$(GO) run -race ./cmd/chaos -quick -workers 4 -transport tcp -json CHAOS_tcp_report.json

# Benchmark lane over the TCP backend: every experiment's benched run
# exchanges through loopback peers while verification baselines stay
# in-process, so each "verified" column is a cross-transport check.
bench-transport:
	$(GO) run ./cmd/mpcbench -experiment all -quick -transport tcp -json BENCH_transport.json
