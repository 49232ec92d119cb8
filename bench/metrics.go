package main

import (
	"encoding/json"
	"fmt"
)

// metrics.go is the one table every name in the benchmark comes from:
// BENCHMARK.json is generated from it (-describe), the report prints from
// it, and README.md quotes it. A metric not listed here cannot be emitted.

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"matmul_sweep", "Tuple-heavy matmuls, few rounds, big outputs: matmul engine, mpc sort/reduce kernels and result gather dominate; server does nothing. Both Theorem 1 branches, skew and the fast path."},
	{"tree_mix", "Round-heavy line/star/star-like/twig queries on small shards (177-926 rounds plus the planner pre-pass per op): per-barrier cost and planning dominate, kernels do little."},
	{"graph_iter", "PageRank, BFS and SSSP on a power-law graph: spmv does all the work (one Route per multiply); planner and join engines do nothing, so a change there must leave it flat."},
	{"service_cold", "In-process server behind real HTTP, 2 connections, unique seed per request so every one executes: decode, bind, plan, admission, execute, gather, JSON encode."},
	{"service_mixed", "Zipf-shaped reads over 64 query identities with the cache on, beside dataset re-registrations that invalidate half of them: hits, coalesced misses and writes on one server."},
}

// matmulTCP is the issue's fourth library workload: the matmul_sweep block
// instances over transport.TCP with two loopback peers, every round through
// the wire codec and sockets. It runs by name but is not listed, so the
// driver never runs it: with the collector on, the raw element codec of
// internal/mpc/wire.go lets the collector free objects a round still points
// to, and the 1/8-size run died with "found pointer to free object" or
// returned wrong rows 5 times in 12. List it again once the codec is fixed.
const matmulTCP = "matmul_tcp"

// metricDef describes one metric. Bound is 0 for per-layer metrics.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Doc    string
}

// endToEnd lists what a caller of the system sees; every workload
// reports every one of them with tracing off. The two counts repeat
// exactly for a seed (the determinism self-check enforces it inside a run)
// and their bounds only cover what the placement seed moves between seeds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "input generation, instance build or server boot, dataset upload, one warm-up op per instance, cache fill; median of 3 set-ups"},
	{"pass_ms", "ms", "lower", 0.25, "one pass over the workload's op list, each op class at its median over reps (workers = 1; service: 2 connections)"},
	{"req_per_s", "1/s", "higher", 0.25, "ops completed / timed wall; an op is a public-API call or an HTTP request with status 200"},
	{"load_over_bound_max", "ratio", "lower", 0.05, "max over the first pass's ops of measured MaxLoad / the class's Table 1 formula (per iteration for graph drivers); repeats exactly per seed"},
	{"rounds_per_pass", "count", "lower", 0.01, "MPC rounds executed by one pass; repeats exactly per seed"},
	{"alloc_mb_per_pass", "MB", "lower", 0.05, "runtime.MemStats.TotalAlloc delta over the timed window / passes"},
	{"peak_rss_mb", "MB", "lower", 0.15, "peak resident set of the timed window: VmHWM, reset after set-up and the correctness gate, read when the window ends"},
}

// instanceKeys are the library instances per-engine metrics range over.
var instanceKeys = []string{"b4", "b32", "z", "u", "l3", "s3", "sl", "tw", "lz"}

// yannKeys are the instances also timed under forced yannakakis.
var yannKeys = []string{"b4", "b32", "l3", "s3", "tw"}

// coldClasses are the request classes of the service workloads.
var coldClasses = []string{"q_big", "q_os", "q_small", "q_line", "q_scalar"}

// perLayer lists the traced run's metrics, grouped by the layer (module)
// they time. A layer the workload never enters reports 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better, doc string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better, Doc: doc})
	}
	for _, k := range kernelNames {
		add("mpc."+k+"_us", "us", "lower", "mpc "+k+" on a synthetic Part, p = 16, n = 16384; median of reps")
	}
	for _, k := range kernelNames {
		add("mpc."+k+"_allocs", "count", "lower", "allocations of one "+k+" call")
	}
	add("mpc.rounds_total", "count", "lower", "physical exchanges of one traced pass (core.Options.Tracer)")
	add("mpc.units_total", "count", "lower", "units moved by one traced pass")
	add("mpc.bytes_total", "count", "lower", "approximate payload bytes of one traced pass")
	add("mpc.us_per_round", "us", "lower", "forced-engine execution time / physical exchanges")
	add("mpc.ns_per_unit", "ns", "lower", "forced-engine execution time / units moved")
	add("runtime.par_speedup_x", "x", "higher", "1-worker pass / 2-worker pass")
	add("par_pass_ms", "ms", "lower", "the pass at WithWorkers(2); demoted from end-to-end: service workloads have no such pass")

	add("core.place_us", "us", "lower", "dist.FromRelationIn over every instance of a pass")
	add("core.gather_ms", "ms", "lower", "dist.ToRelation after core.ExecuteDistributedContext, summed over a pass")
	add("core.materialize_ms", "ms", "lower", "row sort + copy into the public Result, summed over a pass")

	add("planner.plan_ms", "ms", "lower", "core.PlanInstance summed over a pass")
	add("planner.plan_share", "ratio", "lower", "planner.plan_ms / the untraced auto-planned pass")
	add("planner.prepass_rounds", "count", "lower", "Plan.EstimateStats.Rounds summed over a pass")
	add("planner.prepass_load_max", "count", "lower", "max Plan.EstimateStats.MaxLoad over a pass")
	add("planner.residual_max", "ratio", "lower", "max measured / predicted load of the chosen candidate")

	for _, k := range instanceKeys {
		add("engine."+k+".exec_ms", "ms", "lower", "chosen engine forced via Options.Engine, planner bypassed")
		add("engine."+k+".rounds", "count", "lower", "Stats.Rounds of that run")
		add("engine."+k+".load_over_bound", "ratio", "lower", "Stats.MaxLoad / Table 1 formula of the class")
	}
	for _, k := range yannKeys {
		add("engine."+k+".yann_ms", "ms", "lower", "the same instance under forced yannakakis")
	}
	add("refengine.pass_ms", "ms", "lower", "sequential refengine.Yannakakis over the pass's instances")
	add("engine.sim_over_ref_x", "x", "lower", "forced-engine pass / refengine pass")

	add("spmv.build_ms", "ms", "lower", "spmv.NewEngine over the graph")
	add("spmv.mul_ms", "ms", "lower", "Engine.Mul with a dense vector")
	add("spmv.mul_sparse_ms", "ms", "lower", "Engine.Mul with a frontier-sized vector")
	add("spmv.pagerank_iter_ms", "ms", "lower", "(PageRank driver - build) / iterations")
	add("spmv.bfs_ms", "ms", "lower", "spmv.BFS driver")
	add("spmv.sssp_ms", "ms", "lower", "spmv.SSSP driver")
	add("spmv.iter_load_over_bound_max", "ratio", "lower", "max over iterations of MaxLoad / ((nnz+in)/p + out/p + p)")
	add("spmv.naive_join_ms", "ms", "lower", "the same multiply as E(S,D) join X(S) group_by D through mpcjoin.Execute")
	add("spmv.naive_over_mul_x", "x", "higher", "spmv.naive_join_ms / spmv.mul_ms")

	add("transport.tcp_over_inproc_x", "x", "lower", "TCP pass / in-process pass of the same instances")
	add("transport.round_overhead_us", "us", "lower", "(TCP pass - in-process pass) / rounds")
	add("transport.bytes_per_round", "count", "lower", "peer payload bytes / peer rounds")
	add("transport.frames_total", "count", "lower", "Round frames the peers served in one pass (Peer.Stats)")
	add("transport.connect_us", "us", "lower", "Transport.Connect + Close")

	add("server.decode_us", "us", "lower", "DecodeQueryRequestV2 over the workload's bodies, mean")
	add("server.plan_ms", "ms", "lower", "cold POST /v2/plan, p50")
	add("server.queue_ms_p50", "ms", "lower", "AccessEntry.QueueNS")
	add("server.exec_ms_p50", "ms", "lower", "response wall_ns of executed requests")
	add("server.total_ms_p50", "ms", "lower", "plan probe + query AccessEntry.WallNS")
	add("server.other_ms_p50", "ms", "lower", "total - queue - exec - plan: bind, keying, cache, encode, write")
	add("server.client_overhead_us_p50", "us", "lower", "client latency - AccessEntry.WallNS")
	add("server.resp_kb_mean", "KB", "lower", "mean response body size")
	for _, c := range coldClasses {
		add("server.cold."+c+".ms_p50", "ms", "lower", "client latency of executed "+c+" requests")
	}
	add("server.hit_big_ms_p50", "ms", "lower", "cache hits on q_big identities")
	add("server.hit_small_ms_p50", "ms", "lower", "cache hits on q_small identities")
	add("req_ms_p50", "ms", "lower", "client-side latency of 200-status requests, median; demoted from end-to-end: a library workload's ops are too few and too unlike for a percentile")
	add("req_ms_p95", "ms", "lower", "nearest-rank p95 of the same; the report states samples and samples beyond")
	add("hit_ms_p50", "ms", "lower", "responses with cached:true; demoted from end-to-end: only service_mixed has hits")
	add("hit_ms_p95", "ms", "lower", "p95 of the same")
	add("miss_ms_p50", "ms", "lower", "executed or coalesced responses of service_mixed; demoted likewise")
	add("write_ms_p50", "ms", "lower", "POST /v1/datasets re-registrations; demoted likewise")
	add("serve.cache_hit_ratio", "ratio", "higher", "/metrics cache hits / (hits + misses)")
	add("serve.cache_evictions", "count", "lower", "/metrics cache evictions")
	add("serve.cache_invalidations", "count", "lower", "/metrics cache invalidations")
	add("serve.coalesced", "count", "lower", "/metrics coalesced responses")
	add("serve.shed", "count", "lower", "/metrics rejected requests")

	add("bench.trace_overhead_frac", "ratio", "lower", "traced pass / untraced pass - 1")
	add("bench.calib_ms", "ms", "lower", "fixed integer spin; drift means a noisy neighbour, not a regression")
	add("bench.calib_mem_ms", "ms", "lower", "fixed strided walk over 32 MB; the same for a neighbour that takes cache and memory bandwidth")
	add("failed_frac", "ratio", "lower", "(non-200 + refused + wrong answer) / attempted; demoted: always 0 on a passing run")
	return out
}

// runSeconds is how long one run measures; the driver passes it back as
// --seconds.
const runSeconds = 15

// describe renders BENCHMARK.json.
func describe() ([]byte, error) {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("rendering BENCHMARK.json: %w", err)
	}
	return append(out, '\n'), nil
}

// metricValue is one emitted value.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values for one list of definitions; set panics on a
// name the list does not hold, so a typo cannot silently drop a metric.
type metricSet struct {
	defs map[string]metricDef
	vals map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	ms := &metricSet{defs: make(map[string]metricDef, len(defs)), vals: make(map[string]float64, len(defs))}
	for _, d := range defs {
		ms.defs[d.Name] = d
		ms.vals[d.Name] = 0
	}
	return ms
}

func (ms *metricSet) set(name string, v float64) {
	if _, ok := ms.defs[name]; !ok {
		panic("bench: metric " + name + " is not in the table")
	}
	ms.vals[name] = v
}

func (ms *metricSet) get(name string) float64 { return ms.vals[name] }

func (ms *metricSet) export() map[string]metricValue {
	out := make(map[string]metricValue, len(ms.vals))
	for name, v := range ms.vals {
		out[name] = metricValue{Value: v, Unit: ms.defs[name].Unit}
	}
	return out
}
