package server

import (
	"fmt"
	"strings"

	"mpcjoin/internal/core"
)

// Cache-control modes of a query ("options":{"cache": ...}).
//
// The soundness argument for serving from cache at all: the MPC engine is
// deterministic — same dataset versions, same canonical options, same
// semiring ⇒ bit-identical rows, Stats, trace and fault report — so a
// cached result is indistinguishable from a fresh execution. The modes
// only control whether the caller wants to pay for the recomputation.
const (
	// cacheDefault reads the cache, coalesces onto identical in-flight
	// executions, and writes results back.
	cacheDefault = ""
	// cacheBypass skips the read and the coalescing — the query always
	// executes fresh (cold-path benchmarking) — but still writes its
	// result for later readers.
	cacheBypass = "bypass"
	// cacheOff touches nothing: no read, no write, no coalescing.
	cacheOff = "off"
)

var validCacheModes = map[string]bool{cacheDefault: true, cacheBypass: true, cacheOff: true}

// cacheKey builds the exact-string result-cache (and flight) key of a
// query. Exact strings rather than hashes: keys live only in the bounded
// cache map, and string equality cannot collide, so a hit is a proof of
// identity.
//
// The key is a function of the request alone and covers everything that
// determines the response bytes:
//
//   - each relation binding, with the dataset's registration version — a
//     re-registered dataset changes the version and thus the key, so stale
//     hits are structurally impossible even without invalidation;
//   - the group-by list and the semiring;
//   - the canonical fingerprint of the request's engine options (servers,
//     forced engine or "" for auto, seed, fault schedule — see
//     core.ResultFingerprint);
//   - whether a trace or an explanation was requested, since the response
//     body differs.
//
// It is computed before the query is planned, and that is sound: the
// planner is itself a function of what the key already carries (dataset
// versions and p: its sketches use fixed hash functions), and it runs on a scope the request's
// tracer and fault plane never see, so an auto query's engine — and with
// it rows, Stats, trace and fault report — is determined by the key. A
// forced run and an auto run that resolves to the same engine key apart
// (the fingerprint hashes the forced name) and do not share an entry.
//
// Relation order is preserved: two permutations of the same join key
// differently and may both miss — a correctness-neutral inefficiency.
func cacheKey(req *QueryRequestV2, insts map[string]*Dataset, o core.Options) string {
	var b strings.Builder
	writeBindings(&b, req, insts)
	fmt.Fprintf(&b, "semiring=%q;trace=%v;explain=%v;opts=%016x",
		req.Semiring, req.Options.Trace, req.Options.Explain, o.ResultFingerprint())
	if g := req.Graph; g != nil {
		// Graph-driver parameters are not core options, so they are not in
		// the fingerprint; a graph run must never share identity with the
		// plain query over the same relation (or with other driver params).
		fmt.Fprintf(&b, ";graph=%s src=%d iters=%d damping=%v tol=%v", g.Kind, g.Source, g.MaxIters, g.Damping, g.Tol)
	}
	return b.String()
}

// planKey is the plan-cache key of a query: the bindings and the
// fingerprint of the options planning runs on (planOptions). The
// annotation semiring, tracing, explaining, the cache mode and the fault
// schedule are irrelevant to planning — only sizes matter — so one plan
// serves every such variant of the same shape, and /v2/plan warms the
// /v2/query that follows.
func planKey(req *QueryRequestV2, insts map[string]*Dataset, o core.Options) string {
	var b strings.Builder
	writeBindings(&b, req, insts)
	fmt.Fprintf(&b, "plan=%016x", planOptions(o).ResultFingerprint())
	return b.String()
}

// writeBindings writes the data identity of a query: every relation
// binding with its dataset version, and the group-by list.
func writeBindings(b *strings.Builder, req *QueryRequestV2, insts map[string]*Dataset) {
	for _, rel := range req.Relations {
		fmt.Fprintf(b, "rel=%q attrs=%q ds=%q@%d;", rel.Name, strings.Join(rel.Attrs, ","), datasetOf(rel), insts[rel.Name].Version)
	}
	fmt.Fprintf(b, "group_by=%q;", strings.Join(req.GroupBy, ","))
}

// datasetOf names the registered dataset a relation binds: Dataset,
// defaulting to the relation symbol.
func datasetOf(rel QueryRelation) string {
	if rel.Dataset != "" {
		return rel.Dataset
	}
	return rel.Name
}

// cacheTags returns the dataset names a query read — the invalidation
// tags its cached result carries, so a registration drops exactly the
// entries it obsoletes. (Version-carrying keys already make stale hits
// impossible; tag invalidation reclaims the memory and surfaces the
// mpcd_cache_invalidations_total signal.)
func cacheTags(req *QueryRequestV2) []string {
	tags := make([]string, 0, len(req.Relations))
	seen := make(map[string]bool, len(req.Relations))
	for _, rel := range req.Relations {
		dsName := datasetOf(rel)
		if !seen[dsName] {
			seen[dsName] = true
			tags = append(tags, dsName)
		}
	}
	return tags
}
