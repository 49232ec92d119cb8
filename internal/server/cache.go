package server

import (
	"fmt"
	"strings"

	"mpcjoin/internal/core"
	"mpcjoin/internal/planner"
)

// Cache-control modes of a query ("options":{"cache": ...} in v2).
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
	// cacheOff touches nothing: no read, no write, no coalescing. Forced
	// for /v1/query, which predates the cache and whose clients pin
	// per-request execution semantics.
	cacheOff = "off"
)

var validCacheModes = map[string]bool{cacheDefault: true, "default": true, cacheBypass: true, cacheOff: true}

// cacheKey builds the exact-string result-cache key of a query. Exact
// strings rather than hashes: keys live only in the bounded cache map, and
// string equality cannot collide, so a hit is a proof of identity.
//
// The key covers everything that determines the result bytes:
//
//   - each relation binding, with the dataset's registration version — a
//     re-registered dataset changes the version and thus the key, so stale
//     hits are structurally impossible even without invalidation;
//   - the group-by list and the semiring;
//   - the canonical fingerprint of the resolved engine options (servers,
//     forced/resolved engine, seeds, fault schedule — see
//     core.ResultFingerprint);
//   - the resolved engine again as an explicit key component: for
//     auto-planned queries the server resolves the plan before keying, so
//     a planner decision that flips with the data can never cross-serve a
//     result computed by a different engine;
//   - whether a trace or an explanation was requested, since the response
//     body differs — and for an explanation, whether the engine was forced
//     or planned: a forced run and an auto-planned run that resolved to
//     the same engine return the same rows and Stats (and share an entry),
//     but the first explains itself with a stub and the second with the
//     ranked candidates.
//
// Relation order is preserved: two permutations of the same join key
// differently and may both miss — a correctness-neutral inefficiency.
func cacheKey(req *QueryRequest, insts map[string]*Dataset, o core.Options) string {
	var b strings.Builder
	for _, rel := range req.Relations {
		ds := insts[rel.Name]
		dsName := rel.Dataset
		if dsName == "" {
			dsName = rel.Name
		}
		fmt.Fprintf(&b, "rel=%q attrs=%q ds=%q@%d;", rel.Name, strings.Join(rel.Attrs, ","), dsName, ds.Version)
	}
	forced, _ := planner.ParseEngine(req.Strategy)
	fmt.Fprintf(&b, "group_by=%q;semiring=%q;trace=%v;explain=%v,ranked=%v;engine=%q;opts=%016x",
		strings.Join(req.GroupBy, ","), req.Semiring, req.Trace, req.Explain, req.Explain && forced == "", o.Engine, o.ResultFingerprint())
	if g := req.Graph; g != nil {
		// Graph-driver parameters are not core options, so they are not in
		// the fingerprint; a graph run must never share identity with the
		// plain query over the same relation (or with other driver params).
		fmt.Fprintf(&b, ";graph=%s src=%d iters=%d damping=%v tol=%v", g.Kind, g.Source, g.MaxIters, g.Damping, g.Tol)
	}
	return b.String()
}

// cacheTags returns the dataset names a query read — the invalidation
// tags its cached result carries, so a registration drops exactly the
// entries it obsoletes. (Version-carrying keys already make stale hits
// impossible; tag invalidation reclaims the memory and surfaces the
// mpcd_cache_invalidations_total signal.)
func cacheTags(req *QueryRequest) []string {
	tags := make([]string, 0, len(req.Relations))
	seen := make(map[string]bool, len(req.Relations))
	for _, rel := range req.Relations {
		dsName := rel.Dataset
		if dsName == "" {
			dsName = rel.Name
		}
		if !seen[dsName] {
			seen[dsName] = true
			tags = append(tags, dsName)
		}
	}
	return tags
}
