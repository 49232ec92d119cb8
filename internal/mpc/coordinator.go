package mpc

// coordinator.go holds the one coordinator step. Every algorithm of the
// paper gets its global knowledge the same way: each server contributes
// O(1) statistics, and one decision is taken on all of them. Here that is
// one all-gather round — every server receives every statistic
// (Broadcast) — after which the decision is a local function of an inbox
// every server holds, so no second round carries it back (Agree). The
// per-server load is the statistics' total, exactly what a coordinator
// receives when they are gathered to it; only the total communication is
// p times larger. Agree is built from Broadcast alone, so metering,
// tracing, fault retry and the wire carrier are that primitive's.
//
// The simulator evaluates decide once, on server 0's inbox: every server
// holds the same inbox and decide is deterministic, so each server would
// compute the same decision. This is also the only file of the package
// that calls Broadcast (see sortguard_test.go).

// Agree is the coordinator step: in — then each of more, one all-gather
// round apiece, in argument order — is broadcast to every server, decide
// runs on the concatenation of what arrived (ascending source server,
// local order within one) and its decision is returned: the slice every
// server computes from its own inbox. decide may reorder or keep all. A
// caller gathering several inputs splits all at the inputs' sizes
// (Part.Len — shard sizes are free driver-side knowledge, shard contents
// are not); a caller that needs one reply per server returns p of them and
// lets server s read its own.
//
// A non-empty op labels every round; empty, they keep Broadcast's own
// label. Cost: one round per input at load |input|.
func Agree[S, R any](in Part[S], op string, decide func(all []S) []R, more ...Part[S]) ([]R, Stats) {
	all, st := allGather(op, in)
	for _, m := range more {
		next, s := allGather(op, m)
		all, st = append(all[:len(all):len(all)], next...), Seq(st, s)
	}
	return decide(all), st
}

// allGather broadcasts in in one round and returns server 0's inbox, which
// every server holds a copy of.
func allGather[S any](op string, in Part[S]) ([]S, Stats) {
	if op != "" {
		TraceOp(in.scope(), op)
	}
	known, st := Broadcast(in)
	return known.Shards[0], st
}

// AllReduce is Agree with a fold for its decision: server s contributes
// vals[s], and every server folds the p contributions it received with
// combine — in server order, starting from V's zero value, so combine must
// treat that as its identity (a sum; a max over non-negatives). One
// O(p)-load round. A non-empty op labels it; with an empty op it keeps
// Broadcast's own label.
func AllReduce[V any](ex *Exec, vals []V, combine func(acc, v V) V, op string) (V, Stats) {
	p := len(vals)
	pt := NewPartIn[V](ex, p)
	for s := range vals {
		pt.Shards[s] = vals[s : s+1 : s+1]
	}
	res, st := Agree(pt, op, func(all []V) []V {
		var acc V
		for _, v := range all {
			acc = combine(acc, v)
		}
		return []V{acc}
	})
	return res[0], st
}

// Add is the AllReduce combine of a global sum.
func Add[V ~int64 | ~float64](a, b V) V { return a + b }

// AddVec is the AllReduce combine of several global sums at once, one per
// vector position; it never writes to v.
func AddVec[V ~int64 | ~float64](acc, v []V) []V {
	if acc == nil {
		acc = make([]V, len(v))
	}
	for i := range v {
		acc[i] += v[i]
	}
	return acc
}

// TotalCount sums shard sizes with an all-reduce, so every server learns
// |pt| — used when an algorithm branches on a global size. It is
// TotalCounts of one Part.
func TotalCount[T any](pt Part[T]) (int64, Stats) {
	n, st := TotalCounts(pt)
	return n[0], st
}

// TotalCounts is the all-reduce of several independent global sizes at
// once: server s contributes the vector of its shard sizes
// |parts[i].Shards[s]|, and every server adds the p vectors it receives in
// server order. The Parts must span the same servers. One O(p)-load round,
// however many sizes ride it.
func TotalCounts[T any](parts ...Part[T]) ([]int64, Stats) {
	sizes := make([][]int64, parts[0].P())
	for s := range sizes {
		sizes[s] = make([]int64, len(parts))
		for i, pt := range parts {
			sizes[s][i] = int64(len(pt.Shards[s]))
		}
	}
	return AllReduce(parts[0].scope(), sizes, AddVec[int64], "count")
}

// Overlay hosts several Parts on p servers: shard s of every part lands on
// server s mod p, parts in argument order, shards of one part in index
// order. It is the package's one hosting map (Reshape is Overlay of one
// Part). Like Reshape it is a placement choice, not communication: the
// rows already sit on those (virtual) servers. The result owns its shards,
// each allocated once at its exact size.
func Overlay[T any](ex *Exec, p int, parts ...Part[T]) Part[T] {
	out := NewPartIn[T](ex, p)
	counts := make([]int, p)
	for _, pt := range parts {
		for s, shard := range pt.Shards {
			counts[s%p] += len(shard)
		}
	}
	for d, c := range counts {
		if c > 0 {
			out.Shards[d] = make([]T, 0, c)
		}
	}
	for _, pt := range parts {
		for s, shard := range pt.Shards {
			out.Shards[s%p] = append(out.Shards[s%p], shard...)
		}
	}
	return out
}
