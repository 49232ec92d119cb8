package mpc

// coordinator.go holds the one coordinator round-trip. Every algorithm of
// the paper gets its global knowledge the same way: each server sends O(1)
// statistics to a coordinator (server 0), the coordinator decides, and the
// decision comes back — as one reply per server (Coordinate) or as one
// decision every server learns (Agree). Both are built from Gather,
// Broadcast and ExchangeIn alone, so metering, tracing, fault retry and the
// wire carrier are those primitives'.
//
// The gathered elements are visible only inside decide: what the
// coordinator holds reaches another server through the metered reply round
// and no other way. This is also the only file of the package that calls
// Gather (see sortguard_test.go).
//
// The replies address the server set the statistics came from — in.P()
// servers, which is a set of virtual servers when in lives on one.

// Coordinate is the scatter form of the round-trip: in is gathered to
// server 0, decide runs once there on everything that arrived (ascending
// source server, local order within one) and returns one reply row per
// server, and replies[d] goes to server d in one exchange only server 0
// sends into. all is the coordinator's own inbox: decide may reorder or
// keep it.
//
// A non-empty gatherOp / replyOp labels the respective round; empty, the
// gather keeps Gather's own label and the reply is an unlabelled exchange.
// Cost: two rounds, load |in| at the coordinator and max_d |replies[d]|.
func Coordinate[S, R any](in Part[S], gatherOp, replyOp string, decide func(all []S) [][]R) (Part[R], Stats) {
	ex, p := in.scope(), in.P()
	all, st := toCoordinator(gatherOp, in)
	out := make([][][]R, p)
	out[0] = decide(all)
	if replyOp != "" {
		TraceOp(ex, replyOp)
	}
	replied, stReply := ExchangeIn(ex, p, out)
	return replied, Seq(st, stReply)
}

// Agree is the broadcast form of the round-trip: in — then each of more,
// one gather round apiece, in argument order — is gathered to server 0,
// decide runs once there on the concatenation of what arrived, and its
// decision is broadcast and returned: the slice every server now holds. A
// caller gathering several inputs splits all at the inputs' sizes
// (Part.Len — shard sizes are free driver-side knowledge, shard contents
// are not).
//
// Labels as in Coordinate; an empty replyOp keeps Broadcast's own. Cost:
// one round per input at load |input|, then one at load |decision|.
func Agree[S, R any](in Part[S], gatherOp, replyOp string, decide func(all []S) []R, more ...Part[S]) ([]R, Stats) {
	ex := in.scope()
	all, st := toCoordinator(gatherOp, in)
	for _, m := range more {
		next, s := toCoordinator(gatherOp, m)
		all, st = append(all[:len(all):len(all)], next...), Seq(st, s)
	}
	decision := NewPartIn[R](ex, in.P())
	decision.Shards[0] = decide(all)
	if replyOp != "" {
		TraceOp(ex, replyOp)
	}
	known, stReply := Broadcast(decision)
	return known.Shards[0], Seq(st, stReply)
}

// oneEach is the reply rows of a decision that holds one element per
// server: row d slices vals[d], nothing is copied.
func oneEach[R any](vals []R) [][]R {
	rows := make([][]R, len(vals))
	for d := range vals {
		rows[d] = vals[d : d+1 : d+1]
	}
	return rows
}

// toCoordinator gathers in to server 0 in one round and returns what the
// coordinator then holds, in arrival order.
func toCoordinator[S any](op string, in Part[S]) ([]S, Stats) {
	if op != "" {
		TraceOp(in.scope(), op)
	}
	gathered, st := Gather(in, 0)
	return gathered.Shards[0], st
}

// AllReduce is Agree with a fold for its decision: server s contributes
// vals[s], the coordinator folds the p contributions with combine — in
// server order, starting from V's zero value, so combine must treat that as
// its identity (a sum; a max over non-negatives) — and broadcasts the
// result, so every server learns it. Two O(p)-load rounds. A non-empty op
// labels them op+".gather" and op+".broadcast"; with an empty op they keep
// Gather's and Broadcast's own labels.
func AllReduce[V any](ex *Exec, vals []V, combine func(acc, v V) V, op string) (V, Stats) {
	p := len(vals)
	pt := NewPartIn[V](ex, p)
	for s := range vals {
		pt.Shards[s] = vals[s : s+1 : s+1]
	}
	gatherOp, replyOp := "", ""
	if op != "" {
		gatherOp, replyOp = op+".gather", op+".broadcast"
	}
	res, st := Agree(pt, gatherOp, replyOp, func(all []V) []V {
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
// |parts[i].Shards[s]|, the coordinator adds the vectors in server order and
// broadcasts the totals. The Parts must span the same servers. Two O(p)-load
// rounds, however many sizes ride them.
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
// order — Reshape's hosting map for more than one Part. Like Reshape it is
// a placement choice, not communication: the rows already sit on those
// (virtual) servers. The result owns its shards.
func Overlay[T any](ex *Exec, p int, parts ...Part[T]) Part[T] {
	out := NewPartIn[T](ex, p)
	for _, pt := range parts {
		for s, shard := range pt.Shards {
			out.Shards[s%p] = append(out.Shards[s%p], shard...)
		}
	}
	return out
}
