package matmul

import (
	"mpcjoin/internal/dist"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/relation"
	"mpcjoin/internal/semiring"
)

// broadcastSmall handles N1 = O(1) (or symmetrically N2): replicate the
// tiny relation everywhere, join locally against the big one, and run one
// linear-load reduce to merge duplicate output pairs. When N1 = 1 the
// reduce input is at most N2 (no semiring additions are strictly needed,
// per §1.5, but multiset inputs may still carry duplicate tuples, so the
// reduce stays for correctness); the load is O((N1+N2)/p + N_small).
func broadcastSmall[W any](sr semiring.Semiring[W], in Input[W], n1, n2 int64) (dist.Rel[W], mpc.Stats) {
	small, big := in.R1, in.R2
	smallLeft := true
	if n2 < n1 {
		small, big = in.R2, in.R1
		smallLeft = false
	}
	bsmall, st := dist.Broadcast(small)

	partials := joinBroadcast(sr, in, bsmall, big, smallLeft)
	res, st2 := dist.ProjectAgg(sr, dist.Rel[W]{Schema: in.OutSchema(), Part: partials}, in.OutSchema()...)
	return res, mpc.Seq(st, st2)
}

// unequalRatio handles N1/N2 < 1/p (or symmetrically > p): after dangling
// removal every C value's degree in R2 is at most N1 ≤ N2/p, so grouping
// R2 by C puts each output group wholly on one server; broadcasting R1
// (which is tiny relative to N2/p) lets each server finish its groups
// locally with no cross-server aggregation at all (§3). Load O((N1+N2)/p).
func unequalRatio[W any](sr semiring.Semiring[W], in Input[W], n1, n2 int64) (dist.Rel[W], mpc.Stats) {
	small, big := in.R1, in.R2
	groupAttrs := in.CSide()
	smallLeft := true
	if n2 < n1 {
		small, big = in.R2, in.R1
		groupAttrs = in.ASide()
		smallLeft = false
	}

	grouped, st1 := dist.GroupBy(big, groupAttrs...)
	bsmall, st2 := dist.Broadcast(small)

	result := joinBroadcast(sr, in, bsmall, grouped, smallLeft)
	// Output groups are disjoint across servers (each C value lives on one
	// server), so the local aggregates are final.
	return dist.Rel[W]{Schema: in.OutSchema(), Part: result}, mpc.Seq(st1, st2)
}

// joinBroadcast joins, on every server, the local shard of big against the
// server's copy of the broadcast relation and ⊕-aggregates onto the output
// schema. The shards are the join's inputs as they stand, only read — the
// broadcast copies may share one slice; smallLeft says the broadcast
// relation is R1.
func joinBroadcast[W any](sr semiring.Semiring[W], in Input[W], bsmall, big dist.Rel[W], smallLeft bool) mpc.Part[relation.Row[W]] {
	return mpc.MapShards(big.Part, func(s int, shard []relation.Row[W]) []relation.Row[W] {
		left, right := relation.New[W](bsmall.Schema...), relation.New[W](big.Schema...)
		left.Rows, right.Rows = bsmall.Part.Shards[s], shard
		if !smallLeft {
			left, right = right, left
		}
		return relation.JoinAgg(sr, left, right, in.OutSchema()...).Rows
	})
}

// linearSparseMM is the OUT ≤ N/p algorithm of §3.2: co-locate both
// relations by B (every b lands wholly on one server), aggregate locally,
// and merge the per-server partial outputs with one reduce-by-key. After
// dangling removal deg(b) ≤ OUT on either side, so the co-location load is
// O(N/p + OUT) and the final reduce moves at most p·OUT ≤ N rows,
// yielding O(N/p) load overall in its intended regime.
func linearSparseMM[W any](sr semiring.Semiring[W], in Input[W]) (dist.Rel[W], mpc.Stats) {
	p := in.R1.P()
	bCol1 := in.R1.Cols(in.B)[0]
	bCol2 := in.R2.Cols(in.B)[0]

	ex := in.R1.Part.Scope()
	merged := mpc.NewPartIn[relation.SidedRow[W]](ex, p)
	ex.ForEachShard(p, func(s int) {
		rows := make([]relation.SidedRow[W], 0, len(in.R1.Part.Shards[s])+len(in.R2.Part.Shards[s]))
		for _, r := range in.R1.Part.Shards[s] {
			rows = append(rows, relation.SidedRow[W]{Left: true, Row: r})
		}
		for _, r := range in.R2.Part.Shards[s] {
			rows = append(rows, relation.SidedRow[W]{Left: false, Row: r})
		}
		merged.Shards[s] = rows
	})
	grouped, st1 := mpc.GroupByKey(merged, func(x relation.SidedRow[W]) relation.Value {
		if x.Left {
			return x.Row.Vals[bCol1]
		}
		return x.Row.Vals[bCol2]
	})

	partials := mpc.MapShards(grouped, func(_ int, shard []relation.SidedRow[W]) []relation.Row[W] {
		return localJoinAgg(sr, in, in.OutSchema(), shard)
	})
	res, st2 := dist.ProjectAgg(sr, dist.Rel[W]{Schema: in.OutSchema(), Part: partials}, in.OutSchema()...)
	return res, mpc.Seq(st1, st2)
}
