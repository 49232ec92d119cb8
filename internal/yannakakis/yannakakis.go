// Package yannakakis implements the distributed Yannakakis algorithm
// (§1.2, §1.4 of Hu–Yi PODS'20): the baseline every new algorithm in this
// module is compared against, and the subroutine the new algorithms invoke
// for their "use the Yannakakis algorithm" steps.
//
// The algorithm removes dangling tuples with a distributed full reducer,
// then folds leaves of the join tree into their parents bottom-up, each
// fold being an optimal two-way join followed by an early ⊕-aggregation
// that keeps only output attributes and attributes still needed by
// unmerged relations. Its load is O(N/p + J/p) where J is the maximum
// intermediate join size — O(OUT) for free-connex queries, N·√OUT for
// matrix multiplication, N·OUT^{1−1/n} for stars, and N·OUT in general,
// which is precisely the column of Table 1 the paper improves on.
//
// Execution: the folds themselves are sequentially dependent (a parent is
// joined only after its child leaves fold in), but each fold's per-server
// work — the twoway local hash joins and the ProjectAgg local combines —
// runs concurrently on the ambient mpc runtime, one worker per simulated
// server. Folding order, results and metered Stats are identical under any
// worker count.
package yannakakis

import (
	"mpcjoin/internal/dist"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/semiring"
	"mpcjoin/internal/twoway"
)

// Run evaluates the tree join-aggregate query over distributed relations
// and returns the distributed result (one row per output tuple).
func Run[W any](sr semiring.Semiring[W], q *hypergraph.Query, rels map[string]dist.Rel[W]) (dist.Rel[W], mpc.Stats) {
	reduced, st := dist.RemoveDangling(q, rels)
	res, st2 := RunNoReduce(sr, q, reduced)
	return res, mpc.Seq(st, st2)
}

// RunNoReduce is Run without the dangling-removal pass — for callers that
// have already reduced the instance (the paper's algorithms remove
// dangling tuples once up front and then invoke Yannakakis on subqueries).
func RunNoReduce[W any](sr semiring.Semiring[W], q *hypergraph.Query, rels map[string]dist.Rel[W]) (dist.Rel[W], mpc.Stats) {
	order, parent := q.JoinTree()

	cur := make([]dist.Rel[W], len(q.Edges))
	for i, e := range q.Edges {
		cur[i] = rels[e.Name]
	}
	var st mpc.Stats

	p := cur[order[0]].P()
	for i := len(order) - 1; i >= 1; i-- {
		leaf := order[i]
		par := parent[leaf]
		joined, _, s1 := twoway.Join(sr, cur[leaf], cur[par])
		keep := keepAttrs(q, order[:i], joined.Schema, par, cur)
		agg, s2 := dist.ProjectAgg(sr, joined, keep...)
		// The join output spans O(p) virtual servers; pin the fold result
		// back onto the p physical hosts for the next step.
		cur[par] = dist.Reshape(agg, p)
		st = mpc.Seq(st, s1, s2)
	}

	root := cur[order[0]]
	final, s := dist.ProjectAgg(sr, root, q.Output...)
	return final, mpc.Seq(st, s)
}

// keepAttrs selects the attributes of schema that are outputs of q or
// still occur in an unmerged relation — everything else is aggregated away
// as early as possible (the π_{y ∪ anc(e')} of the original algorithm).
func keepAttrs[W any](q *hypergraph.Query, remaining []int, schema []dist.Attr, self int, cur []dist.Rel[W]) []dist.Attr {
	needed := make(map[dist.Attr]bool)
	for _, a := range q.Output {
		needed[a] = true
	}
	for _, i := range remaining {
		if i == self {
			continue
		}
		for _, a := range cur[i].Schema {
			needed[a] = true
		}
	}
	var keep []dist.Attr
	for _, a := range schema {
		if needed[a] {
			keep = append(keep, a)
		}
	}
	return keep
}
