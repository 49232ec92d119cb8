package core

import (
	"context"

	"mpcjoin/internal/db"
	"mpcjoin/internal/dist"
	"mpcjoin/internal/estimate"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/linequery"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/planner"
)

// planAuto is the cost-based planner: it reads the exact per-relation
// input sizes off the placed shards (local metadata, no communication),
// runs the estimate-only pre-pass for the output-size and
// join-cardinality predictions, and ranks the candidates. The pre-pass
// rounds run inside the execution scope — they appear in the tracer
// timeline under "plan.*" labels and are subject to the fault plane — but
// their cost is metered into Plan.EstimateStats, never the execution
// Stats.
func planAuto[W any](ex *mpc.Exec, q *hypergraph.Query, class hypergraph.Class, rels map[string]dist.Rel[W], opts Options) planner.Plan {
	in := planner.Input{Class: class, P: opts.Servers, Arms: q.AggregatedDegree()}
	for _, e := range q.Edges {
		n := int64(rels[e.Name].N())
		in.N += n
		if n > in.NMax {
			in.NMax = n
		}
	}
	var chain []dist.Rel[W]
	var path [][]dist.Attr
	if class == hypergraph.ClassMatMul {
		chain, path, _ = linequery.Bind(q, rels, dist.Single)
		in.N1, in.N2 = int64(chain[0].N()), int64(chain[1].N())
	}
	// An engine that claims the instance on its input sizes alone (Theorem
	// 1's degenerate matmul dispatches) needs no estimates: skip the
	// pre-pass entirely.
	if plan, ok := planner.FastPath(in); ok {
		return plan
	}

	var st mpc.Stats
	// J — the exact full-join cardinality — prices the Yannakakis
	// candidate in every class.
	mpc.TraceOp(ex, "plan.join-count")
	j, s := estimate.TreeCount(q, rels)
	st = mpc.Seq(st, s)
	in.J = j

	mpc.TraceOp(ex, "plan.out-sketch")
	if class == hypergraph.ClassMatMul {
		// Matmul: the §2.2 sketch fold along the two-edge path, exactly
		// the estimator the chosen engine would trust.
		_, out, s := estimate.LineOut(chain, path, estimate.Params{})
		st = mpc.Seq(st, s)
		in.Out = out
	} else {
		// Every tree-shaped class (line included): the KMV image fold,
		// which estimates OUT and profiles the Yannakakis candidate's
		// largest pre-aggregation intermediate and aggregated image.
		out, maxFold, maxImage, s := estimate.TreeOutProfile(q, rels, estimate.Params{})
		st = mpc.Seq(st, s)
		in.Out = out
		in.MaxFold = maxFold
		in.MaxImage = maxImage
	}

	plan := planner.Rank(in)
	plan.EstimateStats = st
	return plan
}

// PlanInstance plans a query over an instance without executing it: it
// places the relations, runs the same estimate-only pre-pass an automatic
// execution would run, and returns the ranked plan. The serving tier plans
// every admitted query and answers its dry-run endpoint (/v2/plan) with
// this. The instance is never mutated (placement copies), and MeasuredLoad
// is left zero.
func PlanInstance[W any](ctx context.Context, q *hypergraph.Query, inst db.Instance[W], opts Options) (pl planner.Plan, err error) {
	opts = opts.withDefaults()
	class, forced, err := prepare(q, inst, opts.Engine)
	if err != nil || opts.Engine != "" {
		return forced, err // forced plans need no placement at all
	}

	ex, release, err := opts.NewScope(ctx)
	if err != nil {
		return planner.Plan{}, err
	}
	defer release()
	defer mpc.Recover(&err)

	rels := make(map[string]dist.Rel[W], len(q.Edges))
	for _, e := range q.Edges {
		rels[e.Name] = dist.FromRelationIn(ex, inst[e.Name], opts.Servers)
	}
	return planAuto(ex, q, class, rels, opts), nil
}
