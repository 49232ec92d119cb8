package core

import (
	"mpcjoin/internal/dist"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/linequery"
	"mpcjoin/internal/matmul"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/planner"
	"mpcjoin/internal/semiring"
	"mpcjoin/internal/starlike"
	"mpcjoin/internal/starquery"
	"mpcjoin/internal/treequery"
	"mpcjoin/internal/yannakakis"
)

// runner executes one engine over the placed relations.
type runner[W any] func(sr semiring.Semiring[W], q *hypergraph.Query, rels map[string]dist.Rel[W], opts Options) (dist.Rel[W], mpc.Stats, error)

// runners is the run half of the engine table: one runner per row of
// planner.Engines, under the same name (TestRunnersMatchEngineTable fails
// when the key sets differ). It is a function only because a runner is
// generic over the semiring type; there is nothing to register — adding an
// engine is adding an entry here and a row there. A runner binds the query
// to its engine's arguments and runs it with the execution's seed; it
// checks nothing, because the planner only chooses, or lets a caller force,
// an engine legal for the query's class (and, for the class-split engines,
// within dist.MaxPermArms), so Bind cannot fail here.
func runners[W any]() map[string]runner[W] {
	return map[string]runner[W]{
		planner.EngineYannakakis: func(sr semiring.Semiring[W], q *hypergraph.Query, rels map[string]dist.Rel[W], _ Options) (dist.Rel[W], mpc.Stats, error) {
			res, st := yannakakis.Run(sr, q, rels)
			return res, st, nil
		},
		planner.EngineMatMul:          runMatMul[W](planner.EngineMatMul),
		planner.EngineMatMulLinear:    runMatMul[W](planner.EngineMatMulLinear),
		planner.EngineMatMulWorstCase: runMatMul[W](planner.EngineMatMulWorstCase),
		planner.EngineMatMulOutSens:   runMatMul[W](planner.EngineMatMulOutSens),
		planner.EngineLine: func(sr semiring.Semiring[W], q *hypergraph.Query, rels map[string]dist.Rel[W], opts Options) (dist.Rel[W], mpc.Stats, error) {
			chain, path, _ := linequery.Bind(q, rels, dist.Single)
			res, st := linequery.Run(sr, chain, path, opts.Seed)
			return res, st, nil
		},
		planner.EngineStar: func(sr semiring.Semiring[W], q *hypergraph.Query, rels map[string]dist.Rel[W], opts Options) (dist.Rel[W], mpc.Stats, error) {
			arms, leaves, center, _ := starquery.Bind(q, rels, dist.Single)
			res, st := starquery.Run(sr, arms, leaves, center, opts.Seed)
			return res, st, nil
		},
		planner.EngineStarLike: func(sr semiring.Semiring[W], q *hypergraph.Query, rels map[string]dist.Rel[W], opts Options) (dist.Rel[W], mpc.Stats, error) {
			arms, center, _ := starlike.Bind(q, rels, dist.Single)
			res, st := starlike.Run(sr, arms, center, opts.Seed)
			return res, st, nil
		},
		planner.EngineTree: func(sr semiring.Semiring[W], q *hypergraph.Query, rels map[string]dist.Rel[W], opts Options) (dist.Rel[W], mpc.Stats, error) {
			res, st := treequery.Compute(sr, q, rels, opts.Seed)
			return res, st, nil
		},
	}
}

// runMatMul runs the named matmul row — one branch of Theorem 1, or its
// own dispatch for EngineMatMul — on the query's two relations in LineView
// order.
func runMatMul[W any](engine string) runner[W] {
	return func(sr semiring.Semiring[W], q *hypergraph.Query, rels map[string]dist.Rel[W], opts Options) (dist.Rel[W], mpc.Stats, error) {
		chain, path, _ := linequery.Bind(q, rels, dist.Single)
		in := matmul.Input[W]{R1: chain[0], R2: chain[1], B: path[1][0]}
		return matmul.Compute(sr, in, matmul.Options{Engine: engine, Seed: opts.Seed})
	}
}
