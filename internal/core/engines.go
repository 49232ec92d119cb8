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
// engine is adding an entry here and a row there.
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
			return linequery.Compute(sr, q, rels, linequery.Options{Seed: opts.Seed})
		},
		planner.EngineStar: func(sr semiring.Semiring[W], q *hypergraph.Query, rels map[string]dist.Rel[W], opts Options) (dist.Rel[W], mpc.Stats, error) {
			return starquery.Compute(sr, q, rels, starquery.Options{Seed: opts.Seed})
		},
		planner.EngineStarLike: func(sr semiring.Semiring[W], q *hypergraph.Query, rels map[string]dist.Rel[W], opts Options) (dist.Rel[W], mpc.Stats, error) {
			return starlike.Compute(sr, q, rels, starlike.Options{Seed: opts.Seed})
		},
		planner.EngineTree: func(sr semiring.Semiring[W], q *hypergraph.Query, rels map[string]dist.Rel[W], opts Options) (dist.Rel[W], mpc.Stats, error) {
			return treequery.Compute(sr, q, rels, treequery.Options{Seed: opts.Seed})
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
