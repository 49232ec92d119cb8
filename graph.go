package mpcjoin

// graph.go is the public surface of the iterated graph-analytics family:
// one SpMV/SpMSpV primitive generic over the semiring, and the three
// drivers built on it — BFS (Bools), SSSP (MinPlus), PageRank (Floats).
// Each driver runs internal/spmv's multi-round loop on the same execution
// machinery as Execute (servers, seed, workers, tracing, fault injection,
// transport all via the usual With* options), so a traced run exposes
// every iteration's exchange rounds and a fault-injected run retries them
// like any join-aggregate round.

import (
	"context"
	"fmt"

	"mpcjoin/internal/core"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/spmv"
)

// GraphEdge is one weighted directed edge S → D of a graph workload.
// BFS ignores the weight, SSSP adds it along paths (it must be
// nonnegative and finite for shortest-path semantics), PageRank spreads
// rank uniformly regardless of it.
type GraphEdge struct {
	Src, Dst Value
	W        int64
}

// VecEntry is one element of a sparse vector: an index and its
// annotation in the semiring's carrier.
type VecEntry[W any] struct {
	Idx Value
	Val W
}

// MatrixEntry is one matrix element for SpMV: y[Row] = ⊕_Col A[Row,Col]
// ⊗ x[Col].
type MatrixEntry[W any] struct {
	Row, Col Value
	W        W
}

// IterationStat meters one iteration of a graph driver: state sizes in
// and out, elementary products formed, whether the frontier-sparse local
// path ran, and the iteration's rounds and loads.
type IterationStat = spmv.IterStat

// SpMVResult is one distributed multiply's outcome.
type SpMVResult[W any] struct {
	// Entries is y = A ⊗ x, sorted by index; indices whose result is
	// absent (no contributing product) do not appear.
	Entries []VecEntry[W]
	// Stats is the metered cost: matrix and vector placement plus the
	// multiply's exchange.
	Stats  Stats
	Trace  []RoundTrace
	Faults *FaultReport
}

// SpMV computes the distributed product y = A ⊗ x over the semiring —
// one placement of the matrix and vector, one pre-aggregated exchange.
// For iterated workloads prefer the drivers (BFS, SSSP, PageRank), which
// place the matrix once and pay one exchange per iteration.
func SpMV[W any](sr Semiring[W], a []MatrixEntry[W], x []VecEntry[W], opts ...Option) (*SpMVResult[W], error) {
	return SpMVContext(context.Background(), sr, a, x, opts...)
}

// SpMVContext is SpMV with cooperative cancellation.
func SpMVContext[W any](ctx context.Context, sr Semiring[W], a []MatrixEntry[W], x []VecEntry[W], opts ...Option) (res *SpMVResult[W], err error) {
	co, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	edges := make([]spmv.Edge[W], len(a))
	for i, e := range a {
		edges[i] = spmv.Edge[W]{Src: e.Col, Dst: e.Row, W: e.W}
	}
	in := make([]spmv.Entry[W], len(x))
	for i, e := range x {
		in[i] = spmv.Entry[W]{Idx: e.Idx, Val: e.Val}
	}

	res = &SpMVResult[W]{}
	res.Trace, res.Faults, err = inScope(ctx, co, func(ex *mpc.Exec, p int) {
		eng := spmv.NewEngine[W](ex, sr, edges, p, co.Seed)
		xv, vst := eng.NewVector(in)
		y, ms := eng.Mul(xv)
		res.Stats = mpc.Seq(eng.BuildStats(), mpc.Seq(vst, ms.Stats))
		for _, en := range y.Entries() {
			res.Entries = append(res.Entries, VecEntry[W]{Idx: en.Idx, Val: en.Val})
		}
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// VertexRow is one vertex's result in a traversal: BFS hop level or SSSP
// distance.
type VertexRow struct {
	Vertex Value
	Val    int64
}

// GraphResult is a traversal driver's outcome.
type GraphResult struct {
	// Rows holds one entry per reached vertex, sorted by vertex;
	// unreachable vertices are absent.
	Rows []VertexRow
	// Iterations meters each driver iteration (see IterationStat).
	Iterations []IterationStat
	// Stats is the driver's total cost: graph placement, vector setup,
	// and every iteration's exchange and convergence rounds.
	Stats Stats
	// Converged reports whether the loop reached its fixpoint within the
	// round budget (false means the budget cut it off; Rows holds the
	// state reached).
	Converged bool
	// Vertices and Edges are the placed graph's sizes.
	Vertices, Edges int64
	Trace           []RoundTrace
	Faults          *FaultReport
}

// BFS computes hop distances from src: level 0 at the source, level k
// for vertices first reached by the k-th frontier expansion — the Bools
// instantiation of the iterated SpMSpV loop.
func BFS(edges []GraphEdge, src Value, opts ...Option) (*GraphResult, error) {
	return BFSContext(context.Background(), edges, src, opts...)
}

// BFSContext is BFS with cooperative cancellation.
func BFSContext(ctx context.Context, edges []GraphEdge, src Value, opts ...Option) (*GraphResult, error) {
	co, ip, err := buildIterOptions(opts, false)
	if err != nil {
		return nil, err
	}
	return runTraversal(ctx, co, func(ex *mpc.Exec, p int) *spmv.GraphResult {
		bedges := make([]spmv.Edge[bool], len(edges))
		for i, e := range edges {
			bedges[i] = spmv.Edge[bool]{Src: e.Src, Dst: e.Dst, W: true}
		}
		return spmv.BFS(ex, bedges, p, co.Seed, src, ip.maxIters)
	})
}

// SSSP computes single-source shortest-path distances from src under the
// MinPlus (tropical) semiring by distributed frontier relaxation. Edge
// weights must be nonnegative. The default round budget is the
// Bellman-Ford guarantee (|V|+1 iterations); WithMaxIters overrides it.
func SSSP(edges []GraphEdge, src Value, opts ...Option) (*GraphResult, error) {
	return SSSPContext(context.Background(), edges, src, opts...)
}

// SSSPContext is SSSP with cooperative cancellation.
func SSSPContext(ctx context.Context, edges []GraphEdge, src Value, opts ...Option) (*GraphResult, error) {
	co, ip, err := buildIterOptions(opts, false)
	if err != nil {
		return nil, err
	}
	for _, e := range edges {
		if e.W < 0 {
			return nil, fmt.Errorf("mpcjoin: SSSP: negative edge weight %d on %d→%d", e.W, e.Src, e.Dst)
		}
	}
	return runTraversal(ctx, co, func(ex *mpc.Exec, p int) *spmv.GraphResult {
		wedges := make([]spmv.Edge[int64], len(edges))
		for i, e := range edges {
			wedges[i] = spmv.Edge[int64]{Src: e.Src, Dst: e.Dst, W: e.W}
		}
		return spmv.SSSP(ex, wedges, p, co.Seed, src, ip.maxIters)
	})
}

func runTraversal(ctx context.Context, co core.Options, run func(ex *mpc.Exec, p int) *spmv.GraphResult) (res *GraphResult, err error) {
	res = &GraphResult{}
	res.Trace, res.Faults, err = inScope(ctx, co, func(ex *mpc.Exec, p int) {
		gr := run(ex, p)
		res.Iterations, res.Stats, res.Converged = gr.Iters, mpc.Seq(gr.Build, gr.Stats), gr.Converged
		res.Vertices, res.Edges = gr.N, gr.NNZ
		res.Rows = make([]VertexRow, len(gr.Rows))
		for i, en := range gr.Rows {
			res.Rows[i] = VertexRow{Vertex: en.Idx, Val: en.Val}
		}
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RankRow is one vertex's PageRank.
type RankRow struct {
	Vertex Value
	Rank   float64
}

// PageRankResult is the PageRank driver's outcome.
type PageRankResult struct {
	// Ranks holds every vertex's rank, sorted by vertex; ranks sum to 1
	// up to float error.
	Ranks      []RankRow
	Iterations []IterationStat
	Stats      Stats
	// Converged reports whether the L∞ residual reached the tolerance
	// within the round budget.
	Converged       bool
	Vertices, Edges int64
	Trace           []RoundTrace
	Faults          *FaultReport
}

// PageRank computes damped PageRank over the edge list (weights ignored;
// rank spreads uniformly over out-neighbors, dangling mass redistributes
// uniformly). Tune with WithDamping (default 0.85), WithTolerance
// (default 1e-9 on the L∞ residual) and WithMaxIters.
func PageRank(edges []GraphEdge, opts ...Option) (*PageRankResult, error) {
	return PageRankContext(context.Background(), edges, opts...)
}

// PageRankContext is PageRank with cooperative cancellation.
func PageRankContext(ctx context.Context, edges []GraphEdge, opts ...Option) (res *PageRankResult, err error) {
	co, ip, err := buildIterOptions(opts, true)
	if err != nil {
		return nil, err
	}
	wedges := make([]spmv.Edge[int64], len(edges))
	for i, e := range edges {
		wedges[i] = spmv.Edge[int64]{Src: e.Src, Dst: e.Dst, W: e.W}
	}
	res = &PageRankResult{}
	res.Trace, res.Faults, err = inScope(ctx, co, func(ex *mpc.Exec, p int) {
		pr := spmv.PageRank(ex, wedges, p, co.Seed, ip.damping, ip.tol, ip.maxIters)
		res.Iterations, res.Stats, res.Converged = pr.Iters, mpc.Seq(pr.Build, pr.Stats), pr.Converged
		res.Vertices, res.Edges = pr.N, pr.NNZ
		res.Ranks = make([]RankRow, len(pr.Ranks))
		for i, en := range pr.Ranks {
			res.Ranks[i] = RankRow{Vertex: en.Idx, Rank: en.Val}
		}
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// inScope is the scope/finish tail every graph entry point shares: run
// executes on the execution scope the options describe, at Execute's
// default cluster size when none is set (an abort — cancellation, fault
// budget — unwinds out of it into err), and the trace and fault accounting
// the options recorded come back for the result.
func inScope(ctx context.Context, co core.Options, run func(ex *mpc.Exec, p int)) (trace []RoundTrace, faults *FaultReport, err error) {
	ex, release, err := co.NewScope(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer release()
	defer mpc.Recover(&err)

	p := co.Servers
	if p == 0 {
		p = 16
	}
	run(ex, p)
	if co.Tracer != nil {
		trace = co.Tracer.Rounds()
	}
	if co.Faults != nil {
		rep := co.Faults.Report()
		faults = &rep
	}
	return trace, faults, nil
}
