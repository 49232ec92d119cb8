package spmv

import (
	"fmt"
	"math"

	"mpcjoin/internal/mpc"
	"mpcjoin/internal/relation"
	"mpcjoin/internal/semiring"
)

// GraphResult is the outcome of an int64-valued iterated traversal (BFS
// levels, SSSP distances): one entry per reached vertex, globally sorted
// by vertex, plus the per-iteration metering and the split costs — Build
// for placing the graph, Stats for the driver loop (vector setup,
// multiplies, steps, convergence checks).
type GraphResult struct {
	Rows      []Entry[int64]
	Iters     []IterStat
	Build     mpc.Stats
	Stats     mpc.Stats
	Converged bool
	N         int64 // vertex-universe size
	NNZ       int64 // edge count after placement
}

// BFS computes hop distances from src over the edge list: level 0 at the
// source, level k for vertices first reached by the k-th frontier
// expansion. The driver is the Bools SpMSpV loop — each iteration one
// frontier multiply (sparse path while the frontier is small), a local
// subtraction of already-visited vertices, and a drained-frontier check.
// Unreachable vertices are absent from the result.
func BFS(ex *mpc.Exec, edges []Edge[bool], p int, seed uint64, src relation.Value, maxIters int) *GraphResult {
	e := NewEngine[bool](ex, semiring.BoolOrAnd{}, edges, p, seed)

	// levels[s] is server s's visited set with hop counts, kept sorted by
	// vertex; seeded with the source at level 0 on its home server.
	levels := make([][]Entry[int64], p)
	levels[e.home(src)] = []Entry[int64]{{Idx: src, Val: 0}}

	x0, vst := e.NewVector([]Entry[bool]{{Idx: src, Val: true}})
	step := func(iter int, _, y Vector[bool]) (Vector[bool], mpc.Stats) {
		next := mpc.NewPartIn[Entry[bool]](ex, p)
		ex.ForEachShard(p, func(s int) {
			seen := levels[s]
			var fresh []Entry[bool]
			j := 0
			for _, en := range y.part.Shards[s] {
				for j < len(seen) && seen[j].Idx < en.Idx {
					j++
				}
				if j < len(seen) && seen[j].Idx == en.Idx {
					continue // already visited at an earlier level
				}
				fresh = append(fresh, en)
			}
			if len(fresh) > 0 {
				merged := make([]Entry[int64], 0, len(seen)+len(fresh))
				i, j := 0, 0
				for i < len(seen) || j < len(fresh) {
					if j == len(fresh) || (i < len(seen) && seen[i].Idx < fresh[j].Idx) {
						merged = append(merged, seen[i])
						i++
					} else {
						merged = append(merged, Entry[int64]{Idx: fresh[j].Idx, Val: int64(iter) + 1})
						j++
					}
				}
				levels[s] = merged
			}
			next.Shards[s] = fresh
		})
		return Vector[bool]{part: next}, mpc.Stats{}
	}

	it := Iterate(e, x0, IterOptions[bool]{MaxIters: maxIters, Mode: ConvergeEmpty, Step: step})
	return traversalResult(e, levels, vst, it.Iters, it.Stats, it.Converged)
}

// SSSP computes single-source shortest-path distances under MinPlus by
// frontier relaxation (distributed Bellman-Ford): each iteration relaxes
// the neighbors of last round's improved vertices and the new frontier is
// exactly the set whose tentative distance dropped. Nonnegative weights
// converge within the hop-diameter; maxIters <= 0 defaults to |V|+1, the
// Bellman-Ford guarantee. Weights must be finite tropical values in
// [0, MinPlus.Inf()).
func SSSP(ex *mpc.Exec, edges []Edge[int64], p int, seed uint64, src relation.Value, maxIters int) *GraphResult {
	sr := semiring.MinPlus{}
	e := NewEngine[int64](ex, sr, edges, p, seed)
	if maxIters <= 0 {
		maxIters = int(e.n) + 1
	}

	dist := make([][]Entry[int64], p)
	dist[e.home(src)] = []Entry[int64]{{Idx: src, Val: 0}}

	x0, vst := e.NewVector([]Entry[int64]{{Idx: src, Val: 0}})
	step := func(_ int, _, y Vector[int64]) (Vector[int64], mpc.Stats) {
		next := mpc.NewPartIn[Entry[int64]](ex, p)
		ex.ForEachShard(p, func(s int) {
			cur := dist[s]
			var improved []Entry[int64]
			j := 0
			for _, en := range y.part.Shards[s] {
				for j < len(cur) && cur[j].Idx < en.Idx {
					j++
				}
				if j < len(cur) && cur[j].Idx == en.Idx {
					if en.Val < cur[j].Val {
						cur[j].Val = en.Val
						improved = append(improved, en)
					}
					continue
				}
				improved = append(improved, en)
			}
			if len(improved) > 0 {
				// Insert the newly reached vertices (improved entries not
				// already in cur were appended above without insertion).
				merged := make([]Entry[int64], 0, len(cur)+len(improved))
				i, j := 0, 0
				for i < len(cur) || j < len(improved) {
					switch {
					case j == len(improved) || (i < len(cur) && cur[i].Idx < improved[j].Idx):
						merged = append(merged, cur[i])
						i++
					case i < len(cur) && cur[i].Idx == improved[j].Idx:
						merged = append(merged, cur[i]) // already updated in place
						i++
						j++
					default:
						merged = append(merged, improved[j])
						j++
					}
				}
				dist[s] = merged
			}
			next.Shards[s] = improved
		})
		return Vector[int64]{part: next}, mpc.Stats{}
	}

	it := Iterate(e, x0, IterOptions[int64]{MaxIters: maxIters, Mode: ConvergeEmpty, Step: step})
	return traversalResult(e, dist, vst, it.Iters, it.Stats, it.Converged)
}

func traversalResult[W any](e *Engine[W], state [][]Entry[int64], setup mpc.Stats, iters []IterStat, loop mpc.Stats, conv bool) *GraphResult {
	var rows []Entry[int64]
	for _, s := range state {
		rows = append(rows, s...)
	}
	mpc.SortLocal(rows, func(en Entry[int64]) int64 { return int64(en.Idx) })
	return &GraphResult{
		Rows: rows, Iters: iters,
		Build: e.BuildStats(), Stats: mpc.Seq(setup, loop),
		Converged: conv, N: e.n, NNZ: e.nnz,
	}
}

// DefaultDamping is PageRank's damping factor — the probability of
// following an edge rather than teleporting — when the caller names none.
const DefaultDamping = 0.85

// PageRankResult is PageRank's outcome: one rank per vertex (summing to 1
// up to float error), sorted by vertex, plus the iterated metering.
type PageRankResult struct {
	Ranks     []Entry[float64]
	Iters     []IterStat
	Build     mpc.Stats
	Stats     mpc.Stats
	Converged bool
	N         int64
	NNZ       int64
}

// PageRank computes damped PageRank over the edge list (edge annotations
// are ignored; each vertex spreads its rank uniformly over its
// out-neighbors). Dangling mass is redistributed uniformly each
// iteration via one O(p)-load all-reduce of per-server dangling sums.
// The state is dense over the vertex universe, so every iteration runs
// the dense multiply path; convergence is the L∞ residual dropping to
// tol (<= 0 selects 1e-9), under a maxIters budget (<= 0 selects
// DefaultMaxIters). damping 0 selects DefaultDamping.
func PageRank[W any](ex *mpc.Exec, edges []Edge[W], p int, seed uint64, damping, tol float64, maxIters int) *PageRankResult {
	if damping == 0 {
		damping = DefaultDamping
	}
	if damping <= 0 || damping >= 1 {
		panic(fmt.Sprintf("spmv: PageRank: damping %v outside (0, 1)", damping))
	}
	if tol <= 0 {
		tol = 1e-9
	}
	norm := make([]Edge[float64], len(edges))
	for i, ed := range edges {
		norm[i] = Edge[float64]{Src: ed.Src, Dst: ed.Dst, W: 1}
	}
	e := NewEngine[float64](ex, semiring.FloatSumProd{}, norm, p, seed)
	if e.n == 0 {
		return &PageRankResult{Converged: true}
	}
	n := float64(e.n)

	// Column-normalize in place: edges are grouped by Src on Src's home
	// server, so each run's length is the out-degree. Local, zero rounds.
	ex.ForEachShard(p, func(s int) {
		es := e.edges.Shards[s]
		for i := 0; i < len(es); {
			j := i
			for j < len(es) && es[j].Src == es[i].Src {
				j++
			}
			w := 1 / float64(j-i)
			for ; i < j; i++ {
				es[i].W = w
			}
		}
	})

	r0 := e.FromVertices(func(relation.Value) float64 { return 1 / n })
	step := func(iter int, x, y Vector[float64]) (Vector[float64], mpc.Stats) {
		// Dangling mass: rank sitting on out-degree-0 vertices, summed
		// locally (vertex metadata and state share placement) and totaled
		// in one all-reduce.
		fs := make([]float64, p)
		ex.ForEachShard(p, func(s int) {
			var m float64
			xs := x.part.Shards[s]
			j := 0
			for _, vi := range e.vertices.Shards[s] {
				if vi.OutDeg != 0 {
					continue
				}
				for j < len(xs) && xs[j].Idx < vi.Idx {
					j++
				}
				if j < len(xs) && xs[j].Idx == vi.Idx {
					m += xs[j].Val
				}
			}
			fs[s] = m
		})
		mass, mst := mpc.AllReduce(ex, fs, mpc.Add[float64], fmt.Sprintf("iter%d.dangling", iter))

		next := mpc.NewPartIn[Entry[float64]](ex, p)
		base := (1 - damping) / n
		ex.ForEachShard(p, func(s int) {
			vs := e.vertices.Shards[s]
			ys := y.part.Shards[s]
			out := make([]Entry[float64], len(vs))
			j := 0
			for i, vi := range vs {
				for j < len(ys) && ys[j].Idx < vi.Idx {
					j++
				}
				in := 0.0
				if j < len(ys) && ys[j].Idx == vi.Idx {
					in = ys[j].Val
				}
				out[i] = Entry[float64]{Idx: vi.Idx, Val: base + damping*(in+mass/n)}
			}
			next.Shards[s] = out
		})
		return Vector[float64]{part: next}, mst
	}

	it := Iterate(e, r0, IterOptions[float64]{
		MaxIters: maxIters, Mode: ConvergeDelta, Tol: tol,
		Delta: func(a, b float64) float64 { return math.Abs(a - b) },
		Step:  step,
	})
	return &PageRankResult{
		Ranks: it.X.Entries(), Iters: it.Iters,
		Build: e.BuildStats(), Stats: it.Stats,
		Converged: it.Converged, N: e.n, NNZ: e.nnz,
	}
}
