package spmv

import (
	"fmt"

	"mpcjoin/internal/mpc"
)

// Converge selects how Iterate decides the loop is done. Every mode costs
// a constant number of O(p)-load rounds per iteration (one all-reduce of
// per-server summaries), metered into that iteration's Stats.
type Converge int

const (
	// ConvergeEmpty stops when the state vector has no entries — the
	// drained-frontier fixpoint of BFS/SSSP-style loops, where the state
	// is the set of vertices still propagating.
	ConvergeEmpty Converge = iota
	// ConvergeDelta stops when the L∞ distance between successive states
	// drops to Tol — the float-carrier criterion (PageRank residuals),
	// where exact fixpoints never land.
	ConvergeDelta
)

// DefaultMaxIters caps the driver loop when the caller gives no budget:
// iterated analytics on real graphs converge in tens of rounds, so an
// unconverged run at this budget signals a diverging driver, not a large
// diameter.
const DefaultMaxIters = 256

// IterOptions configures Iterate.
type IterOptions[W any] struct {
	// MaxIters is the round budget; <= 0 selects DefaultMaxIters.
	// Exhausting the budget is not an error — the result reports
	// Converged=false and the state reached.
	MaxIters int
	// Mode selects the convergence criterion.
	Mode Converge
	// Delta measures the ConvergeDelta distance between an old and new
	// annotation (absent entries compare against the semiring zero).
	Delta func(a, b W) float64
	// Tol is the ConvergeDelta threshold (converged when max delta <= Tol).
	Tol float64
	// Step transforms the multiply's output into the next state — the
	// per-iteration driver logic (frontier subtraction, distance
	// relaxation, rank update). It runs after y = A ⊗ x and receives both
	// the current state x and the product y; nil passes y through. Any
	// communication the step performs must be returned in its Stats.
	Step func(iter int, x, y Vector[W]) (Vector[W], mpc.Stats)
}

// IterStat meters one iteration of the driver loop: the state size going
// in, the elementary products the multiply formed, the state size coming
// out, which local multiply path ran, and the round/load cost — the
// per-iteration figures the experiments harness checks against the
// Table 1 matmul formula.
type IterStat struct {
	Iter     int       `json:"iter"`
	In       int64     `json:"in"`
	Products int64     `json:"products"`
	Out      int64     `json:"out"`
	Sparse   bool      `json:"sparse"`
	Stats    mpc.Stats `json:"stats"`
}

// IterResult is the driver loop's outcome: the final state, the
// per-iteration metering, the loop's total cost (Seq over iterations),
// and whether the convergence criterion fired within the budget.
type IterResult[W any] struct {
	X         Vector[W]
	Iters     []IterStat
	Stats     mpc.Stats
	Converged bool
}

// Iterate runs the multi-round driver loop x ← step(A ⊗ x) until the
// convergence criterion fires or the budget runs out. Each iteration is
// one Mul exchange, the step's own rounds, and a constant-round
// convergence check; all of it lands in that iteration's IterStat and in
// the sequential total. Traced executions see each iteration's rounds
// labeled iterK.partials / iterK.converge.*.
func Iterate[W any](e *Engine[W], x Vector[W], opts IterOptions[W]) IterResult[W] {
	max := opts.MaxIters
	if max <= 0 {
		max = DefaultMaxIters
	}
	if opts.Mode == ConvergeDelta && opts.Delta == nil {
		panic("spmv: Iterate: ConvergeDelta needs a Delta distance")
	}

	res := IterResult[W]{X: x}
	defer func() { e.iterTag = "spmv" }()
	for k := 0; k < max; k++ {
		e.iterTag = fmt.Sprintf("iter%d", k)
		y, ms := e.Mul(res.X)
		st := ms.Stats
		next := y
		if opts.Step != nil {
			var sst mpc.Stats
			next, sst = opts.Step(k, res.X, y)
			st = mpc.Seq(st, sst)
		}

		converged := false
		switch opts.Mode {
		case ConvergeEmpty:
			n, cst := mpc.TotalCount(next.part)
			st = mpc.Seq(st, cst)
			converged = n == 0
		case ConvergeDelta:
			deltas := shardDeltas(e, res.X, next, opts.Delta)
			worst, cst := mpc.AllReduce(e.edges.Scope(), deltas, func(worst, d float64) float64 {
				if d > worst {
					return d
				}
				return worst
			}, e.iterTag+".converge")
			st = mpc.Seq(st, cst)
			converged = worst <= opts.Tol
		}

		res.Iters = append(res.Iters, IterStat{
			Iter: k, In: ms.In, Products: ms.Products, Out: next.Len(),
			Sparse: ms.Sparse, Stats: st,
		})
		res.Stats = mpc.Seq(res.Stats, st)
		res.X = next
		if converged {
			res.Converged = true
			break
		}
	}
	return res
}

// shardDeltas computes, per server, the max distance between aligned old
// and new entries, measuring one-sided entries against the semiring zero.
func shardDeltas[W any](e *Engine[W], old, new Vector[W], delta func(a, b W) float64) []float64 {
	zero := e.sr.Zero()
	deltas := make([]float64, e.p)
	e.edges.Scope().ForEachShard(e.p, func(s int) {
		a, b := old.part.Shards[s], new.part.Shards[s]
		worst := 0.0
		bump := func(d float64) {
			if d > worst {
				worst = d
			}
		}
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i].Idx < b[j].Idx:
				bump(delta(a[i].Val, zero))
				i++
			case a[i].Idx > b[j].Idx:
				bump(delta(zero, b[j].Val))
				j++
			default:
				bump(delta(a[i].Val, b[j].Val))
				i++
				j++
			}
		}
		for ; i < len(a); i++ {
			bump(delta(a[i].Val, zero))
		}
		for ; j < len(b); j++ {
			bump(delta(zero, b[j].Val))
		}
		deltas[s] = worst
	})
	return deltas
}
