// Package matmul implements the sparse matrix multiplication algorithms of
// §3 of Hu–Yi PODS'20 — the paper's core contribution — for the query
//
//	∑_B R1(A, B) ⋈ R2(B, C)
//
// over an arbitrary commutative semiring, where A and C may be composite
// ("combined") attribute lists arising from the star/star-like reductions.
//
// Five branches are provided, matching the paper's case analysis. Each is
// named by its planner constant; which one runs when none is forced is
// Theorem 1's rule, whose arithmetic lives in internal/planner
// (theorem1.go) beside the engine table:
//
//   - EngineMatMulBroadcast — N1 = O(1) (or N2): broadcast the tiny side
//     (§1.5).
//   - EngineMatMulUnequal — N1/N2 ∉ [1/p, p]: group R2 by C, broadcast R1
//     (§3).
//   - EngineMatMulLinear — OUT ≤ N/p: co-locate by B, local aggregate, one
//     global reduce (LinearSparseMM, §3.2). Forced past its gate it stays
//     correct; its load degrades to O(max_b d1(b)+d2(b) + OUT).
//   - EngineMatMulWorstCase — §3.1: heavy/light on A and C, four
//     subqueries, load O(√(N1·N2/p)).
//   - EngineMatMulOutSens — §3.2: OUT-adaptive grouping, load
//     O((N1·N2·OUT)^{1/3}/p^{2/3}).
//
// All strategies compute every elementary product a_{ib}·b_{bc} exactly
// once per (a,b,c) and arrange locality so most ⊕-aggregation happens on
// the producing server — the mechanism §1.5 credits for the improvement
// over distributed Yannakakis.
package matmul

import (
	"fmt"

	"mpcjoin/internal/dist"
	"mpcjoin/internal/estimate"
	"mpcjoin/internal/kmv"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/planner"
	"mpcjoin/internal/relation"
	"mpcjoin/internal/semiring"
)

// Input is a matrix multiplication instance: R1's schema is A ∪ {B}, R2's
// is {B} ∪ C, with A, C disjoint and B the single shared join attribute.
type Input[W any] struct {
	R1, R2 dist.Rel[W]
	B      dist.Attr
}

// ASide returns R1's output attributes (schema minus B), in schema order.
func (in Input[W]) ASide() []dist.Attr { return dist.Without(in.R1.Schema, in.B) }

// CSide returns R2's output attributes.
func (in Input[W]) CSide() []dist.Attr { return dist.Without(in.R2.Schema, in.B) }

// OutSchema returns the output schema: A-side attributes then C-side.
func (in Input[W]) OutSchema() []dist.Attr {
	return append(append([]dist.Attr(nil), in.ASide()...), in.CSide()...)
}

// validate checks the Input invariants.
func (in Input[W]) validate() error {
	if !in.R1.Has(in.B) || !in.R2.Has(in.B) {
		return fmt.Errorf("matmul: join attribute %q missing from an input schema", in.B)
	}
	for _, a := range in.ASide() {
		for _, c := range in.CSide() {
			if a == c {
				return fmt.Errorf("matmul: attribute %q on both sides", a)
			}
		}
	}
	if in.R1.P() != in.R2.P() {
		return fmt.Errorf("matmul: inputs span %d and %d servers", in.R1.P(), in.R2.P())
	}
	return nil
}

// Options tunes Compute.
type Options struct {
	// Engine forces one branch by its planner name, one of
	// planner.EngineMatMul{Linear,WorstCase,OutSens,Broadcast,Unequal};
	// "" and planner.EngineMatMul let Theorem 1 decide.
	Engine string
	// Seed drives the within-block hash partitioning.
	Seed uint64
	// SkipDangling skips the initial dangling-removal pass (callers that
	// have already reduced the instance).
	SkipDangling bool
}

// Compute evaluates the matrix multiplication and returns the distributed
// result over OutSchema plus the metered cost. Unless a branch is forced it
// follows Theorem 1: fast paths for degenerate sizes, then the linear gate
// and the better of the worst-case optimal and output-sensitive algorithms
// by their predicted loads, on a constant-factor OUT approximation.
func Compute[W any](sr semiring.Semiring[W], in Input[W], opts Options) (dist.Rel[W], mpc.Stats, error) {
	if err := in.validate(); err != nil {
		return dist.Rel[W]{}, mpc.Stats{}, err
	}
	var st mpc.Stats
	if !opts.SkipDangling {
		r1, s1 := dist.Semijoin(in.R1, in.R2)
		r2, s2 := dist.Semijoin(in.R2, in.R1)
		in.R1, in.R2 = r1, r2
		st = mpc.Seq(st, s1, s2)
	}

	p := in.R1.P()
	ns, s := mpc.TotalCounts(in.R1.Part, in.R2.Part)
	n1, n2 := ns[0], ns[1]
	st = mpc.Seq(st, s)

	if n1 == 0 || n2 == 0 {
		return dist.EmptyIn[W](in.R1.Part.Scope(), in.OutSchema(), p), st, nil
	}

	var ests mpc.Part[mpc.KeyCount[string]]
	var out int64
	estimateOut := func() {
		var es mpc.Stats
		ests, out, es = estimate.LineOut([]dist.Rel[W]{in.R1, in.R2},
			[][]dist.Attr{in.ASide(), {in.B}, in.CSide()}, estimate.Params{})
		st = mpc.Seq(st, es)
	}
	branch := opts.Engine
	if branch == "" || branch == planner.EngineMatMul {
		// Theorem 1: a fast path on sizes, else the §2.2 OUT estimate
		// chooses among the remaining three.
		if branch = planner.MatMulFastPath(n1, n2, p); branch == "" {
			estimateOut()
			branch = planner.MatMulBranch(n1, n2, out, p)
		}
	}

	var res dist.Rel[W]
	var as mpc.Stats
	switch branch {
	case planner.EngineMatMulBroadcast:
		res, as = broadcastSmall(sr, in, n1, n2)
	case planner.EngineMatMulUnequal:
		res, as = unequalRatio(sr, in, n1, n2)
	case planner.EngineMatMulLinear:
		res, as = linearSparseMM(sr, in)
	case planner.EngineMatMulWorstCase:
		res, as = worstCase(sr, in, n1, n2, opts.Seed)
	case planner.EngineMatMulOutSens:
		if ests.P() == 0 {
			estimateOut()
		}
		res, as = outputSensitive(sr, in, n1, n2, out, ests, opts.Seed)
	default:
		return dist.Rel[W]{}, mpc.Stats{}, fmt.Errorf("matmul: unknown branch %q", branch)
	}
	return dist.Reshape(res, p), mpc.Seq(st, as), nil
}

// ---------------------------------------------------------------------------
// Shared plumbing
// ---------------------------------------------------------------------------

// localJoinAgg joins the two sides of a routed shard on their shared
// attributes and ⊕-aggregates onto outSchema — the per-server local
// computation every routing strategy ends with, one relation.JoinAgg
// (no elementary product is materialised). Free in the MPC model.
func localJoinAgg[W any](sr semiring.Semiring[W], in Input[W], outSchema []dist.Attr, shard []relation.SidedRow[W]) []relation.Row[W] {
	left, right := relation.Unzip(shard, in.R1.Schema, in.R2.Schema)
	return relation.JoinAgg(sr, left, right, outSchema...).Rows
}

// hashB spreads a B value across m slots with a seeded hash.
func hashB(b relation.Value, m int, seed uint64) int {
	if m <= 1 {
		return 0
	}
	return int(kmv.Hash64(uint64(b), seed) % uint64(m))
}

// hashStr spreads an encoded key across m slots.
func hashStr(s string, m int, seed uint64) int {
	if m <= 1 {
		return 0
	}
	return int(relation.HashString(s, seed) % uint64(m))
}

// ceilDiv is ⌈a/b⌉ for positive b.
func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }
