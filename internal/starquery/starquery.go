// Package starquery implements the §5 algorithm of Hu–Yi PODS'20 for star
// queries
//
//	∑_B R1(A1,B) ⋈ R2(A2,B) ⋈ … ⋈ Rn(An,B)
//
// with load Õ((N·OUT/p)^{2/3} + N·OUT^{1/2}/p + (N+OUT)/p). Unlike the
// matrix-multiplication and line algorithms, it is oblivious to OUT: the
// output size appears only in the analysis.
//
// Each value b ∈ dom(B) is classified by the permutation ϕ_b that sorts
// its per-relation degrees d_1(b) ≤ … ≤ d_n(b); this splits dom(B) into at
// most n! classes B_ϕ, each handled as its own subquery. Within a class,
// the arms at odd positions of ϕ (the small-degree half, interleaved) are
// fully joined into R_ϕ(A^odd, B) and the even positions into
// R_ϕ(A^even, B) — Lemmas 5 and 6 bound both by N·√OUT — and the subquery
// reduces to one output-sensitive matrix multiplication. The n! subquery
// results are ⊕-merged by the output attributes.
//
// The engine is Bind, which reads a star query's arms off its hypergraph
// view, and Run(…, seed), the algorithm over them; the planner has already
// checked the class and refused a star of more than dist.MaxPermArms arms.
package starquery

import (
	"mpcjoin/internal/dist"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/matmul"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/semiring"
	"mpcjoin/internal/twoway"
)

// Bind turns a star query's view into Run's arguments: its arms, their
// leaves expanded to attribute columns (dist.Single for a plain query) and
// the center. ok is false for any other class.
func Bind[W any](q *hypergraph.Query, rels map[string]dist.Rel[W], expand func(hypergraph.Attr) []dist.Attr) (arms []dist.Rel[W], leaves [][]dist.Attr, center dist.Attr, ok bool) {
	view, ok := q.StarView()
	if !ok {
		return nil, nil, "", false
	}
	arms = make([]dist.Rel[W], len(view.ArmEdge))
	leaves = make([][]dist.Attr, len(view.ArmEdge))
	for i, ei := range view.ArmEdge {
		arms[i] = rels[q.Edges[ei].Name]
		leaves[i] = expand(view.Leaves[i])
	}
	return arms, leaves, view.Center, true
}

// Run is the core algorithm over explicit arms: arms[i] spans
// leaves[i] ∪ {b}. Leaves may be composite attribute lists (combined
// attributes from the tree-query reduction); the center b is a single
// attribute. The output schema is the concatenation of the leaves. seed
// drives hash partitioning in the per-class matrix multiplications.
func Run[W any](sr semiring.Semiring[W], arms []dist.Rel[W], leaves [][]dist.Attr, b dist.Attr, seed uint64) (dist.Rel[W], mpc.Stats) {
	n := len(arms)
	if n < 2 {
		panic("starquery: need at least 2 arms")
	}
	p := arms[0].P()
	ex := arms[0].Part.Scope()
	var outSchema []dist.Attr
	for _, l := range leaves {
		outSchema = append(outSchema, l...)
	}

	// Remove dangling tuples: every b must appear in all arms. Each arm is
	// a one-relation chain aliasing its slot of the copied arms slice.
	arms = append([]dist.Rel[W](nil), arms...)
	chains := make([][]dist.Rel[W], n)
	for i := range arms {
		chains[i] = arms[i : i+1]
	}
	inter, st := dist.ReduceArms(sr, chains, b)
	nb, sc := mpc.TotalCount(inter.Part)
	st = mpc.Seq(st, sc)
	if nb == 0 {
		return dist.EmptyIn[W](ex, outSchema, p), st
	}

	// Step 1: per-arm degrees d_i(b); each b's class is its sorting
	// permutation ϕ_b. Every arm row is tagged with its b's class.
	degs := make([]mpc.Part[mpc.KeyCount[int64]], n)
	for i := range arms {
		deg, s := dist.Degrees(arms[i], b)
		st = mpc.Seq(st, s)
		degs[i] = deg
	}
	perms, s2 := dist.DegreeOrderClasses(degs, func(order []int, _ []int64) int64 { return dist.EncodePerm(order, n) })
	permIDs, s3 := dist.DistinctClasses(perms)
	st = mpc.Seq(st, s2, s3)
	tagged := make([]dist.ClassedRel[W], n)
	for i := range arms {
		var s mpc.Stats
		tagged[i], s = dist.TagByClass(arms[i], b, perms)
		st = mpc.Seq(st, s)
	}

	// Steps 2–3: per-permutation subqueries, each reduced to one matrix
	// multiplication; results ⊕-merged at the end. The (constantly many)
	// subqueries run on disjoint O(p)-server groups simultaneously, so
	// their costs compose with Par, as in the paper's accounting.
	var results []dist.Rel[W]
	var classStats []mpc.Stats
	for _, pid := range permIDs {
		// Interleave sorted arms into odd/even halves (1-indexed odds).
		var odd, even []dist.Rel[W]
		for pos, armIdx := range dist.DecodePerm(pid, n) {
			if pos%2 == 0 {
				odd = append(odd, tagged[armIdx].Select(pid))
			} else {
				even = append(even, tagged[armIdx].Select(pid))
			}
		}
		rOdd, s1 := twoway.JoinAll(sr, p, odd...)
		rEven, s2 := twoway.JoinAll(sr, p, even...)

		res, s, err := matmul.Compute(sr, matmul.Input[W]{R1: rOdd, R2: rEven, B: b},
			matmul.Options{Seed: seed ^ uint64(pid), SkipDangling: true})
		if err != nil {
			panic(err)
		}
		classStats = append(classStats, mpc.Seq(s1, s2, s))
		results = append(results, dist.Reshape(dist.Reorder(res, outSchema), p))
	}
	st = mpc.Seq(st, mpc.Par(classStats...))
	if len(results) == 0 {
		return dist.EmptyIn[W](ex, outSchema, p), st
	}

	final, s6 := dist.UnionAgg(sr, results...)
	return final, mpc.Seq(st, s6)
}
