// Package starlike implements the §6 algorithm of Hu–Yi PODS'20 for
// star-like queries: n line-query arms T_1 … T_n sharing a common
// non-output attribute B, with the far end A_i of each arm an output
// attribute and all interior attributes aggregated away. Star-like queries
// generalize both line queries (n = 2) and star queries (single-relation
// arms) and are the building block for general tree queries (§7).
//
// Like the star algorithm it is oblivious to OUT. Each b ∈ dom(B) is
// classified by the permutation ϕ_b sorting its per-arm degree estimates
// d_i(b) (obtained by the §2.2 estimator along each arm), and further as
// "small" (∏_{i<n} d_{ϕ(i)}(b) ≤ d_{ϕ(n)}(b)) or "large". A small class
// shrinks its n−1 low-degree arms (Yannakakis folds, sizes ≤ N·√OUT by
// Lemma 10), joins them into a combined attribute A^small, and finishes as
// a line query through the remaining arm (§4). A large class shrinks all
// arms, splits them into the index sets I = {ϕ(n), ϕ(n−3), …} and J (whose
// joint sizes Lemma 11 bounds by N·OUT^{2/3}), uniformizes by degree
// (powers of two) and finishes with one matrix multiplication per degree
// class. Load: Õ((N·N')^{1/3}·OUT^{1/2}/p^{2/3} + N'^{2/3}·OUT^{1/3}/p^{2/3}
// + N·OUT^{2/3}/p + (N+N'+OUT)/p) (Lemma 7).
//
// The engine is Bind, which reads a star-like query's arms off its
// hypergraph view, and Run(…, seed), the algorithm over them; the planner
// has already checked the class and refused more than dist.MaxPermArms
// arms. An arm shrinks toward B with twoway.FoldChain, and its degree
// estimates come from estimate.ArmOut.
package starlike

import (
	"slices"

	"mpcjoin/internal/dist"
	"mpcjoin/internal/estimate"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/linequery"
	"mpcjoin/internal/matmul"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/relation"
	"mpcjoin/internal/semiring"
	"mpcjoin/internal/twoway"
)

// Arm is one arm of a star-like query: relations ordered from the center
// outward (Rels[0] touches B), with the vertex path [B], inner…, Leaf.
type Arm[W any] struct {
	// Rels[j] spans Path[j] ∪ Path[j+1].
	Rels []dist.Rel[W]
	// Path[0] = [B]; Path[len-1] = the (possibly composite) leaf.
	Path [][]dist.Attr
}

// Leaf returns the arm's output attribute list.
func (a Arm[W]) Leaf() []dist.Attr { return a.Path[len(a.Path)-1] }

// Bind turns a star-like query's view into Run's arguments: its arms, each
// inner vertex and leaf expanded to attribute columns (dist.Single for a
// plain query), and the center. ok is false for any other class.
func Bind[W any](q *hypergraph.Query, rels map[string]dist.Rel[W], expand func(hypergraph.Attr) []dist.Attr) (arms []Arm[W], center dist.Attr, ok bool) {
	view, ok := q.StarLikeView()
	if !ok {
		return nil, "", false
	}
	arms = make([]Arm[W], len(view.Arms))
	for i, va := range view.Arms {
		arm := Arm[W]{Path: [][]dist.Attr{{view.Center}}}
		for _, inner := range va.Inner {
			arm.Path = append(arm.Path, expand(inner))
		}
		arm.Path = append(arm.Path, expand(va.Leaf))
		for _, ei := range va.Edges {
			arm.Rels = append(arm.Rels, rels[q.Edges[ei].Name])
		}
		arms[i] = arm
	}
	return arms, view.Center, true
}

// Run is the core algorithm over explicit arms. Leaves may be composite;
// the center b and all interior attributes are single. The output schema
// is the concatenation of the arm leaves in the given order. seed drives
// hash partitioning in the matrix multiplications and line queries below.
func Run[W any](sr semiring.Semiring[W], arms []Arm[W], b dist.Attr, seed uint64) (dist.Rel[W], mpc.Stats) {
	n := len(arms)
	if n < 2 {
		panic("starlike: need at least 2 arms")
	}
	p := arms[0].Rels[0].P()
	ex := arms[0].Rels[0].Part.Scope()
	var outSchema []dist.Attr
	for _, a := range arms {
		outSchema = append(outSchema, a.Leaf()...)
	}

	var st mpc.Stats
	arms = cloneArms(arms)

	// Degenerate to a line query when n = 2 (§6: a star-like query with
	// two arms is a line query through B).
	if n == 2 {
		var rels []dist.Rel[W]
		var path [][]dist.Attr
		for j := len(arms[0].Rels) - 1; j >= 0; j-- {
			rels = append(rels, arms[0].Rels[j])
		}
		rels = append(rels, arms[1].Rels...)
		for j := len(arms[0].Path) - 1; j >= 0; j-- {
			path = append(path, arms[0].Path[j])
		}
		path = append(path, arms[1].Path[1:]...)
		res, s := linequery.Run(sr, rels, path, seed)
		st = mpc.Seq(st, s)
		return dist.Reshape(dist.Reorder(res, outSchema), p), st
	}

	// Dangling removal across the whole query: sweep each arm inward to B,
	// intersect the arms' B-sets, sweep back outward.
	chains := make([][]dist.Rel[W], n)
	for i := range arms {
		chains[i] = arms[i].Rels
	}
	_, s := dist.ReduceArms(sr, chains, b)
	st = mpc.Seq(st, s)
	nb, sc := mpc.TotalCount(arms[0].Rels[0].Part)
	st = mpc.Seq(st, sc)
	if nb == 0 {
		return dist.EmptyIn[W](ex, outSchema, p), st
	}

	// Step 1: per-arm degree estimates d_i(b) by the §2.2 estimator run
	// along each arm (exact when the arm is a single relation and the
	// distinct leaf count is below the sketch size). Each b's class is its
	// sorting permutation ϕ_b plus the small/large flag —
	// EncodePerm(ϕ_b)·2 + small-bit — and the B-incident relation of
	// every arm is tagged with its b's class.
	degs := make([]mpc.Part[mpc.KeyCount[int64]], n)
	for i := range arms {
		var s mpc.Stats
		degs[i], s = estimate.ArmOut(arms[i].Rels, arms[i].Path)
		st = mpc.Seq(st, s)
	}
	classes, s2 := dist.DegreeOrderClasses(degs, func(order []int, sorted []int64) int64 {
		var prod int64 = 1
		for _, d := range sorted[:len(sorted)-1] {
			prod = estimate.MulSat(prod, d)
		}
		small := int64(0)
		if prod <= sorted[len(sorted)-1] {
			small = 1
		}
		return dist.EncodePerm(order, n)*2 + small
	})
	classIDs, s3 := dist.DistinctClasses(classes)
	st = mpc.Seq(st, s2, s3)
	taggedInner := make([]dist.ClassedRel[W], n)
	for i := range arms {
		var s mpc.Stats
		taggedInner[i], s = dist.TagByClass(arms[i].Rels[0], b, classes)
		st = mpc.Seq(st, s)
	}

	// Steps 2–3 per class. The (constantly many) subqueries run on disjoint
	// O(p)-server groups simultaneously, so their costs compose with Par,
	// as in the paper's accounting.
	var results []dist.Rel[W]
	var classStats []mpc.Stats
	for _, cid := range classIDs {
		var cst mpc.Stats
		small := cid%2 == 1
		order := dist.DecodePerm(cid/2, n)

		// The class's arms: B-incident relations filtered to the class,
		// outer relations restricted by an outward semijoin sweep.
		classArms := make([]Arm[W], n)
		for i := range arms {
			ca := Arm[W]{Path: arms[i].Path, Rels: append([]dist.Rel[W](nil), arms[i].Rels...)}
			ca.Rels[0] = taggedInner[i].Select(cid)
			for j := 1; j < len(ca.Rels); j++ {
				filtered, s := dist.Semijoin(ca.Rels[j], ca.Rels[j-1])
				ca.Rels[j] = filtered
				cst = mpc.Seq(cst, s)
			}
			classArms[i] = ca
		}

		var res dist.Rel[W]
		var s mpc.Stats
		if small {
			res, s = runSmall(sr, classArms, order, b, p, seed)
		} else {
			res, s = runLarge(sr, classArms, order, b, p, seed)
		}
		cst = mpc.Seq(cst, s)
		classStats = append(classStats, cst)
		results = append(results, dist.Reshape(dist.Reorder(res, outSchema), p))
	}
	st = mpc.Seq(st, mpc.Par(classStats...))
	if len(results) == 0 {
		return dist.EmptyIn[W](ex, outSchema, p), st
	}
	final, s6 := dist.UnionAgg(sr, results...)
	return final, mpc.Seq(st, s6)
}

// runSmall handles Q^small_ϕ: shrink arms ϕ(1..n−1) (Step 2.1), join them
// into the combined attribute A^small (Step 2.2), and run the remaining
// arm as a line query.
func runSmall[W any](sr semiring.Semiring[W], arms []Arm[W], order []int, b dist.Attr, p int, seed uint64) (dist.Rel[W], mpc.Stats) {
	var st mpc.Stats
	n := len(arms)

	shrunk := make([]dist.Rel[W], 0, n-1)
	for _, i := range order[:n-1] {
		r, s := twoway.FoldChain(sr, arms[i].Rels, arms[i].Path, p)
		st = mpc.Seq(st, s)
		shrunk = append(shrunk, r)
	}
	// R_ϕ(A^small, B): full join of the shrunk arms on B.
	acc, s := twoway.JoinAll(sr, p, shrunk...)
	st = mpc.Seq(st, s)
	// Combined-attribute line query through the last arm.
	last := arms[order[n-1]]
	smallAttrs := dist.Without(acc.Schema, b)
	rels := append([]dist.Rel[W]{acc}, last.Rels...)
	path := append([][]dist.Attr{smallAttrs}, last.Path...)
	res, s := linequery.Run(sr, rels, path, seed)
	return res, mpc.Seq(st, s)
}

// runLarge handles Q^large_ϕ: shrink all arms (Step 3.1), split into the
// I/J index sets of Lemma 11 (Step 3.2), uniformize by the power-of-two
// degree of b in R(A^I, B) (Step 3.3), and run one matrix multiplication
// per degree class (Step 3.4).
func runLarge[W any](sr semiring.Semiring[W], arms []Arm[W], order []int, b dist.Attr, p int, seed uint64) (dist.Rel[W], mpc.Stats) {
	var st mpc.Stats
	n := len(arms)

	shrunk := make([]dist.Rel[W], n)
	for i := range arms {
		r, s := twoway.FoldChain(sr, arms[i].Rels, arms[i].Path, p)
		st = mpc.Seq(st, s)
		shrunk[i] = r
	}

	// I = {ϕ(n), ϕ(n−3), ϕ(n−6), …} (1-indexed), J = the rest — never
	// empty, since n ≥ 3 here (n = 2 ran as a line query).
	var sideI, sideJ []dist.Rel[W]
	for pos, armIdx := range order {
		if (n-1-pos)%3 == 0 {
			sideI = append(sideI, shrunk[armIdx])
		} else {
			sideJ = append(sideJ, shrunk[armIdx])
		}
	}
	rI, sI := twoway.JoinAll(sr, p, sideI...)
	rJ, sJ := twoway.JoinAll(sr, p, sideJ...)
	st = mpc.Seq(st, sI, sJ)

	// Uniformize: group b values by ⌈log₂ deg⌉ in R(A^I, B).
	degI, s := dist.Degrees(rI, b)
	st = mpc.Seq(st, s)
	classOf := mpc.Map(degI, func(kc mpc.KeyCount[int64]) dist.ValueClass {
		return dist.ValueClass{B: relation.Value(kc.Key), Class: int64(bitLen(kc.Count))}
	})
	distinct, s1 := mpc.ReduceByKey(mpc.Map(classOf, func(vc dist.ValueClass) int64 { return vc.Class }),
		func(c int64) int64 { return c }, func(a, b int64) int64 { return a })
	classIDs, s2 := mpc.Agree(distinct, "", func(ids []int64) []int64 {
		slices.Sort(ids)
		return ids
	})
	st = mpc.Seq(st, s1, s2)

	tagI, s4 := dist.TagByClass(rI, b, classOf)
	tagJ, s5 := dist.TagByClass(rJ, b, classOf)
	st = mpc.Seq(st, s4, s5)

	outSchema := append(dist.Without(rI.Schema, b), dist.Without(rJ.Schema, b)...)
	var parts []mpc.Part[relation.Row[W]]
	var mmStats []mpc.Stats
	for _, cid := range classIDs {
		res, s, err := matmul.Compute(sr, matmul.Input[W]{R1: tagI.Select(cid), R2: tagJ.Select(cid), B: b},
			matmul.Options{Seed: seed ^ uint64(cid), SkipDangling: true})
		if err != nil {
			panic(err)
		}
		mmStats = append(mmStats, s)
		parts = append(parts, dist.Reshape(res, p).Part)
	}
	// Step 3.4: "all the matrix multiplications are computed in parallel".
	st = mpc.Seq(st, mpc.Par(mmStats...))
	// Degree classes partition dom(B); their outputs may still share
	// output tuples, so ⊕-merge.
	rels := make([]dist.Rel[W], len(parts))
	for i, pt := range parts {
		rels[i] = dist.Rel[W]{Schema: outSchema, Part: pt}
	}
	if len(rels) == 0 {
		return dist.EmptyIn[W](rI.Part.Scope(), outSchema, p), st
	}
	res, s6 := dist.UnionAgg(sr, rels...)
	return res, mpc.Seq(st, s6)
}

func cloneArms[W any](arms []Arm[W]) []Arm[W] {
	out := make([]Arm[W], len(arms))
	for i, a := range arms {
		out[i] = Arm[W]{Rels: append([]dist.Rel[W](nil), a.Rels...), Path: a.Path}
	}
	return out
}

func bitLen(x int64) int {
	n := 0
	for x > 0 {
		x >>= 1
		n++
	}
	return n
}
