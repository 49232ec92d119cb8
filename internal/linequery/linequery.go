// Package linequery implements the §4 algorithm of Hu–Yi PODS'20 for line
// (chain matrix multiplication) queries
//
//	∑_{A2,…,An} R1(A1,A2) ⋈ R2(A2,A3) ⋈ … ⋈ Rn(An,An+1)
//
// with load Õ(N·OUT^{1/2}/p + (N·OUT/p)^{2/3} + (N+OUT)/p), an asymptotic
// improvement over the distributed Yannakakis baseline's N·OUT/p.
//
// The algorithm recurses on n: values of A2 whose degree in R1 is ≥ √OUT
// are heavy. The heavy subquery aggregates the tail R2 ⋈ … ⋈ Rn down to
// R(A2, An+1) right-to-left with Yannakakis folds (Lemma 4 bounds every
// intermediate join by N·√OUT) and finishes with one output-sensitive
// matrix multiplication; the light subquery joins R1 ⋈ R2 into R(A1, A3)
// (size ≤ N·√OUT by lightness) and recurses on the shorter line. The base
// case n = 2 is §3's matrix multiplication. OUT itself comes from the
// §2.2 constant-factor estimator.
//
// Endpoints may be composite attribute lists: the star-like reduction
// (§6, step 2.2) produces line queries whose first endpoint is a combined
// attribute.
//
// The engine is Bind, which reads a line query's relations and path off
// its hypergraph view, and Run(…, seed), the algorithm over them; the
// planner has already checked the class.
package linequery

import (
	"math"

	"mpcjoin/internal/dist"
	"mpcjoin/internal/estimate"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/matmul"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/relation"
	"mpcjoin/internal/semiring"
	"mpcjoin/internal/twoway"
)

// Bind turns a line query's view into Run's arguments: its relations in
// path order and the path, each vertex expanded to its attribute columns
// (dist.Single for a plain query). ok is false for any other class.
func Bind[W any](q *hypergraph.Query, rels map[string]dist.Rel[W], expand func(hypergraph.Attr) []dist.Attr) (ordered []dist.Rel[W], path [][]dist.Attr, ok bool) {
	view, ok := q.LineView()
	if !ok {
		return nil, nil, false
	}
	ordered = make([]dist.Rel[W], len(view.EdgeOrder))
	path = make([][]dist.Attr, len(view.Vertices))
	for i, v := range view.Vertices {
		path[i] = expand(v)
	}
	for i, ei := range view.EdgeOrder {
		ordered[i] = rels[q.Edges[ei].Name]
	}
	return ordered, path, true
}

// Run is the recursive core, operating on relations in path order:
// rels[i] spans path[i] ∪ path[i+1]; the output attributes are
// path[0] ∪ path[n]. Path positions are composite attribute lists;
// interior positions must be single attributes (they are join attributes
// of the §3 matmul base case). seed drives hash partitioning inside the
// matmul subroutine.
func Run[W any](sr semiring.Semiring[W], rels []dist.Rel[W], path [][]dist.Attr, seed uint64) (dist.Rel[W], mpc.Stats) {
	if len(rels) < 2 || len(path) != len(rels)+1 {
		panic("linequery: malformed path")
	}
	p := rels[0].P()
	outSchema := append(append([]dist.Attr(nil), path[0]...), path[len(path)-1]...)

	// Remove dangling tuples along the chain (forward and backward
	// semijoin sweeps — the full reducer specialised to a path).
	rels = append([]dist.Rel[W](nil), rels...)
	st := reduceChain(rels, 0)
	n0, sc := mpc.TotalCount(rels[0].Part)
	st = mpc.Seq(st, sc)
	if n0 == 0 {
		return dist.EmptyIn[W](rels[0].Part.Scope(), outSchema, p), st
	}

	res, st2 := run(sr, rels, path, seed)
	return res, mpc.Seq(st, st2)
}

// run assumes dangling tuples are already removed and recursion invariants
// hold.
func run[W any](sr semiring.Semiring[W], rels []dist.Rel[W], path [][]dist.Attr, seed uint64) (dist.Rel[W], mpc.Stats) {
	p := rels[0].P()
	outSchema := append(append([]dist.Attr(nil), path[0]...), path[len(path)-1]...)

	// Base case n = 2: matrix multiplication (§3).
	if len(rels) == 2 {
		if len(path[1]) != 1 {
			panic("linequery: interior path position must be a single attribute")
		}
		res, st, err := matmul.Compute(sr, matmul.Input[W]{R1: rels[0], R2: rels[1], B: path[1][0]},
			matmul.Options{Seed: seed, SkipDangling: true})
		if err != nil {
			panic(err) // schemas are constructed internally; cannot fail
		}
		return res, st
	}

	// Estimate OUT (§2.2).
	_, out, st := estimate.LineOut(rels, path, estimate.Params{})
	if out < 1 {
		out = 1
	}
	thr := isqrt(out)

	// Step 1: degree of each a ∈ dom(A2) in R1; heavy iff ≥ √OUT.
	a2 := path[1]
	a2Key1 := rels[0].Key(a2...)
	a2Key2 := rels[1].Key(a2...)
	degA2, s1 := mpc.CountByKey(rels[0].Part, a2Key1)
	st = mpc.Seq(st, s1)
	heavyStats := mpc.Filter(degA2, func(kc mpc.KeyCount[string]) bool { return kc.Count >= thr })

	split := func(r dist.Rel[W], key func(relation.Row[W]) string) (heavy, light dist.Rel[W], _ mpc.Stats) {
		looked, s := mpc.LookupJoin(r.Part, heavyStats, key, func(kc mpc.KeyCount[string]) string { return kc.Key })
		h, l := mpc.Split(looked, func(pr mpc.Pred[relation.Row[W], mpc.KeyCount[string]]) (relation.Row[W], bool) {
			return pr.X, pr.Found
		})
		return dist.Rel[W]{Schema: r.Schema, Part: h}, dist.Rel[W]{Schema: r.Schema, Part: l}, s
	}
	r1Heavy, r1Light, s2 := split(rels[0], a2Key1)
	r2Heavy, r2Light, s3 := split(rels[1], a2Key2)
	st = mpc.Seq(st, s2, s3)

	// Steps 2 and 3 run on disjoint server groups simultaneously; their
	// costs compose with Par. Which of them runs at all is one count.
	var stHeavy, stLight mpc.Stats
	ns, sc := mpc.TotalCounts(r1Heavy.Part, r1Light.Part)
	nHeavy, nLight := ns[0], ns[1]
	st = mpc.Seq(st, sc)

	// Step 2: the heavy subquery.
	var resHeavy dist.Rel[W]
	if nHeavy > 0 {
		// Remove dangling within the heavy subquery (R2 changed).
		hRels := append([]dist.Rel[W](nil), rels...)
		hRels[0], hRels[1] = r1Heavy, r2Heavy
		stHeavy = reduceChain(hRels, 1)
		r, s := dist.Semijoin(hRels[0], hRels[1])
		hRels[0] = r
		stHeavy = mpc.Seq(stHeavy, s)

		// Step 2.1: fold the tail right-to-left into R(A2, A_{n+1}).
		acc, s1 := twoway.FoldChain(sr, hRels[1:], path[1:], p)
		stHeavy = mpc.Seq(stHeavy, s1)
		// Step 2.2: one output-sensitive matrix multiplication.
		res, s2, err := matmul.Compute(sr, matmul.Input[W]{R1: hRels[0], R2: acc, B: path[1][0]},
			matmul.Options{Seed: seed, SkipDangling: true})
		if err != nil {
			panic(err)
		}
		resHeavy = dist.Reshape(res, p)
		stHeavy = mpc.Seq(stHeavy, s2)
	} else {
		resHeavy = dist.EmptyIn[W](rels[0].Part.Scope(), outSchema, p)
	}

	// Step 3: the light subquery.
	var resLight dist.Rel[W]
	if nLight > 0 {
		// Step 3.1: R(A1, A3) = ∑_{A2} R1^light ⋈ R2^light — join then
		// aggregate; the join has ≤ N·√OUT results by lightness of A2.
		keep := append(append([]dist.Attr(nil), path[0]...), path[2]...)
		r13, s := twoway.JoinAgg(sr, r1Light, r2Light, keep...)
		stLight = mpc.Seq(stLight, s)
		r13 = dist.Reshape(r13, p)

		// Step 3.2: recurse on the shorter line query. Dangling tuples of
		// the shorter chain are removed (R(A1,A3) may have lost values).
		sRels := append([]dist.Rel[W]{r13}, rels[2:]...)
		sPath := append([][]dist.Attr{path[0]}, path[2:]...)
		stLight = mpc.Seq(stLight, reduceChain(sRels, 0))
		nl0, sc3 := mpc.TotalCount(sRels[0].Part)
		stLight = mpc.Seq(stLight, sc3)
		if nl0 > 0 {
			res, s2 := run(sr, sRels, sPath, seed)
			resLight = dist.Reshape(res, p)
			stLight = mpc.Seq(stLight, s2)
		} else {
			resLight = dist.EmptyIn[W](rels[0].Part.Scope(), outSchema, p)
		}
	} else {
		resLight = dist.EmptyIn[W](rels[0].Part.Scope(), outSchema, p)
	}

	// Step 4: ⊕-merge the two subqueries' results by (A1, A_{n+1}).
	st = mpc.Seq(st, mpc.Par(stHeavy, stLight))
	final, s := dist.UnionAgg(sr, resHeavy, resLight)
	return final, mpc.Seq(st, s)
}

// reduceChain removes dangling tuples along rels[lo:] in place — the full
// reducer specialised to a path: a backward semijoin sweep down to lo, then
// a forward sweep from rels[1] (which rels[0] filters even when lo is 1).
func reduceChain[W any](rels []dist.Rel[W], lo int) mpc.Stats {
	var st mpc.Stats
	for i := len(rels) - 2; i >= lo; i-- {
		r, s := dist.Semijoin(rels[i], rels[i+1])
		rels[i] = r
		st = mpc.Seq(st, s)
	}
	for i := 1; i < len(rels); i++ {
		r, s := dist.Semijoin(rels[i], rels[i-1])
		rels[i] = r
		st = mpc.Seq(st, s)
	}
	return st
}

// isqrt returns the smallest r ≥ 1 with r·r ≥ x, and 0 for negative x.
func isqrt(x int64) int64 {
	if x < 0 {
		return 0
	}
	// math.Sqrt lands within a few units of the answer for every int64; the
	// loops correct it, comparing by division so nothing overflows
	// (r·r ≤ y ⟺ r ≤ y/r).
	r := max(int64(math.Sqrt(float64(x))), 1)
	for r <= (x-1)/r {
		r++
	}
	for r > 1 && r-1 > (x-1)/(r-1) {
		r--
	}
	return r
}
