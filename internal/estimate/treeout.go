// Tree-query size prediction for the planner's estimate-only pre-pass: a
// bottom-up count fold over the query tree that computes the full-join
// cardinality J exactly (the cost of a join that never aggregates), and a
// KMV image fold that estimates the aggregated output size OUT together
// with the largest intermediate an early-aggregating (Yannakakis-style)
// execution materializes.
//
// Both folds are deterministic for a fixed Params.Seed and independent of
// the partitioning: counts are integer sums and KMV merges are min-K set
// unions, so a plan computed server-side at registration time agrees with
// one computed inside a distributed execution.

package estimate

import (
	"math"

	"mpcjoin/internal/dist"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/kmv"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/relation"
)

// TreeCount computes the exact full-join cardinality J of a tree query:
// the number of tuples in ⋈_i R_i before aggregation — the fold over the
// count algebra (per-value join-result counts, summed along edges and
// multiplied across sibling subtrees). Cost: one reduce-by-key per leaf
// edge and one multi-search + reduce-by-key per internal edge.
func TreeCount[W any](q *hypergraph.Query, rels map[string]dist.Rel[W]) (int64, mpc.Stats) {
	type kc = mpc.KeyCount[string]
	f := &fold[W, kc]{q: q, rels: rels, alg: algebra[kc]{
		key:   func(c kc) string { return c.Key },
		leaf:  func(key string, _ []relation.Value, _ []int) kc { return kc{Key: key, Count: 1} },
		carry: func(key string, sub kc, _ bool) kc { return kc{Key: key, Count: sub.Count} },
		merge: func(a, b kc) kc { return kc{Key: a.Key, Count: addSat(a.Count, b.Count)} },
		cross: func(a, b kc) kc { return kc{Key: a.Key, Count: MulSat(a.Count, b.Count)} },
	}}
	per, ok := f.down(foldRoot(q), -1)
	if !ok {
		// A single-attribute query (unary edges only at the root with no
		// neighbors) cannot occur for valid tree queries; guard anyway.
		return 0, f.st
	}
	total, st := SumCounts(per)
	return total, mpc.Seq(f.st, st)
}

// TreeOutProfile approximates the aggregated output size OUT of a tree
// query — the number of distinct output-attribute tuples in the join, every
// other attribute projected away with its multiplicity absorbed into the ⊕
// weight; the §2.2 sketch fold generalized from paths to trees, and the
// usual KMV constant-factor estimate — together with the fold profile an
// early-aggregating (Yannakakis-style) execution would exhibit on the
// instance:
//
//   - maxFold is the largest un-aggregated intermediate — for every edge,
//     the size of the edge relation joined against the aggregated image of
//     its subtree, maximized over edges and sibling-image joins;
//   - maxImage is the largest aggregated image any fold consumes as join
//     input — the size of the per-subtree relation after ⊕-aggregation,
//     maximized over fold inputs (the root image, which no fold consumes,
//     is excluded).
//
// Together they predict the Yannakakis candidate's fold costs: a query
// that aggregates heavily (J ≫ OUT) keeps both near the aggregated
// output, which is exactly why Yannakakis beats its own worst case on
// such instances. The sizes are sums of per-value estimates over all
// servers: every server keeps its partial sum for each fold step, and one
// all-reduce of those vectors at the end yields OUT and both maxima — two
// O(p)-load rounds on top of the fold.
//
// It is the fold over the image algebra: for every value a of the current
// attribute the fold carries a sketch of the distinct kept output-attribute
// tuples of a's subtree — exactly the relation an early-aggregating
// execution would have materialized after folding the subtree and
// ⊕-aggregating. Unions across parallel paths deduplicate (the same kept
// tuple reached through two intermediate values counts once), which is
// what separates OUT from the full-join count J.
func TreeOutProfile[W any](q *hypergraph.Query, rels map[string]dist.Rel[W], p Params) (out, maxFold, maxImage int64, st mpc.Stats) {
	n := 0
	for _, r := range rels {
		n += r.N()
	}
	p = p.withDefaults(n)
	f := &fold[W, KeySketch]{q: q, rels: rels, alg: imageAlgebra(p)}
	f.alg.size = func(ks KeySketch) float64 { return ks.V.Estimate() }
	per, ok := f.down(foldRoot(q), -1)
	if !ok {
		return 0, 0, 0, f.st
	}
	// Root values are distinct, so the output tuples {a} × image(a) are
	// disjoint across a and OUT is the plain sum of per-value images: the
	// last step of the profile.
	noteSizes(f, false, per, f.alg.size)
	sums, st := f.profile(per.Scope(), per.P())
	total := int64(math.Round(sums[len(sums)-1]))
	if total < 1 {
		total = 1
	}
	foldMax, imageMax := float64(total), 0.0
	for i, step := range f.steps[:len(f.steps)-1] {
		if step.image {
			imageMax = max(imageMax, sums[i])
		} else {
			foldMax = max(foldMax, sums[i])
		}
	}
	return total, int64(math.Round(foldMax)), int64(math.Round(imageMax)), mpc.Seq(f.st, st)
}

// imageAlgebra is the KMV image algebra of the §2.2 sketch fold: a value's
// summary is a sketch of the distinct kept tuples reachable from it.
func imageAlgebra(p Params) algebra[KeySketch] {
	return algebra[KeySketch]{
		key: func(ks KeySketch) string { return ks.Key },
		// The image of one row is its kept far-endpoint value — the §2.2
		// base case — or, with nothing kept beyond the edge (ic empty), the
		// unit tuple: aggregation projects the far endpoint away, so the
		// row contributes existence only.
		leaf: func(key string, vals []relation.Value, ic []int) KeySketch {
			return KeySketch{Key: key, V: SingletonVec(p, relation.HashCols(vals, ic))}
		},
		// When the far endpoint is itself an output attribute the kept
		// tuples include its value b, so images reached through different
		// b values are disjoint rather than merged: tag each by b first.
		carry: func(key string, sub KeySketch, tag bool) KeySketch {
			if tag {
				return KeySketch{Key: key, V: TagVec(sub.V, relation.HashString(sub.Key, 0))}
			}
			return KeySketch{Key: key, V: sub.V}
		},
		merge: func(a, b KeySketch) KeySketch { return KeySketch{Key: a.Key, V: MergeVec(a.V, b.V)} },
		// The kept tuples of two sibling subtrees combined are the pairs.
		cross: func(a, b KeySketch) KeySketch { return KeySketch{Key: a.Key, V: ProductVec(a.V, b.V)} },
	}
}

// foldRoot picks the attribute both folds recurse from: the first output
// attribute when there is one.
func foldRoot(q *hypergraph.Query) hypergraph.Attr {
	if len(q.Output) > 0 {
		return q.Output[0]
	}
	return q.Edges[0].Attrs[0]
}

// algebra is what distinguishes one bottom-up fold over the query tree
// from another: V is the per-value summary of a subtree (a count, an image
// sketch), keyed by the encoded value of the subtree's root attribute.
type algebra[V any] struct {
	key func(V) string
	// leaf is one edge row's summary under the row's near-endpoint key;
	// ic are the columns of the far endpoint when it is a kept (output)
	// leaf, empty when the far endpoint is projected away or the edge is
	// unary.
	leaf func(key string, vals []relation.Value, ic []int) V
	// carry re-keys a subtree summary across one edge row; tag says the
	// subtree's root attribute is itself an output attribute.
	carry func(key string, sub V, tag bool) V
	// merge is ⊕: two summaries reaching the same value along one edge.
	merge func(a, b V) V
	// cross is ⊗: the summaries of two sibling subtrees under one value.
	cross func(a, b V) V
	// size, when set, is a summary's estimated cardinality, and makes the
	// fold observe its profile (maxFold, maxImage) as it goes: each server
	// notes its partial sum per step, and the steps are summed across
	// servers once, at the end (fold.profile).
	size func(V) float64
}

// fold is the one bottom-up fold over the query tree: per-value summaries
// flow from the leaves toward the root, ⊗-combined across sibling subtrees
// and ⊕-merged along edges.
type fold[W, V any] struct {
	q    *hypergraph.Query
	rels map[string]dist.Rel[W]
	alg  algebra[V]
	st   mpc.Stats
	// The profile, observed only when alg.size is set: one entry per
	// fold intermediate or consumed image, in fold order.
	steps []profileStep
}

// profileStep is one size the profile observes: per server, the sum of the
// sizes of that server's elements. image marks an aggregated image a fold
// consumes (maxImage); the others are un-aggregated intermediates
// (maxFold).
type profileStep struct {
	image     bool
	perServer []float64
}

// down returns, for every value a of attribute u reachable through edges
// other than skipEdge, the summary of u's subtree rooted at a. ok is false
// when u has no such edges (u is a leaf from the parent's perspective).
func (f *fold[W, V]) down(u hypergraph.Attr, skipEdge int) (mpc.Part[V], bool) {
	var acc mpc.Part[V]
	have := false
	for _, ei := range f.q.EdgesAt(u) {
		if ei == skipEdge {
			continue
		}
		e := f.q.Edges[ei]
		r := f.rels[e.Name]
		var contrib mpc.Part[V]
		if e.IsUnary() {
			contrib = f.leaf(r, []dist.Attr{u}, nil)
		} else {
			v := e.Other(u)
			if sub, ok := f.down(v, ei); ok {
				contrib = f.propagate(r, []dist.Attr{u}, []dist.Attr{v}, sub, f.q.IsOutput(v))
			} else if f.q.IsOutput(v) {
				contrib = f.leaf(r, []dist.Attr{u}, []dist.Attr{v})
			} else {
				contrib = f.leaf(r, []dist.Attr{u}, nil)
			}
		}
		if !have {
			acc, have = contrib, true
			continue
		}
		acc = f.product(acc, contrib)
	}
	return acc, have
}

// reduce ⊕-merges summaries sharing a key.
func (f *fold[W, V]) reduce(pt mpc.Part[V]) (mpc.Part[V], mpc.Stats) {
	return mpc.ReduceByKey(pt, f.alg.key, f.alg.merge)
}

// leaf is the base case: one summary per row of r keyed by its u value,
// ⊕-merged per value. kept names the far endpoint when it is an output
// leaf. (u, like every attribute the steps take, may be a composite list.)
func (f *fold[W, V]) leaf(r dist.Rel[W], u, kept []dist.Attr) mpc.Part[V] {
	uc, ic := r.Cols(u...), r.Cols(kept...)
	singles := mpc.Map(r.Part, func(row relation.Row[W]) V {
		return f.alg.leaf(relation.EncodeKey(row.Vals, uc), row.Vals, ic)
	})
	red, st := f.reduce(singles)
	f.st = mpc.Seq(f.st, st)
	return red
}

// propagate carries per-v summaries across the edge relation r(u,v) and
// ⊕-merges them per u: summary(a) = ⊕_{(a,b) ∈ r} carry(sub(b)). Rows whose
// v-value has no subtree match contribute nothing (they are dangling below
// v); tag says v is itself an output attribute. The size of the
// un-aggregated join — every row of r paired with its subtree summary — is
// noted for the profile.
func (f *fold[W, V]) propagate(r dist.Rel[W], u, v []dist.Attr, sub mpc.Part[V], tag bool) mpc.Part[V] {
	uc, vc := r.Cols(u...), r.Cols(v...)
	f.noteImage(sub)
	matched, st1 := mpc.Lookup(r.Part, sub,
		func(row relation.Row[W]) string { return relation.EncodeKey(row.Vals, vc) }, f.alg.key, matchedPair[relation.Row[W], V])
	if f.alg.size != nil {
		noteSizes(f, false, matched, func(pr mpc.Pred[relation.Row[W], V]) float64 { return f.alg.size(pr.Y) })
	}
	carried := mpc.Map(matched, func(pr mpc.Pred[relation.Row[W], V]) V {
		return f.alg.carry(relation.EncodeKey(pr.X.Vals, uc), pr.Y, tag)
	})
	red, st2 := f.reduce(carried)
	f.st = mpc.Seq(f.st, st1, st2)
	return red
}

// product ⊗-combines two sibling summaries key-wise (subtrees hanging off
// the same branch attribute); keys missing from either side drop out,
// matching the join semantics. The materialized sibling join —
// Σ_a |A_a|·|B_a| — is noted for the profile.
func (f *fold[W, V]) product(a, b mpc.Part[V]) mpc.Part[V] {
	f.noteImage(a)
	f.noteImage(b)
	matched, st := mpc.Lookup(a, b, f.alg.key, f.alg.key, matchedPair[V, V])
	f.st = mpc.Seq(f.st, st)
	if f.alg.size != nil {
		noteSizes(f, false, matched, func(pr mpc.Pred[V, V]) float64 { return f.alg.size(pr.X) * f.alg.size(pr.Y) })
	}
	return mpc.Map(matched, func(pr mpc.Pred[V, V]) V { return f.alg.cross(pr.X, pr.Y) })
}

// matchedPair is the Lookup visitor of a fold step's join: the pairs that
// matched, kept whole because the profile sums their sizes in element order
// (a float sum, so the order is part of the plan's bytes) before the step
// maps them to summaries.
func matchedPair[X, Y any](x X, y Y, found bool) (mpc.Pred[X, Y], bool) {
	return mpc.Pred[X, Y]{X: x, Y: y, Found: true}, found
}

// noteImage records an aggregated image at the moment a fold consumes it
// as join input. Only consumed images count toward maxImage: the root
// image is the output itself, produced by the last fold but never fed
// into another one, so it does not price any fold's input side.
func (f *fold[W, V]) noteImage(pt mpc.Part[V]) {
	if f.alg.size == nil {
		return
	}
	noteSizes(f, true, pt, f.alg.size)
}

// noteSizes records one profile step over pt: each server's sum of size
// over its own elements, in element order (a float sum, so the order is
// part of the plan's bytes). No round runs here; fold.profile sums every
// step across servers at once.
func noteSizes[W, V, T any](f *fold[W, V], image bool, pt mpc.Part[T], size func(T) float64) {
	perServer := make([]float64, pt.P())
	for s, sh := range pt.Shards {
		for _, x := range sh {
			perServer[s] += size(x)
		}
	}
	f.steps = append(f.steps, profileStep{image: image, perServer: perServer})
}

// profile sums every profile step across the p servers in one all-reduce:
// server s contributes the vector of its partial sums, and every server adds
// the vectors in server order. One O(p)-load round, however many steps the
// fold took.
func (f *fold[W, V]) profile(ex *mpc.Exec, p int) ([]float64, mpc.Stats) {
	vals := make([][]float64, p)
	for s := range vals {
		vals[s] = make([]float64, len(f.steps))
		for i, step := range f.steps {
			vals[s][i] = step.perServer[s]
		}
	}
	return mpc.AllReduce(ex, vals, mpc.AddVec[float64], "plan.profile")
}

// TagVec returns the sketch vector of the tagged set {tag} × S given the
// vector of S: every retained hash value is remixed with the tag, which
// preserves uniformity (tagged items rehash through the same mixer).
// Exact while the per-repetition sketches are unsaturated — the common
// case for the per-value images the fold tracks; a saturated sketch
// degrades to remixing a uniform sample of S, still an unbiased basis for
// the disjoint-union estimate the caller sums.
func TagVec(v Vec, tag uint64) Vec {
	k, seed := v.k(), v.seed()
	tag *= 0x9e3779b97f4a7c15
	return buildVec(k, v.reps(), seed,
		func(i int) int { return len(v.rep(i)) },
		func(i int, region []uint64) []uint64 {
			for _, hv := range v.rep(i) {
				region = kmv.Keep(region, k, kmv.Hash64(hv^tag, repSeed(seed, i)))
			}
			return region
		})
}

// ProductVec returns the sketch vector of the pair set A × B by remixing
// every retained pair of hash values. Like TagVec it is exact while both
// inputs are unsaturated; saturated inputs yield a sampled approximation.
func ProductVec(a, b Vec) Vec {
	k, seed := a.k(), a.seed()
	return buildVec(k, a.reps(), seed,
		func(i int) int { return min(len(a.rep(i))*len(b.rep(i)), k) },
		func(i int, region []uint64) []uint64 {
			for _, ha := range a.rep(i) {
				for _, hb := range b.rep(i) {
					region = kmv.Keep(region, k, kmv.Hash64(ha^(hb*0x9e3779b97f4a7c15+0x94d049bb133111eb), repSeed(seed, i)))
				}
			}
			return region
		})
}

// addSat and MulSat saturate at a large sentinel instead of wrapping:
// predicted sizes only feed comparisons (candidate costs, the engines'
// small/large and heavy/light degree tests), where "astronomically big"
// ranks the same as "bigger than any rival" and an overflowed negative
// would invert the ranking.
const satMax = math.MaxInt64 / 4

func addSat(a, b int64) int64 {
	if a > satMax-b {
		return satMax
	}
	return a + b
}

// MulSat is the saturating product of two non-negative sizes.
func MulSat(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > satMax/b {
		return satMax
	}
	return a * b
}
