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
// the number of tuples in ⋈_i R_i before aggregation. Cost: one
// reduce-by-key per leaf edge and one multi-search + reduce-by-key per
// internal edge.
func TreeCount[W any](q *hypergraph.Query, rels map[string]dist.Rel[W], p Params) (int64, mpc.Stats) {
	n := 0
	for _, r := range rels {
		n += r.N()
	}
	p = p.WithDefaults(n)
	f := &countFolder[W]{q: q, rels: rels}
	per, ok := f.down(foldRoot(q), -1)
	if !ok {
		// A single-attribute query (unary edges only at the root with no
		// neighbors) cannot occur for valid tree queries; guard anyway.
		return 0, f.st
	}
	total, st := SumCounts(per)
	f.st = mpc.Seq(f.st, st)
	return total, f.st
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
// such instances. The maxima are taken over local sums of per-value
// estimates, so the profile adds no communication rounds to the fold.
func TreeOutProfile[W any](q *hypergraph.Query, rels map[string]dist.Rel[W], p Params) (out, maxFold, maxImage int64, st mpc.Stats) {
	n := 0
	for _, r := range rels {
		n += r.N()
	}
	p = p.WithDefaults(n)
	f := &imageFolder[W]{q: q, rels: rels, p: p}
	per, ok := f.down(foldRoot(q), -1)
	if !ok {
		return 0, 0, 0, f.st
	}
	// Root values are distinct, so the output tuples {a} × image(a) are
	// disjoint across a and OUT is the plain sum of per-value images.
	total := int64(math.Round(f.sumEst(per)))
	if total < 1 {
		total = 1
	}
	f.note(float64(total))
	return total, int64(math.Round(f.maxFold)), int64(math.Round(f.maxImage)), f.st
}

// foldRoot picks the attribute both folds recurse from: the first output
// attribute when there is one.
func foldRoot(q *hypergraph.Query) hypergraph.Attr {
	if len(q.Output) > 0 {
		return q.Output[0]
	}
	return q.Edges[0].Attrs[0]
}

// countFolder is the exact full-join count fold: per-value join-result
// counts flow from the leaves toward the root, multiplied across sibling
// subtrees and summed along edges.
type countFolder[W any] struct {
	q    *hypergraph.Query
	rels map[string]dist.Rel[W]
	st   mpc.Stats
}

// down returns, for every value a of attribute u reachable through edges
// other than skipEdge, the number of join results of u's subtree rooted at
// a (keyed by the value's encoding). ok is false when u has no such edges
// (u is a leaf from the parent's perspective).
func (f *countFolder[W]) down(u hypergraph.Attr, skipEdge int) (mpc.Part[mpc.KeyCount[string]], bool) {
	var acc mpc.Part[mpc.KeyCount[string]]
	have := false
	for _, ei := range f.q.EdgesAt(u) {
		if ei == skipEdge {
			continue
		}
		e := f.q.Edges[ei]
		r := f.rels[e.Name]
		var contrib mpc.Part[mpc.KeyCount[string]]
		if e.IsUnary() {
			contrib = f.degree(r, u)
		} else {
			v := e.Other(u)
			sub, ok := f.down(v, ei)
			if !ok {
				contrib = f.degree(r, u)
			} else {
				contrib = f.propagate(r, u, v, sub)
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

// degree counts rows of r per value of u: the leaf base case.
func (f *countFolder[W]) degree(r dist.Rel[W], u hypergraph.Attr) mpc.Part[mpc.KeyCount[string]] {
	uc := r.Cols(u)
	ones := mpc.Map(r.Part, func(row relation.Row[W]) mpc.KeyCount[string] {
		return mpc.KeyCount[string]{Key: relation.EncodeKey(row.Vals, uc), Count: 1}
	})
	red, st := mpc.ReduceByKey(ones,
		func(kc mpc.KeyCount[string]) string { return kc.Key },
		func(a, b mpc.KeyCount[string]) mpc.KeyCount[string] {
			return mpc.KeyCount[string]{Key: a.Key, Count: addSat(a.Count, b.Count)}
		})
	f.st = mpc.Seq(f.st, st)
	return red
}

// propagate carries per-v counts across the edge relation r(u,v) and sums
// them per u: count(a) = Σ_{(a,b) ∈ r} sub(b). Rows whose v-value has no
// subtree match contribute nothing (they are dangling below v).
func (f *countFolder[W]) propagate(r dist.Rel[W], u, v hypergraph.Attr, sub mpc.Part[mpc.KeyCount[string]]) mpc.Part[mpc.KeyCount[string]] {
	uc, vc := r.Cols(u), r.Cols(v)
	looked, st1 := mpc.LookupJoin(r.Part, sub,
		func(row relation.Row[W]) string { return relation.EncodeKey(row.Vals, vc) },
		func(kc mpc.KeyCount[string]) string { return kc.Key })
	carried := mpc.Map(
		mpc.Filter(looked, func(pr mpc.Pred[relation.Row[W], mpc.KeyCount[string]]) bool { return pr.Found }),
		func(pr mpc.Pred[relation.Row[W], mpc.KeyCount[string]]) mpc.KeyCount[string] {
			return mpc.KeyCount[string]{Key: relation.EncodeKey(pr.X.Vals, uc), Count: pr.Y.Count}
		})
	red, st2 := mpc.ReduceByKey(carried,
		func(kc mpc.KeyCount[string]) string { return kc.Key },
		func(a, b mpc.KeyCount[string]) mpc.KeyCount[string] {
			return mpc.KeyCount[string]{Key: a.Key, Count: addSat(a.Count, b.Count)}
		})
	f.st = mpc.Seq(f.st, st1, st2)
	return red
}

// product multiplies two per-value count maps key-wise (sibling subtrees
// hanging off the same branch attribute); keys missing from either side
// drop out, matching the join semantics.
func (f *countFolder[W]) product(a, b mpc.Part[mpc.KeyCount[string]]) mpc.Part[mpc.KeyCount[string]] {
	looked, st := mpc.LookupJoin(a, b,
		func(kc mpc.KeyCount[string]) string { return kc.Key },
		func(kc mpc.KeyCount[string]) string { return kc.Key })
	f.st = mpc.Seq(f.st, st)
	return mpc.Map(
		mpc.Filter(looked, func(pr mpc.Pred[mpc.KeyCount[string], mpc.KeyCount[string]]) bool { return pr.Found }),
		func(pr mpc.Pred[mpc.KeyCount[string], mpc.KeyCount[string]]) mpc.KeyCount[string] {
			return mpc.KeyCount[string]{Key: pr.X.Key, Count: mulSat(pr.X.Count, pr.Y.Count)}
		})
}

// imageFolder is the KMV image fold behind TreeOutProfile: for every value
// a of the current attribute it carries a sketch of the distinct kept
// output-attribute tuples of a's subtree — exactly the relation an
// early-aggregating execution would have materialized after folding the
// subtree and ⊕-aggregating. Unions across parallel paths deduplicate (the
// same kept tuple reached through two intermediate values counts once),
// which is what separates OUT from the full-join count J.
type imageFolder[W any] struct {
	q        *hypergraph.Query
	rels     map[string]dist.Rel[W]
	p        Params
	st       mpc.Stats
	maxFold  float64
	maxImage float64
}

// note records a fold-intermediate size for the profile.
func (f *imageFolder[W]) note(size float64) {
	if size > f.maxFold {
		f.maxFold = size
	}
}

// sumEst sums the per-value image-cardinality estimates locally (no
// exchange): the fold profile is a prediction, not a metered computation.
func (f *imageFolder[W]) sumEst(pt mpc.Part[KeySketch]) float64 {
	var t float64
	for _, sh := range pt.Shards {
		for _, ks := range sh {
			t += ks.V.Estimate()
		}
	}
	return t
}

// noteImage records an aggregated image at the moment a fold consumes it
// as join input. Only consumed images count toward maxImage: the root
// image is the output itself, produced by the last fold but never fed
// into another one, so it does not price any fold's input side.
func (f *imageFolder[W]) noteImage(pt mpc.Part[KeySketch]) {
	if t := f.sumEst(pt); t > f.maxImage {
		f.maxImage = t
	}
}

// down returns, for every value a of attribute u reachable through edges
// other than skipEdge, the image sketch of a's subtree. ok is false when u
// has no such edges (u is a leaf from the parent's perspective).
func (f *imageFolder[W]) down(u hypergraph.Attr, skipEdge int) (mpc.Part[KeySketch], bool) {
	var acc mpc.Part[KeySketch]
	have := false
	for _, ei := range f.q.EdgesAt(u) {
		if ei == skipEdge {
			continue
		}
		e := f.q.Edges[ei]
		r := f.rels[e.Name]
		var contrib mpc.Part[KeySketch]
		if e.IsUnary() {
			// A unary edge only filters u: its image is the unit tuple.
			contrib = f.exists(r, u)
		} else {
			v := e.Other(u)
			sub, ok := f.down(v, ei)
			switch {
			case !ok && f.q.IsOutput(v):
				// Output leaf: the image per a is the distinct v values —
				// the §2.2 base case.
				sk, st := SketchValues(r, []dist.Attr{u}, []dist.Attr{v}, f.p)
				f.st = mpc.Seq(f.st, st)
				contrib = sk
			case !ok:
				// Non-output leaf: aggregation projects v away entirely, so
				// the subtree contributes existence only.
				contrib = f.exists(r, u)
			default:
				contrib = f.propagate(r, u, v, sub)
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

// exists builds the existence image: every value of u present in r maps to
// the one-element unit image.
func (f *imageFolder[W]) exists(r dist.Rel[W], u hypergraph.Attr) mpc.Part[KeySketch] {
	uc := r.Cols(u)
	unit := hashItem("")
	singles := mpc.Map(r.Part, func(row relation.Row[W]) KeySketch {
		return KeySketch{Key: relation.EncodeKey(row.Vals, uc), V: SingletonVec(f.p, unit)}
	})
	red, st := mpc.ReduceByKey(singles,
		func(ks KeySketch) string { return ks.Key },
		func(a, b KeySketch) KeySketch { return KeySketch{Key: a.Key, V: MergeVec(a.V, b.V)} })
	f.st = mpc.Seq(f.st, st)
	return red
}

// propagate carries subtree images across the edge relation r(u,v):
// image(a) = ∪_{(a,b) ∈ r} image(b), with each image tagged by b first
// when v itself is an output attribute (the kept tuples then include b, so
// images reached through different b values are disjoint rather than
// merged). The size of the un-aggregated join — every row of r paired with
// its subtree image — is noted for the fold profile.
func (f *imageFolder[W]) propagate(r dist.Rel[W], u, v hypergraph.Attr, sub mpc.Part[KeySketch]) mpc.Part[KeySketch] {
	uc, vc := r.Cols(u), r.Cols(v)
	tagV := f.q.IsOutput(v)
	f.noteImage(sub)
	looked, st1 := mpc.LookupJoin(r.Part, sub,
		func(row relation.Row[W]) string { return relation.EncodeKey(row.Vals, vc) },
		func(ks KeySketch) string { return ks.Key })
	matched := mpc.Filter(looked, func(pr mpc.Pred[relation.Row[W], KeySketch]) bool { return pr.Found })
	var join float64
	for _, sh := range matched.Shards {
		for _, pr := range sh {
			join += pr.Y.V.Estimate()
		}
	}
	f.note(join)
	carried := mpc.Map(matched, func(pr mpc.Pred[relation.Row[W], KeySketch]) KeySketch {
		vec := pr.Y.V
		if tagV {
			vec = TagVec(vec, hashItem(pr.Y.Key))
		}
		return KeySketch{Key: relation.EncodeKey(pr.X.Vals, uc), V: vec}
	})
	red, st2 := mpc.ReduceByKey(carried,
		func(ks KeySketch) string { return ks.Key },
		func(a, b KeySketch) KeySketch { return KeySketch{Key: a.Key, V: MergeVec(a.V, b.V)} })
	f.st = mpc.Seq(f.st, st1, st2)
	return red
}

// product crosses two sibling images key-wise: the kept tuples of the
// combined subtree are the pairs, so the sketch is the pair sketch and the
// materialized sibling join — Σ_a |A_a|·|B_a| — is noted for the profile.
func (f *imageFolder[W]) product(a, b mpc.Part[KeySketch]) mpc.Part[KeySketch] {
	f.noteImage(a)
	f.noteImage(b)
	looked, st := mpc.LookupJoin(a, b,
		func(ks KeySketch) string { return ks.Key },
		func(ks KeySketch) string { return ks.Key })
	f.st = mpc.Seq(f.st, st)
	matched := mpc.Filter(looked, func(pr mpc.Pred[KeySketch, KeySketch]) bool { return pr.Found })
	var join float64
	for _, sh := range matched.Shards {
		for _, pr := range sh {
			join += pr.X.V.Estimate() * pr.Y.V.Estimate()
		}
	}
	f.note(join)
	return mpc.Map(matched, func(pr mpc.Pred[KeySketch, KeySketch]) KeySketch {
		return KeySketch{Key: pr.X.Key, V: ProductVec(pr.X.V, pr.Y.V)}
	})
}

// TagVec returns the sketch vector of the tagged set {tag} × S given the
// vector of S: every retained hash value is remixed with the tag, which
// preserves uniformity (tagged items rehash through the same mixer).
// Exact while the per-repetition sketches are unsaturated — the common
// case for the per-value images the fold tracks; a saturated sketch
// degrades to remixing a uniform sample of S, still an unbiased basis for
// the disjoint-union estimate the caller sums.
func TagVec(v Vec, tag uint64) Vec {
	out := Vec{Sk: make([]kmv.Sketch, len(v.Sk))}
	for i, s := range v.Sk {
		ns := kmv.New(s.K, s.Seed)
		for _, hv := range s.Vals {
			ns = ns.Insert(hv ^ (tag * 0x9e3779b97f4a7c15))
		}
		out.Sk[i] = ns
	}
	return out
}

// ProductVec returns the sketch vector of the pair set A × B by remixing
// every retained pair of hash values. Like TagVec it is exact while both
// inputs are unsaturated; saturated inputs yield a sampled approximation.
func ProductVec(a, b Vec) Vec {
	out := Vec{Sk: make([]kmv.Sketch, len(a.Sk))}
	for i := range a.Sk {
		sa, sb := a.Sk[i], b.Sk[i]
		ns := kmv.New(sa.K, sa.Seed)
		for _, ha := range sa.Vals {
			for _, hb := range sb.Vals {
				ns = ns.Insert(ha ^ (hb*0x9e3779b97f4a7c15 + 0x94d049bb133111eb))
			}
		}
		out.Sk[i] = ns
	}
	return out
}

// addSat and mulSat saturate at a large sentinel instead of wrapping:
// predicted sizes only feed cost comparisons, where "astronomically big"
// ranks the same as "bigger than any rival" and an overflowed negative
// would invert the ranking.
const satMax = math.MaxInt64 / 4

func addSat(a, b int64) int64 {
	if a > satMax-b {
		return satMax
	}
	return a + b
}

func mulSat(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > satMax/b {
		return satMax
	}
	return a * b
}
