// Package estimate implements the §2.2 output-size estimator of Hu–Yi
// PODS'20: constant-factor approximations of OUT and of the per-value
// contributions OUT_a for line queries (matrix multiplication being the
// n = 2 case), computed in O(1) rounds with linear load.
//
// The estimator hashes each distinct value of the far endpoint attribute,
// maintains a k-minimum-values sketch per value of each intermediate
// attribute, and folds the sketches toward the near endpoint with n
// reduce-by-key passes whose combiner is the KMV merge. Accuracy is
// boosted to 1−1/N^{Ω(1)} by running O(log N) independent repetitions in
// parallel and taking the per-value median.
//
// Attributes may be composite ("combined attributes" arising from the
// star/star-like reductions): every path position is a list of concrete
// attributes, keyed by its order-preserving byte encoding.
//
// Metering note: a sketch vector is O(k·log N) machine words, i.e.
// O(log N) units in the model's terms. The simulator counts each Part
// element as one unit, so measured estimator loads are a polylog factor
// below the physical truth — consistent with the paper's Õ(N/p) claim for
// this primitive, and called out in EXPERIMENTS.md.
package estimate

import (
	"math"
	"sort"

	"mpcjoin/internal/dist"
	"mpcjoin/internal/kmv"
	"mpcjoin/internal/mpc"
)

// DefaultK is the per-sketch size; the estimator's relative error is
// ~1/√K per repetition, tightened by the median over repetitions.
const DefaultK = 64

// Params configures the estimator.
type Params struct {
	// K is the KMV sketch size (default DefaultK).
	K int
	// Reps is the number of independent repetitions (default ⌈log₂ N⌉,
	// minimum 5, forced odd for a well-defined median).
	Reps int
	// Seed derives the independent hash functions.
	Seed uint64
}

// WithDefaults fills unset fields given an instance size n.
func (p Params) WithDefaults(n int) Params {
	if p.K == 0 {
		p.K = DefaultK
	}
	if p.Reps == 0 {
		p.Reps = int(math.Ceil(math.Log2(float64(n + 2))))
	}
	if p.Reps < 5 {
		p.Reps = 5
	}
	if p.Reps%2 == 0 {
		p.Reps++
	}
	return p
}

// Vec is a vector of independent KMV sketches (one per repetition).
type Vec struct {
	Sk []kmv.Sketch
}

// NewVec returns an empty sketch vector.
func NewVec(p Params) Vec {
	v := Vec{Sk: make([]kmv.Sketch, p.Reps)}
	for i := range v.Sk {
		v.Sk[i] = kmv.New(p.K, p.Seed+uint64(i)*0x9e37)
	}
	return v
}

// SingletonVec is NewVec(p).Insert(item) without the intermediate empty
// vector: every repetition's one-element value list is carved out of one
// backing buffer, so building the per-row base-case sketch costs two
// allocations instead of one per repetition.
func SingletonVec(p Params, item uint64) Vec {
	v := Vec{Sk: make([]kmv.Sketch, p.Reps)}
	buf := make([]uint64, p.Reps)
	for i := range v.Sk {
		seed := p.Seed + uint64(i)*0x9e37
		buf[i] = kmv.Hash64(item, seed)
		v.Sk[i] = kmv.Sketch{K: p.K, Seed: seed, Vals: buf[i : i+1 : i+1]}
	}
	return v
}

// Insert adds an item to every repetition.
func (v Vec) Insert(item uint64) Vec {
	out := Vec{Sk: make([]kmv.Sketch, len(v.Sk))}
	for i := range v.Sk {
		out.Sk[i] = v.Sk[i].Insert(item)
	}
	return out
}

// MergeVec merges two sketch vectors repetition-wise. All repetitions'
// merged value lists are carved out of one backing buffer (sketch values
// are immutable once built, so repetitions where one side is empty alias
// the other side's values directly) — two allocations per merge instead
// of one per repetition.
func MergeVec(a, b Vec) Vec {
	out := Vec{Sk: make([]kmv.Sketch, len(a.Sk))}
	total := 0
	for i := range a.Sk {
		la, lb := len(a.Sk[i].Vals), len(b.Sk[i].Vals)
		if la > 0 && lb > 0 {
			total += min(la+lb, a.Sk[i].K)
		}
	}
	buf := make([]uint64, 0, total)
	for i := range a.Sk {
		switch {
		case len(b.Sk[i].Vals) == 0:
			out.Sk[i] = a.Sk[i]
		case len(a.Sk[i].Vals) == 0:
			out.Sk[i] = kmv.Sketch{K: a.Sk[i].K, Seed: a.Sk[i].Seed, Vals: b.Sk[i].Vals}
		default:
			start := len(buf)
			buf = kmv.AppendMerge(buf, a.Sk[i], b.Sk[i])
			out.Sk[i] = kmv.Sketch{K: a.Sk[i].K, Seed: a.Sk[i].Seed, Vals: buf[start:len(buf):len(buf)]}
		}
	}
	return out
}

// Estimate returns the median distinct-count estimate across repetitions.
func (v Vec) Estimate() float64 {
	ests := make([]float64, len(v.Sk))
	for i, s := range v.Sk {
		ests[i] = s.Estimate()
	}
	sort.Float64s(ests)
	return ests[len(ests)/2]
}

// KeySketch pairs an encoded attribute-tuple value with a sketch vector.
type KeySketch struct {
	Key string
	V   Vec
}

// hashItem maps an encoded value tuple to the 64-bit item space (FNV-1a);
// 64-bit collisions are negligible at the instance sizes involved.
func hashItem(enc string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(enc); i++ {
		h ^= uint64(enc[i])
		h *= 0x100000001b3
	}
	return h
}

// SketchValues builds, for every distinct value tuple of keyAttrs in r, a
// sketch vector of the distinct itemAttrs tuples co-occurring with it — the
// base case of the §2.2 fold (hashing dom(A_{n+1}) per value of A_n), i.e.
// the leaf step of the image fold. Cost: one reduce-by-key.
func SketchValues[W any](r dist.Rel[W], keyAttrs, itemAttrs []dist.Attr, p Params) (mpc.Part[KeySketch], mpc.Stats) {
	f := fold[W, KeySketch]{alg: imageAlgebra(p.WithDefaults(r.N()))}
	return f.leaf(r, keyAttrs, itemAttrs), f.st
}

// Propagate folds sketches one edge toward the output: given per-value
// sketches over dom(fromAttrs) and an edge relation over
// (toAttrs ∪ fromAttrs), it returns per-value sketches over dom(toAttrs),
// where each to-value's sketch is the KMV merge over its from-neighbors —
// the propagate step of the image fold, untagged (the from-values are
// aggregated away). Cost: one multi-search plus one reduce-by-key.
func Propagate[W any](edges dist.Rel[W], toAttrs, fromAttrs []dist.Attr, sk mpc.Part[KeySketch], p Params) (mpc.Part[KeySketch], mpc.Stats) {
	f := fold[W, KeySketch]{alg: imageAlgebra(p)}
	return f.propagate(edges, toAttrs, fromAttrs, sk, false), f.st
}

// LineOut runs the full §2.2 pipeline on a line query: rels[i] is the
// relation over (path[i] ∪ path[i+1]), i = 0..n−1, with dangling tuples
// already removed. Path positions may be composite attribute lists. It
// returns the per-value estimates OUT_a for a ∈ dom(path[0]) (one entry
// per distinct value tuple, keyed by its encoding), the total estimate of
// OUT = Σ_a OUT_a, and the metered cost. Estimates are constant-factor
// approximations w.h.p.
func LineOut[W any](rels []dist.Rel[W], path [][]dist.Attr, p Params) (mpc.Part[mpc.KeyCount[string]], int64, mpc.Stats) {
	if len(rels) < 1 || len(path) != len(rels)+1 {
		panic("estimate: LineOut path/relation mismatch")
	}
	p = p.WithDefaults(totalN(rels))
	n := len(rels)
	sk, st := SketchValues(rels[n-1], path[n-1], path[n], p)
	for i := n - 2; i >= 0; i-- {
		var s mpc.Stats
		sk, s = Propagate(rels[i], path[i], path[i+1], sk, p)
		st = mpc.Seq(st, s)
	}
	ests := mpc.Map(sk, func(ks KeySketch) mpc.KeyCount[string] {
		e := int64(math.Round(ks.V.Estimate()))
		if e < 1 {
			e = 1
		}
		return mpc.KeyCount[string]{Key: ks.Key, Count: e}
	})
	total, st2 := SumCounts(ests)
	return ests, total, mpc.Seq(st, st2)
}

// MatMulOut estimates OUT and OUT_a for ∑_B R1(A,B) ⋈ R2(B,C): the n = 2
// line query with (possibly composite) path A–B–C.
func MatMulOut[W any](r1, r2 dist.Rel[W], a, b, c []dist.Attr, p Params) (mpc.Part[mpc.KeyCount[string]], int64, mpc.Stats) {
	return LineOut([]dist.Rel[W]{r1, r2}, [][]dist.Attr{a, b, c}, p)
}

// SumCounts totals the Count fields with an AllReduce, so every server
// learns the global sum.
func SumCounts[K interface{ ~string | ~int64 }](pt mpc.Part[mpc.KeyCount[K]]) (int64, mpc.Stats) {
	local := make([]int64, pt.P())
	for s, shard := range pt.Shards {
		for _, kc := range shard {
			local[s] += kc.Count
		}
	}
	return mpc.AllReduce(pt.Scope(), local, mpc.Add[int64], "")
}

func totalN[W any](rels []dist.Rel[W]) int {
	n := 0
	for _, r := range rels {
		n += r.N()
	}
	return n
}
