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
// attributes, keyed by its order-preserving byte encoding. ArmOut is the
// one reader of that encoding here: the engines' per-arm estimates are
// keyed by the single centre value it decodes.
//
// Metering note: a sketch vector is one run of len(w) machine words —
// O(k·log N) of them, i.e. O(log N) units in the model's terms. The
// simulator counts each Part element as one unit (and the tracer its fixed
// 40-byte KeySketch header as its Bytes), so measured estimator loads are a
// polylog factor below the physical truth — consistent with the paper's
// Õ(N/p) claim for this primitive, and called out in EXPERIMENTS.md.
package estimate

import (
	"math"
	"sort"

	"mpcjoin/internal/dist"
	"mpcjoin/internal/kmv"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/relation"
)

// defaultK is the per-sketch size; the estimator's relative error is
// ~1/√K per repetition, tightened by the median over repetitions.
const defaultK = 64

// Params configures the estimator. Its one setting is Seed: the §2.2
// configuration — K = 64 and O(log N) repetitions — is not a knob. The
// unexported sizes exist for this package's tests, which sweep them.
type Params struct {
	// k is the KMV sketch size (default defaultK).
	k int
	// reps is the number of independent repetitions (default ⌈log₂ N⌉,
	// minimum 5, forced odd for a well-defined median).
	reps int
	// Seed derives the independent hash functions.
	Seed uint64
}

// withDefaults fills unset sizes given an instance size n.
func (p Params) withDefaults(n int) Params {
	if p.k == 0 {
		p.k = defaultK
	}
	if p.reps == 0 {
		p.reps = int(math.Ceil(math.Log2(float64(n + 2))))
	}
	if p.reps < 5 {
		p.reps = 5
	}
	if p.reps%2 == 0 {
		p.reps++
	}
	return p
}

// Vec is a vector of independent KMV sketches, one per repetition, held as
// one flat word run: w[0] = K, w[1] = Reps, w[2] = Seed, then one end offset
// (an index into w) per repetition, then every repetition's ascending
// distinct hash values back to back. A Vec is immutable once built: every
// operation below allocates its result once, fills it in place and never
// writes into an operand, so vectors may be shared between Part elements
// (the fold's untagged carry does) and re-sent from an outbox after a fault.
type Vec struct{ w []uint64 }

const vecHdr = 3

func (v Vec) k() int       { return int(v.w[0]) }
func (v Vec) reps() int    { return int(v.w[1]) }
func (v Vec) seed() uint64 { return v.w[2] }

// repSeed is the hash seed of repetition i of a vector seeded seed.
func repSeed(seed uint64, i int) uint64 { return seed + uint64(i)*0x9e37 }

// rep returns repetition i's values.
func (v Vec) rep(i int) []uint64 {
	lo := uint64(vecHdr + v.reps())
	if i > 0 {
		lo = v.w[vecHdr+i-1]
	}
	return v.w[lo:v.w[vecHdr+i]]
}

// buildVec allocates a vector and fills it in place: repetition i is what
// fill appends to region, an empty slice of the result with room for size(i)
// values.
func buildVec(k, reps int, seed uint64, size func(i int) int, fill func(i int, region []uint64) []uint64) Vec {
	total := 0
	for i := 0; i < reps; i++ {
		total += size(i)
	}
	w := make([]uint64, vecHdr+reps, vecHdr+reps+total)
	w[0], w[1], w[2] = uint64(k), uint64(reps), seed
	for i := 0; i < reps; i++ {
		region := fill(i, w[len(w):len(w):len(w)+size(i)])
		w = w[:len(w)+len(region)]
		w[vecHdr+i] = uint64(len(w))
	}
	return Vec{w: w}
}

// NewVec returns an empty sketch vector.
func NewVec(p Params) Vec {
	return buildVec(p.k, p.reps, p.Seed, func(int) int { return 0 }, func(_ int, region []uint64) []uint64 { return region })
}

// SingletonVec is NewVec(p).Insert(item), built directly: the per-row base
// case of the fold.
func SingletonVec(p Params, item uint64) Vec {
	return buildVec(p.k, p.reps, p.Seed, func(int) int { return 1 }, func(i int, region []uint64) []uint64 {
		return append(region, kmv.Hash64(item, repSeed(p.Seed, i)))
	})
}

// Insert adds an item to every repetition.
func (v Vec) Insert(item uint64) Vec {
	return MergeVec(v, SingletonVec(Params{k: v.k(), reps: v.reps(), Seed: v.seed()}, item))
}

// MergeVec merges two sketch vectors of the same K, Reps and Seed
// repetition-wise — the ⊕ of the fold.
func MergeVec(a, b Vec) Vec {
	if a.w[0] != b.w[0] || a.w[1] != b.w[1] || a.w[2] != b.w[2] {
		panic("estimate: merging incompatible sketch vectors")
	}
	k := a.k()
	return buildVec(k, a.reps(), a.seed(),
		func(i int) int { return min(len(a.rep(i))+len(b.rep(i)), k) },
		func(i int, region []uint64) []uint64 { return kmv.AppendMerge(region, a.rep(i), b.rep(i), k) })
}

// Estimate returns the median distinct-count estimate across repetitions.
func (v Vec) Estimate() float64 {
	var stack [64]float64
	ests := stack[:0]
	for i := 0; i < v.reps(); i++ {
		ests = append(ests, kmv.Estimate(v.rep(i), v.k()))
	}
	sort.Float64s(ests)
	return ests[len(ests)/2]
}

// KeySketch pairs an encoded attribute-tuple value with a sketch vector.
type KeySketch struct {
	Key string
	V   Vec
}

// SketchValues builds, for every distinct value tuple of keyAttrs in r, a
// sketch vector of the distinct itemAttrs tuples co-occurring with it — the
// base case of the §2.2 fold (hashing dom(A_{n+1}) per value of A_n), i.e.
// the leaf step of the image fold. Cost: one reduce-by-key.
func SketchValues[W any](r dist.Rel[W], keyAttrs, itemAttrs []dist.Attr, p Params) (mpc.Part[KeySketch], mpc.Stats) {
	f := fold[W, KeySketch]{alg: imageAlgebra(p.withDefaults(r.N()))}
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
	p = p.withDefaults(totalN(rels))
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

// ArmOut is LineOut along one arm of a star-like query, the per-arm
// degree estimate d_i(b) of §6 step 1 and §7.1's x(b): path[0] is the
// arm's single center attribute B, and every estimate is keyed by its b
// value itself. No caller reads LineOut's total, but its all-reduce round
// stays: dropping it would move the rounds of every star-like and tree
// execution.
func ArmOut[W any](rels []dist.Rel[W], path [][]dist.Attr) (mpc.Part[mpc.KeyCount[int64]], mpc.Stats) {
	ests, _, st := LineOut(rels, path, Params{})
	return mpc.Map(ests, func(kc mpc.KeyCount[string]) mpc.KeyCount[int64] {
		return mpc.KeyCount[int64]{Key: int64(relation.DecodeKey(kc.Key)[0]), Count: kc.Count}
	}), st
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
