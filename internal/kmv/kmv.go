// Package kmv implements the k-minimum-values (KMV) distinct-count sketch
// of Bar-Yossef et al. and Beyer et al., the tool §2.2 of Hu–Yi PODS'20
// uses to obtain constant-factor output-size estimates with linear load.
//
// A sketch applies a fixed hash function to each inserted item and retains
// the k smallest distinct hash values. If v_k is the k-th smallest value as
// a fraction of the hash space, (k−1)/v_k estimates the number of distinct
// items to within (1±ε) with constant probability for k = O(1/ε²). Two
// sketches built with the same hash merge by keeping the k smallest of
// their union — exactly the "⊕" the paper folds through reduce-by-key.
//
// Determinism: hashing is seeded splitmix64, so runs are reproducible; the
// estimate package draws independent seeds per repetition for the
// median-of-O(log N) boosting.
package kmv

import "sort"

// Hash64 is the seeded 64-bit mixer used by all sketches (splitmix64
// finalizer). It is exported so workload generators and tests can construct
// adversarial inputs against a known hash family.
func Hash64(x uint64, seed uint64) uint64 {
	z := x + seed*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Sketch is one KMV sketch: the K smallest distinct hash values seen so far,
// sorted ascending. The zero Sketch is unusable; construct with New. It is
// the single-sketch reference: Insert and Merge never write into their
// operands and return a freshly built value list, which is what the tests
// of the estimator's flat sketch vectors (estimate.Vec) compare against.
// The estimator itself builds its vectors in place from the slice-level
// functions below — AppendMerge, Keep, Estimate — and never holds a Sketch.
//
// A Sketch costs O(K) units of communication, so with constant K it is a
// constant-size message — the property the §2.2 estimator's linear load
// depends on.
type Sketch struct {
	K    int
	Seed uint64
	// Vals holds the at-most-K smallest distinct hash values, ascending.
	Vals []uint64
}

// New returns an empty sketch with capacity k and the given hash seed.
func New(k int, seed uint64) Sketch {
	if k < 2 {
		panic("kmv: k must be at least 2")
	}
	return Sketch{K: k, Seed: seed}
}

// Insert adds an item and returns the updated sketch.
func (s Sketch) Insert(item uint64) Sketch {
	h := Hash64(item, s.Seed)
	i := sort.Search(len(s.Vals), func(i int) bool { return s.Vals[i] >= h })
	if i < len(s.Vals) && s.Vals[i] == h {
		return s // distinct values only
	}
	if len(s.Vals) == s.K && i == s.K {
		return s // larger than current k-th minimum
	}
	vals := make([]uint64, 0, min(len(s.Vals)+1, s.K))
	vals = append(vals, s.Vals[:i]...)
	vals = append(vals, h)
	vals = append(vals, s.Vals[i:]...)
	if len(vals) > s.K {
		vals = vals[:s.K]
	}
	s.Vals = vals
	return s
}

// Keep is Insert on a value list its caller owns: it puts the hash value h
// (already mixed by Hash64) into vals — ascending, distinct, at most k long
// — in place, and returns the list, one longer unless h was present or not
// among the k smallest. vals needs room for min(len(vals)+1, k) values.
func Keep(vals []uint64, k int, h uint64) []uint64 {
	n := len(vals)
	if n == k && h >= vals[n-1] {
		return vals
	}
	i := sort.Search(n, func(i int) bool { return vals[i] >= h })
	if i < n && vals[i] == h {
		return vals
	}
	if n < k {
		vals = vals[:n+1]
	}
	copy(vals[i+1:], vals[i:len(vals)-1])
	vals[i] = h
	return vals
}

// Merge combines two sketches built with the same K and Seed: the result is
// the sketch of the union of their underlying sets. Merge is associative,
// commutative and idempotent, making it a valid reduce-by-key combiner.
func Merge(a, b Sketch) Sketch {
	if a.K != b.K || a.Seed != b.Seed {
		panic("kmv: merging incompatible sketches")
	}
	vals := AppendMerge(make([]uint64, 0, min(len(a.Vals)+len(b.Vals), a.K)), a.Vals, b.Vals, a.K)
	return Sketch{K: a.K, Seed: a.Seed, Vals: vals}
}

// AppendMerge appends the merge of two value lists built with the same hash
// (the k smallest of their union, ascending, deduplicated) to dst and
// returns the extended slice: the one merge loop, under Merge and under the
// estimator's vector merge, which runs one per repetition into a single
// buffer. dst must not alias a or b.
func AppendMerge(dst, a, b []uint64, k int) []uint64 {
	i, j := 0, 0
	for n := 0; (i < len(a) || j < len(b)) && n < k; n++ {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			dst = append(dst, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			dst = append(dst, b[j])
			j++
		default: // equal
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// Estimate returns the estimated number of distinct inserted items:
// exact when fewer than K distinct values were seen, (K−1)/v_K otherwise.
func (s Sketch) Estimate() float64 { return Estimate(s.Vals, s.K) }

// Estimate is Sketch.Estimate on a bare value list of a size-k sketch.
func Estimate(vals []uint64, k int) float64 {
	if len(vals) < k {
		return float64(len(vals))
	}
	vk := float64(vals[k-1]) / float64(^uint64(0))
	if vk == 0 {
		return float64(k)
	}
	return float64(k-1) / vk
}
