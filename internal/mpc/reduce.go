package mpc

import (
	"cmp"

	xrt "mpcjoin/internal/runtime"
)

// ReduceByKey combines all elements sharing a key into one, using the
// associative and commutative operator combine. Afterwards every key is
// represented by exactly one element, keys are sorted and contiguous across
// servers, and shard sizes are balanced.
//
// This is the paper's reduce-by-key primitive (§2.1, [13]): it computes
// aggregations ∑_ȳ R and degree statistics with load O(N/p) in O(1) rounds.
// The implementation is deterministic and skew-proof. One sample sort does
// the shuffle and folds runs of equal keys at both of its ends: the local
// sort's runs, before the shuffle, so every key's surviving multiplicity is
// capped at p (one per server), and the runs of each server's inbox, read
// through the final sort's permutation. The partition round buckets by key
// alone, so every key lands whole on one server — the one a tie-broken
// sort gives its first copy — for at most 2p−1 more units than a
// tie-broken bucket, and the inbox fold leaves one element per key. Run
// boundaries are read off the sort's key image, so key runs about twice
// per element (the two encodes), and the sort is stable, so combine folds
// equal keys in input order on a server, then the servers' folds in one
// left fold in server order. Cost: the Sort cost, 2 rounds.
//
// The per-server phases run on the scope's runtime: key and combine must
// be safe for concurrent calls across servers.
func ReduceByKey[T any, K cmp.Ordered](pt Part[T], key func(T) K, combine func(a, b T) T) (Part[T], Stats) {
	p := pt.P()
	ex := pt.scope()

	// Global sort by key, folding runs before the shuffle and after it; the
	// sort's first round carries reduce-by-key's own label.
	order, encode := keyOrder(key)
	reduced := NewPartIn[T](ex, p)
	TraceOp(ex, "reduce.samples")
	st := sampleSort(ex, p, shardBatches(pt, order, encode), order, encode, combine, nil,
		func(s int, ts []tagged[T], sb sortedBatch[T], sc *xrt.Scratch) {
			heads := sb.heads(true, sc)
			xs := make([]T, len(heads))
			r := -1
			for i := 0; i < sb.n; i++ {
				if j := permAt(sb.perm, i); r+1 < len(xs) && int(heads[r+1]) == j {
					r++
					xs[r] = ts[j].x
				} else {
					xs[r] = combine(xs[r], ts[j].x)
				}
			}
			reduced.Shards[s] = xs
		})
	return reduced, st
}

// CountByKey counts elements per key: the degree-statistics use of
// reduce-by-key from §2.1 ("each tuple has key π_v t and value 1").
func CountByKey[T any, K cmp.Ordered](pt Part[T], key func(T) K) (Part[KeyCount[K]], Stats) {
	ones := Map(pt, func(x T) KeyCount[K] { return KeyCount[K]{Key: key(x), Count: 1} })
	return ReduceByKey(ones, func(kc KeyCount[K]) K { return kc.Key }, func(a, b KeyCount[K]) KeyCount[K] {
		return KeyCount[K]{Key: a.Key, Count: a.Count + b.Count}
	})
}

// CountBySide is CountByKey over two Parts at once — §2.1's degree
// statistic of both sides of a join in one reduce-by-key: an l element
// counts (1, 0) under lKey, an r element (0, 1) under rKey, and the two
// sides share one key space. Keys come back in order, one element each,
// with each side's count (0 where the key is absent from that side).
func CountBySide[T any, K cmp.Ordered](l, r Part[T], lKey, rKey func(T) K) (Part[SideCount[K]], Stats) {
	ones := MapShards(l, func(s int, ls []T) []SideCount[K] {
		cs := make([]SideCount[K], 0, len(ls)+len(r.Shards[s]))
		for _, x := range ls {
			cs = append(cs, SideCount[K]{Key: lKey(x), L: 1})
		}
		for _, x := range r.Shards[s] {
			cs = append(cs, SideCount[K]{Key: rKey(x), R: 1})
		}
		return cs
	})
	return ReduceByKey(ones, func(c SideCount[K]) K { return c.Key }, func(a, b SideCount[K]) SideCount[K] {
		return SideCount[K]{Key: a.Key, L: a.L + b.L, R: a.R + b.R}
	})
}

// SideCount pairs a key with its count on each side of a CountBySide.
type SideCount[K cmp.Ordered] struct {
	Key  K
	L, R int64
}

// KeyCount pairs a key with a count (or any integer statistic).
type KeyCount[K cmp.Ordered] struct {
	Key   K
	Count int64
}

// SortLocal sorts a shard in place by key (local helper, zero cost). The
// sort is stable: equal-key elements keep their input order. Radix-
// encodable key batches (integers; uniform-length strings such as the
// engines' EncodeKey keys — see radix.go) run the element-moving LSD radix
// kernel; other batches take the stable comparison fallback.
func SortLocal[T any, K cmp.Ordered](shard []T, key func(T) K) {
	if len(shard) <= 1 {
		return
	}
	if radixEncodable[K]() {
		if enc, ok := encodeRadixKeys(len(shard), func(i int) K { return key(shard[i]) }, 0, nil); ok {
			radixSortKeyed(enc, shard)
			return
		}
	}
	sortStableFunc(shard, func(a, b T) int { return cmp.Compare(key(a), key(b)) })
}
