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
// The implementation is deterministic and skew-proof. One tie-broken sample
// sort does the shuffle and folds runs of equal keys at both of its ends:
// the local sort's runs, before the shuffle, so every key's surviving
// multiplicity is capped at p (one per server), and the runs of each
// server's inbox, read through the final sort's permutation, so one element
// per key per server remains. A constant-size coordinator round then
// stitches runs that straddle server boundaries. Run boundaries are read
// off the sort's key image, so key runs about twice per element (the two
// encodes), and the sort is stable, so combine folds equal keys in input
// order on a server and in server order across them.
//
// The per-server phases run on the scope's runtime: key and combine must
// be safe for concurrent calls across servers.
func ReduceByKey[T any, K cmp.Ordered](pt Part[T], key func(T) K, combine func(a, b T) T) (Part[T], Stats) {
	p := pt.P()
	ex := pt.scope()

	// Global sort by key, balanced by construction, folding runs before the
	// shuffle and after it: ≤ 1 element per key per server.
	order, encode := keyOrder(key)
	reduced := NewPartIn[T](ex, p)
	st := sampleSort(ex, p, shardBatches(pt, order, encode), order, encode, combine,
		func(s int, ts []tagged[T], sb sortedBatch[T], sc *xrt.Scratch) {
			heads := sb.heads(true, sc)
			xs := make([]T, len(heads))
			r := -1
			for i := range ts {
				if j := permAt(sb.perm, i); r+1 < len(xs) && int(heads[r+1]) == j {
					r++
					xs[r] = ts[j].x
				} else {
					xs[r] = combine(xs[r], ts[j].x)
				}
			}
			reduced.Shards[s] = xs
		})

	// Boundary resolution: keys may still straddle servers (≤ p copies of a
	// key globally). Each server reports its first/last elements to the
	// coordinator, which combines chains and tells every participant to
	// keep, replace, or drop.
	type edge struct {
		src       int
		nonEmpty  bool
		firstK    K
		lastK     K
		firstItem T
		lastItem  T
		n         int
	}
	edges := NewPartIn[edge](ex, p)
	for s, shard := range reduced.Shards {
		e := edge{src: s, n: len(shard)}
		if len(shard) > 0 {
			e.nonEmpty = true
			e.firstItem = shard[0]
			e.lastItem = shard[len(shard)-1]
			e.firstK = key(e.firstItem)
			e.lastK = key(e.lastItem)
		}
		edges.Shards[s] = []edge{e}
	}
	// Walk servers in key order, tracking the currently "open" run: the key
	// that the most recent server ended with, which the next server may
	// continue. A key spans servers s..t exactly when it is the last key of
	// s, the first key of s+1..t, and the only key of the servers strictly
	// between. Closing a multi-member run emits a replace instruction to
	// the run's first server and drop instructions to the rest.
	type instr struct {
		k       K
		replace bool // replace the element with item (owner); else drop it
		item    T
	}
	instrPart, stAB := Coordinate(edges, "reduce.boundaries", "reduce.instructions", func(all []edge) [][]instr {
		byServer := make([]edge, p)
		for _, e := range all {
			byServer[e.src] = e
		}
		instrs := make([][]instr, p)
		var (
			open    bool
			openKey K
			acc     T
			members []int
		)
		closeRun := func() {
			if open && len(members) > 1 {
				instrs[members[0]] = append(instrs[members[0]], instr{k: openKey, replace: true, item: acc})
				for _, m := range members[1:] {
					instrs[m] = append(instrs[m], instr{k: openKey})
				}
			}
			open = false
			members = members[:0]
		}
		for s := 0; s < p; s++ {
			e := byServer[s]
			if !e.nonEmpty {
				continue
			}
			if open && e.firstK == openKey {
				members = append(members, s)
				acc = combine(acc, e.firstItem)
				if e.lastK == openKey {
					continue // the whole shard is this key; run may extend further
				}
				closeRun()
			} else {
				closeRun()
			}
			open = true
			openKey = e.lastK
			acc = e.lastItem
			members = append(members, s)
		}
		closeRun()
		return instrs
	})

	// Apply instructions per server; each worker touches only shard s.
	// After the local combine a server holds one element per key, so the
	// coordinator's instructions can only touch the shard's ends: at most
	// one for the first key (drop, or replace when this server owns a
	// run confined to that key) and one for the last key (replace, when
	// this server opened a run that later servers continued). Apply them
	// in place instead of hashing every element through drop/replace maps.
	out := NewPartIn[T](ex, p)
	ex.ForEachShard(p, func(s int) {
		shard := reduced.Shards[s]
		ins := instrPart.Shards[s]
		if len(ins) == 0 {
			out.Shards[s] = shard
			return
		}
		lo := 0
		for _, in := range ins {
			switch {
			case len(shard) > 0 && in.k == key(shard[0]) && !in.replace:
				lo = 1
			case len(shard) > 0 && in.k == key(shard[0]) && lo == 0:
				shard[0] = in.item
			case len(shard) > 0 && in.k == key(shard[len(shard)-1]) && in.replace:
				shard[len(shard)-1] = in.item
			default:
				panic("mpc: ReduceByKey internal error: instruction matches neither shard boundary")
			}
		}
		out.Shards[s] = shard[lo:]
	})
	return out, Seq(st, stAB)
}

// CountByKey counts elements per key: the degree-statistics use of
// reduce-by-key from §2.1 ("each tuple has key π_v t and value 1").
func CountByKey[T any, K cmp.Ordered](pt Part[T], key func(T) K) (Part[KeyCount[K]], Stats) {
	ones := Map(pt, func(x T) KeyCount[K] { return KeyCount[K]{Key: key(x), Count: 1} })
	return ReduceByKey(ones, func(kc KeyCount[K]) K { return kc.Key }, func(a, b KeyCount[K]) KeyCount[K] {
		return KeyCount[K]{Key: a.Key, Count: a.Count + b.Count}
	})
}

// KeyCount pairs a key with a count (or any integer statistic).
type KeyCount[K cmp.Ordered] struct {
	Key   K
	Count int64
}

// AllReduce is Agree with a fold for its decision: server s contributes
// vals[s], the coordinator folds the p contributions with combine — in
// server order, starting from V's zero value, so combine must treat that as
// its identity (a sum; a max over non-negatives) — and broadcasts the
// result, so every server learns it. Two O(p)-load rounds. A non-empty op
// labels them op+".gather" and op+".broadcast"; with an empty op they keep
// Gather's and Broadcast's own labels.
func AllReduce[V any](ex *Exec, vals []V, combine func(acc, v V) V, op string) (V, Stats) {
	p := len(vals)
	pt := NewPartIn[V](ex, p)
	for s := range vals {
		pt.Shards[s] = vals[s : s+1 : s+1]
	}
	gatherOp, replyOp := "", ""
	if op != "" {
		gatherOp, replyOp = op+".gather", op+".broadcast"
	}
	res, st := Agree(pt, gatherOp, replyOp, func(all []V) []V {
		var acc V
		for _, v := range all {
			acc = combine(acc, v)
		}
		return []V{acc}
	})
	return res[0], st
}

// Add is the AllReduce combine of a global sum.
func Add[V ~int64 | ~float64](a, b V) V { return a + b }

// AddVec is the AllReduce combine of several global sums at once, one per
// vector position; it never writes to v.
func AddVec[V ~int64 | ~float64](acc, v []V) []V {
	if acc == nil {
		acc = make([]V, len(v))
	}
	for i := range v {
		acc[i] += v[i]
	}
	return acc
}

// TotalCount sums shard sizes with an all-reduce, so every server learns
// |pt| — used when an algorithm branches on a global size. It is
// TotalCounts of one Part.
func TotalCount[T any](pt Part[T]) (int64, Stats) {
	n, st := TotalCounts(pt)
	return n[0], st
}

// TotalCounts is the all-reduce of several independent global sizes at
// once: server s contributes the vector of its shard sizes
// |parts[i].Shards[s]|, the coordinator adds the vectors in server order and
// broadcasts the totals. The Parts must span the same servers. Two O(p)-load
// rounds, however many sizes ride them.
func TotalCounts[T any](parts ...Part[T]) ([]int64, Stats) {
	sizes := make([][]int64, parts[0].P())
	for s := range sizes {
		sizes[s] = make([]int64, len(parts))
		for i, pt := range parts {
			sizes[s][i] = int64(len(pt.Shards[s]))
		}
	}
	return AllReduce(parts[0].scope(), sizes, AddVec[int64], "count")
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
