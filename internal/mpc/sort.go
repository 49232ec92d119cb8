package mpc

import (
	"cmp"
	"sort"

	xrt "mpcjoin/internal/runtime"
)

// tagged wraps an element with its provenance (source server and local
// position after the initial local sort). The triple (element, src, idx) is
// globally unique under lexicographic comparison, so range partitioning
// stays balanced even when every element compares equal — the tie-breaking
// that makes sample sort skew-proof.
type tagged[T any] struct {
	src int
	idx int
	x   T
}

// SortBy range-partitions pt by the strict weak order less using sample
// sort with regular sampling: after it returns, shard i holds a contiguous
// range of the global order, elements are non-decreasing across servers and
// sorted within each server, and shard sizes are balanced regardless of
// skew (ties are broken by element provenance).
//
// Cost: 3 rounds — samples to coordinator (≤ p² units), splitter broadcast
// (≤ p units per server), and the data reshuffle (≈ 2N/p per server).
//
// The per-server sort and partition phases run on the scope's runtime, so
// less must be safe for concurrent calls across servers.
//
// SortBy is sampleSort with no key image: every phase compares. It is the
// reference Sort's radix phases are tested against (radix_test.go) — both
// compute the same unique (element, src, idx) total order.
func SortBy[T any](pt Part[T], less func(a, b T) bool) (Part[T], Stats) {
	return sampleSort(pt, func(a, b T) int {
		if less(a, b) {
			return -1
		}
		if less(b, a) {
			return 1
		}
		return 0
	}, nil)
}

// Sort is SortBy ordered by an ordered key. When K is radix-encodable
// (integers; the engines' uniform-length EncodeKey strings) every sorting
// phase runs the stable LSD radix kernel of radix.go instead of a
// comparison sort; results, shard contents and Stats are bit-for-bit
// identical to the comparison path either way, because both compute the
// same unique (key, src, idx) total order.
func Sort[T any, K cmp.Ordered](pt Part[T], key func(T) K) (Part[T], Stats) {
	order := func(a, b T) int { return cmp.Compare(key(a), key(b)) }
	if !radixEncodable[K]() {
		return sampleSort(pt, order, nil)
	}
	return sampleSort(pt, order, func(ts []tagged[T]) (radixKeys, bool) {
		ks := make([]K, len(ts))
		for i, t := range ts {
			ks[i] = key(t.x)
		}
		return encodeRadixKeys(ks)
	})
}

// sampleSort is the one sample sort: local sort, regular samples to the
// coordinator, splitter broadcast, bucket, reshuffle, final local sort.
// order is the three-way element comparison; encode, when non-nil, builds
// the order-preserving radix image of a batch's keys, or reports false when
// this batch has none (ragged or long strings). Each phase decides for its
// own batch — an encodable batch runs the stable radix kernel, any other
// the comparison sort — which cannot change results, because every path
// computes the same unique (element, src, idx) total order:
//
//   - Local sort: stable by element, then idx assignment. Stability keeps
//     equal elements in arrival order on the radix and the comparison path
//     alike.
//   - Coordinator sample sort: the gathered samples arrive in ascending
//     (src, element, idx) order, so a stable radix by key alone reproduces
//     the full (element, src, idx) order.
//   - Bucketing: shard and splitters are both sorted in the full order, so
//     one forward merge-walk computes every element's bucket — the count of
//     splitters ≤ it — in O(n + p) instead of n binary searches. The walk
//     runs in encoded-word space when the shard's and the splitters' images
//     share a class, else on comparisons.
//   - Final sort: a routed shard is the ascending-src concatenation of
//     sorted runs, so the same stability argument applies again.
func sampleSort[T any](pt Part[T], order func(a, b T) int, encode func(ts []tagged[T]) (radixKeys, bool)) (Part[T], Stats) {
	p := pt.P()
	ex := pt.scope()
	xcmp := func(a, b tagged[T]) int { return order(a.x, b.x) }
	// tcmp extends order by the (src, idx) provenance tie-break into a
	// total order, so the unstable comparison sort is deterministic.
	tcmp := func(a, b tagged[T]) int {
		if c := order(a.x, b.x); c != 0 {
			return c
		}
		if a.src != b.src {
			return cmp.Compare(a.src, b.src)
		}
		return cmp.Compare(a.idx, b.idx)
	}
	if encode == nil {
		encode = func([]tagged[T]) (radixKeys, bool) { return radixKeys{}, false }
	}
	// sortTagged sorts a batch that arrives in ascending (src, idx) order
	// within equal elements into the full order.
	sortTagged := func(ts []tagged[T]) {
		if enc, ok := encode(ts); ok {
			radixSortKeyed(enc, ts)
			return
		}
		sortFunc(ts, tcmp)
	}

	// Local sort; tag with (src, idx) for global uniqueness. One worker
	// per server — order must be safe for concurrent calls across servers.
	// The encoded image is kept per shard (aligned with the sorted
	// elements) for the bucket walk below.
	local := make([][]tagged[T], p)
	localKeys := make([]radixKeys, p)
	localOK := make([]bool, p)
	ex.ForEachShard(p, func(s int) {
		shard := pt.Shards[s]
		if len(shard) == 0 {
			return
		}
		ts := make([]tagged[T], len(shard))
		for i, x := range shard {
			ts[i] = tagged[T]{src: s, x: x}
		}
		if enc, ok := encode(ts); ok {
			radixSortKeyed(enc, ts)
			localKeys[s], localOK[s] = enc, true
		} else {
			sortStableFunc(ts, xcmp)
		}
		for i := range ts {
			ts[i].idx = i
		}
		local[s] = ts
	})

	// Round 1: regular samples to the coordinator (server 0).
	samplePart := NewPartIn[tagged[T]](ex, p)
	for s, ts := range local {
		n := len(ts)
		if n == 0 {
			continue
		}
		c := p
		if n < c {
			c = n
		}
		for j := 0; j < c; j++ {
			samplePart.Shards[s] = append(samplePart.Shards[s], ts[j*n/c])
		}
	}
	TraceOp(ex, "sort.samples")
	gathered, st1 := Gather(samplePart, 0)

	// Coordinator picks p−1 splitters at regular ranks.
	samples := gathered.Shards[0]
	sortTagged(samples)
	var splits []tagged[T]
	if len(samples) > 0 {
		for i := 1; i < p; i++ {
			splits = append(splits, samples[i*len(samples)/p])
		}
	}

	// Round 2: broadcast splitters.
	splitPart := NewPartIn[tagged[T]](ex, p)
	splitPart.Shards[0] = splits
	TraceOp(ex, "sort.splitters")
	bcast, st2 := Broadcast(splitPart)
	splits = bcast.Shards[0] // identical on every server

	// Encode the splitter keys once; the image is read-only across shards.
	var splitKeys radixKeys
	splitOK := false
	if len(splits) > 0 {
		splitKeys, splitOK = encode(splits)
	}

	// Round 3: route each element to its bucket (= number of splitters ≤ it).
	out := make([][][]tagged[T], p)
	ex.ForEachShardScratch(p, func(s int, sc *xrt.Scratch) {
		ts := local[s]
		if len(ts) == 0 {
			return
		}
		buckets := sc.Ints(len(ts))
		i := 0
		if localOK[s] && splitOK && localKeys[s].class == splitKeys.class {
			enc := localKeys[s]
			for j := range ts {
				for i < len(splits) && splitterLE(splitKeys, splits, i, enc, ts, j) {
					i++
				}
				buckets[j] = i
			}
		} else {
			for j := range ts {
				for i < len(splits) && tcmp(splits[i], ts[j]) <= 0 {
					i++
				}
				buckets[j] = i
			}
		}
		out[s] = BuildOutboxDests(sc, p, "Sort", buckets, ts)
	})
	TraceOp(ex, "sort.partition")
	routed, st3 := ExchangeIn(ex, p, out)

	// Final local sort.
	res := NewPartIn[T](ex, p)
	ex.ForEachShard(p, func(s int) {
		ts := routed.Shards[s]
		if len(ts) == 0 {
			return
		}
		sortTagged(ts)
		xs := make([]T, len(ts))
		for i, t := range ts {
			xs[i] = t.x
		}
		res.Shards[s] = xs
	})
	return res, Seq(st1, st2, st3)
}

// splitterLE reports splitter i ≤ element j in the (key, src, idx) total
// order, comparing keys in encoded-word space.
func splitterLE[T any](sk radixKeys, splits []tagged[T], i int, ek radixKeys, ts []tagged[T], j int) bool {
	if !radixEq(sk, i, ek, j) {
		return radixLE(sk, i, ek, j)
	}
	if splits[i].src != ts[j].src {
		return splits[i].src < ts[j].src
	}
	return splits[i].idx <= ts[j].idx
}

// boundarySummary describes one server's key range after a Sort, for
// coordinator-side run-chain resolution.
type boundarySummary[K cmp.Ordered] struct {
	src      int
	nonEmpty bool
	first    K
	last     K
}

// GroupByKey redistributes pt so that all elements sharing a key reside on
// a single server, with keys in sorted contiguous order across servers. It
// is Sort plus the paper's "same value lands on consecutive servers — move
// them to one" fix-up round (§3, LinearSparseMM). The destination load of
// the fix-up is bounded by the largest key multiplicity, which the caller
// is responsible for keeping ≤ the intended load (the paper's algorithms
// only invoke this on light keys).
func GroupByKey[T any, K cmp.Ordered](pt Part[T], key func(T) K) (Part[T], Stats) {
	p := pt.P()
	ex := pt.scope()
	sorted, st := Sort(pt, key)

	// Round A: boundary summaries to the coordinator.
	sum := NewPartIn[boundarySummary[K]](ex, p)
	for s, shard := range sorted.Shards {
		b := boundarySummary[K]{src: s}
		if len(shard) > 0 {
			b.nonEmpty = true
			b.first = key(shard[0])
			b.last = key(shard[len(shard)-1])
		}
		sum.Shards[s] = []boundarySummary[K]{b}
	}
	TraceOp(ex, "groupby.boundaries")
	gathered, stA := Gather(sum, 0)
	summaries := make([]boundarySummary[K], p)
	for _, b := range gathered.Shards[0] {
		summaries[b.src] = b
	}

	// Coordinator: for every key that spans multiple servers, merge its run
	// onto the run's first server. A run continues from server s to the
	// next non-empty server t iff last(s) == first(t).
	type ownerInstr struct {
		k      K
		target int
	}
	instrs := make([][]ownerInstr, p)
	ownerOf := -1
	var openKey K
	open := false
	for s := 0; s < p; s++ {
		b := summaries[s]
		if !b.nonEmpty {
			continue
		}
		if open && b.first == openKey {
			instrs[s] = append(instrs[s], ownerInstr{k: b.first, target: ownerOf})
			if b.last == b.first {
				continue // entire shard is the open key; run may extend
			}
		}
		ownerOf = s
		openKey = b.last
		open = true
	}

	// Round B: instructions back. Only the coordinator sends, so its row
	// is the whole outbox (instrs is already indexed by destination).
	instrOut := make([][][]ownerInstr, p)
	instrOut[0] = instrs
	TraceOp(ex, "groupby.instructions")
	instrPart, stB := ExchangeIn(ex, p, instrOut)

	// Round C: move chained-key elements to their owners. The coordinator
	// issues at most one instruction per server, always for the shard's
	// first key (only a shard's first key can continue the previous
	// server's run), so the moved elements are exactly a sorted prefix of
	// the shard: split it instead of hashing every element through a map.
	moveOut := make([][][]T, p)
	res := NewPartIn[T](ex, p)
	ex.ForEachShard(p, func(s int) {
		shard := sorted.Shards[s]
		ins := instrPart.Shards[s]
		if len(ins) == 0 {
			res.Shards[s] = shard
			return
		}
		in := ins[0]
		if len(ins) != 1 || len(shard) == 0 || key(shard[0]) != in.k {
			panic("mpc: GroupByKey internal error: unexpected ownership instructions")
		}
		i := sort.Search(len(shard), func(j int) bool { return key(shard[j]) != in.k })
		row := make([][]T, p)
		row[in.target] = shard[:i:i]
		moveOut[s] = row
		res.Shards[s] = shard[i:len(shard):len(shard)]
	})
	TraceOp(ex, "groupby.merge")
	moved, stC := ExchangeIn(ex, p, moveOut)
	for s := range res.Shards {
		if len(moved.Shards[s]) > 0 {
			res.Shards[s] = append(res.Shards[s], moved.Shards[s]...)
		}
	}
	return res, Seq(st, stA, stB, stC)
}
