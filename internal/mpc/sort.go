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
// Cost: 2 rounds — the samples to every server (≤ p² units per server),
// from which each picks the same splitters, and the data reshuffle (≈ 2N/p
// per server).
//
// The per-server sort and partition phases run on the scope's runtime, so
// less must be safe for concurrent calls across servers.
//
// SortBy is sampleSort with no key image: every phase compares. It is the
// reference Sort's and MultiSearch's radix phases are tested against
// (radix_test.go) — all compute the same unique (element, src, idx) total
// order, through the same permutation path.
func SortBy[T any](pt Part[T], less func(a, b T) bool) (Part[T], Stats) {
	return sortPart(pt, func(a, b T) int {
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
// (integers; the engines' uniform-length EncodeKey strings, of any column
// count) every sorting phase runs the LSD radix kernel of radix.go instead
// of a comparison sort; results, shard contents and Stats are bit-for-bit
// identical to the comparison path either way, because both compute the
// same unique (key, src, idx) total order.
func Sort[T any, K cmp.Ordered](pt Part[T], key func(T) K) (Part[T], Stats) {
	order, encode := keyOrder(key)
	return sortPart(pt, order, encode)
}

// keyOrder is the element order of a sort by key and, when K is
// radix-encodable, the encoder of the key's image.
func keyOrder[T any, K cmp.Ordered](key func(T) K) (func(a, b T) int, encodeFunc[T]) {
	order := func(a, b T) int { return cmp.Compare(key(a), key(b)) }
	if !radixEncodable[K]() {
		return order, nil
	}
	return order, func(n int, at func(i int) *T, sc *xrt.Scratch) (radixKeys, bool) {
		return encodeRadixKeys(n, func(i int) K { return key(*at(i)) }, 0, sc)
	}
}

// sortPart sample-sorts pt's shards and writes each server's inbox out in
// the final order inside the final sort's callback, so the permutation it
// reads stays in the worker's scratch.
func sortPart[T any](pt Part[T], order func(a, b T) int, encode encodeFunc[T]) (Part[T], Stats) {
	res := NewPartIn[T](pt.scope(), pt.P())
	st := sampleSort(pt.scope(), pt.P(), shardBatches(pt, order, encode), order, encode, nil, nil,
		func(s int, ts []tagged[T], sb sortedBatch[T], _ *xrt.Scratch) {
			xs := make([]T, len(ts))
			for i := range xs {
				xs[i] = ts[permAt(sb.perm, i)].x
			}
			res.Shards[s] = xs
		})
	return res, st
}

// encodeFunc builds the order-preserving radix image of a batch's keys in
// words carved from sc, or reports false when this batch has none (ragged
// or long strings). It reads the batch through its size n and the accessor
// at, so one function serves shards of T and of tagged[T] alike.
type encodeFunc[T any] func(n int, at func(i int) *T, sc *xrt.Scratch) (radixKeys, bool)

// sortBatch is what one sort phase sees of a server's n elements: their
// order — the radix image of their keys (encode; nil, or false, when the
// batch has none) or the three-way comparison cmp of two positions — and,
// for the local sort's input, put, which writes element i into *dst. The
// elements need not exist before put builds them: the local sort calls put
// once per element, into its slot of the sorted tagged array.
type sortBatch[T any] struct {
	n      int
	encode func(sc *xrt.Scratch) (radixKeys, bool)
	cmp    func(i, j int) int
	put    func(i int, dst *T)
}

// elems orders n existing elements read through at (a batch without put).
func elems[T any](n int, at func(i int) *T, order func(a, b T) int, encode encodeFunc[T]) sortBatch[T] {
	b := sortBatch[T]{n: n, cmp: func(i, j int) int { return order(*at(i), *at(j)) }}
	if encode != nil {
		b.encode = func(sc *xrt.Scratch) (radixKeys, bool) { return encode(n, at, sc) }
	}
	return b
}

// shardBatches is a Part's sample-sort input: server s's batch is shard s.
func shardBatches[T any](pt Part[T], order func(a, b T) int, encode encodeFunc[T]) func(s int) sortBatch[T] {
	return func(s int) sortBatch[T] {
		shard := pt.Shards[s]
		b := elems(len(shard), func(i int) *T { return &shard[i] }, order, encode)
		b.put = func(i int, dst *T) { *dst = shard[i] }
		return b
	}
}

// sortedBatch is a batch after its stable sort: perm[i] is the input
// position of the i-th element in order (nil when the input is in order),
// and img, when ok, the batch's image. perm and img are carved from the
// sorting worker's scratch.
type sortedBatch[T any] struct {
	sortBatch[T]
	perm []uint32
	img  radixKeys
	ok   bool
}

// sort stably sorts the batch: by its image when it encodes, else by cmp.
func (b sortBatch[T]) sort(sc *xrt.Scratch) sortedBatch[T] {
	if b.encode != nil {
		if img, ok := b.encode(sc); ok {
			return sortedBatch[T]{b, img.sortPerm(sc), img, true}
		}
	}
	return sortedBatch[T]{sortBatch: b, perm: sortPermFunc(b.n, b.cmp, sc)}
}

// heads lists, in sorted order, the input position of the first element of
// every run of equal elements — of every element when runs is false. Run
// boundaries are read off the image's words when there is one.
func (b sortedBatch[T]) heads(runs bool, sc *xrt.Scratch) []uint32 {
	if !runs && b.perm != nil {
		return b.perm
	}
	hs := sc.Perm(b.n)[:0]
	for i := 0; i < b.n; i++ {
		j := permAt(b.perm, i)
		if !runs || len(hs) == 0 || !b.same(int(hs[len(hs)-1]), j) {
			hs = append(hs, uint32(j))
		}
	}
	return hs
}

// same reports whether the elements at input positions i and j are equal.
func (b sortedBatch[T]) same(i, j int) bool {
	if b.ok {
		return radixCmp(b.img, i, b.img, j) == 0
	}
	return b.cmp(i, j) == 0
}

// sampleSort is the one sample sort: local sort, regular samples to every
// server (Agree), splitters picked locally, bucket, reshuffle, final local
// sort.
// order is the three-way element comparison; encode, when non-nil, offers
// the radix image of a batch. Each phase decides for its own batch — an
// encodable batch runs the radix kernel, any other the comparison sort —
// which cannot change results, because every path computes the same unique
// (element, src, idx) total order.
//
// The two ends belong to the caller. in(s) is server s's input batch, whose
// elements put builds straight into the tagged array; combine, when
// non-nil, folds each run of equal elements of a local batch into one slot
// (ReduceByKey's pre-combine) and lands each run whole on one server.
// carry, when non-nil, marks the elements source s also sends destination
// d, its last one before bucket d (MultiSearch's predecessor carry).
// land(s, ts, sb, sc) is handed what landed on server s: the routed inbox
// ts in arrival order and sb, the inbox sorted, whose permutation and image
// are carved from sc and valid only during the call. A consumer reads the
// inbox through the permutation there, or copies the permutation to read
// it later; nothing is untagged into a sorted copy first.
//
// No phase sorts elements. Each sorts a permutation of its batch — by the
// image, or by order — and reads or writes every element through it:
//
//   - Local sort: stable by element; the tagged array is written in sorted
//     order with idx its position, each element (or run fold) put once into
//     its slot. Stability keeps equal elements in arrival order on the radix
//     and the comparison path alike, so a fold combines them in input order.
//   - Splitters: the all-gathered samples arrive in ascending
//     (src, element, idx) order, so a stable sort by key alone reproduces
//     the full (element, src, idx) order; the splitters are read through
//     the permutation.
//   - Bucketing: shard and splitters are both sorted in the full order, so
//     an element's bucket — the count of splitters ≤ it — is non-decreasing
//     along the shard and one forward merge-walk finds every bucket's
//     boundary in O(n + p). The buckets are therefore contiguous ranges of
//     the sorted tagged array, and that array is the outbox: its rows are
//     sub-slices, nothing is copied. The walk runs in encoded-word space
//     when the shard's and the splitters' images are comparable, else on
//     comparisons. With combine, buckets are cut by element alone, and an
//     element equal to the first splitter with its key also goes past that
//     splitter; land sees each key on one of the two servers (owned). With
//     one element per source per key, a bucket grows by at most 2p−1.
//   - Carries ride as one-element sub-slices of the tagged array, in extra
//     source rows ahead of the bucket rows: a carry is below its bucket in
//     the full order and arrives first, so the final sort keeps it first.
//   - Final sort: a routed shard is the ascending-src concatenation of
//     sorted runs, so the same stability argument applies again; land reads
//     the result through the permutation.
func sampleSort[T any](ex *Exec, p int, in func(s int) sortBatch[T], order func(a, b T) int, encode encodeFunc[T],
	combine func(a, b T) T, carry func(x *T) bool, land func(s int, ts []tagged[T], sb sortedBatch[T], sc *xrt.Scratch)) Stats {
	// csc serves the splitter pick's sort and holds the splitter image, which
	// the partition workers only read.
	csc := xrt.GetScratch()
	defer xrt.PutScratch(csc)

	// Local sort; tag with (src, idx) for global uniqueness. One worker
	// per server — order must be safe for concurrent calls across servers.
	// The sorted image, one key per slot, is kept per shard for the bucket
	// walk below.
	local := make([][]tagged[T], p)
	localKeys := make([]radixKeys, p)
	localOK := make([]bool, p)
	ex.ForEachShardScratch(p, func(s int, sc *xrt.Scratch) {
		b := in(s)
		if b.n == 0 {
			return
		}
		sb := b.sort(sc)
		heads := sb.heads(combine != nil, sc)
		ts := make([]tagged[T], len(heads))
		var x *T // a folded element, on its way to its run's slot
		if combine != nil {
			x = new(T)
		}
		r := -1
		for i := 0; i < b.n; i++ {
			if j := permAt(sb.perm, i); r+1 < len(ts) && int(heads[r+1]) == j {
				r++
				ts[r].src, ts[r].idx = s, r
				b.put(j, &ts[r].x)
			} else {
				b.put(j, x)
				ts[r].x = combine(ts[r].x, *x)
			}
		}
		local[s] = ts
		if sb.ok {
			localKeys[s], localOK[s] = sb.img.sorted(heads), true
		}
	})

	// Regular samples, for every server.
	samplePart := NewPartIn[tagged[T]](ex, p)
	for s, ts := range local {
		n := len(ts)
		if n == 0 {
			continue
		}
		c := min(p, n)
		samples := make([]tagged[T], c)
		for j := range samples {
			samples[j] = ts[j*n/c]
		}
		samplePart.Shards[s] = samples
	}
	// Round 1: every server receives all samples and picks the same p−1
	// splitters at regular ranks of them.
	splits, st1 := Agree(samplePart, "sort.samples", func(samples []tagged[T]) []tagged[T] {
		if len(samples) == 0 {
			return nil
		}
		splits := make([]tagged[T], 0, p-1)
		perm := elems(len(samples), func(i int) *T { return &samples[i].x }, order, encode).sort(csc).perm
		for i := 1; i < p; i++ {
			splits = append(splits, samples[permAt(perm, i*len(samples)/p)])
		}
		return splits
	})

	// Encode the splitter keys once; the image is read-only across shards.
	var splitKeys radixKeys
	splitOK := false
	if len(splits) > 0 && encode != nil {
		splitKeys, splitOK = encode(len(splits), func(i int) *T { return &splits[i].x }, csc)
	}

	// Round 2: route each element to its bucket (= number of splitters ≤
	// it). Bucket d is the run of the sorted shard below splitter d, so the
	// outbox rows are cut from the tagged array itself. Source s's carries
	// go out as source row s, ahead of the bucket rows at p+s.
	rows := p
	if carry != nil {
		rows = 2 * p
	}
	out := make([][][]tagged[T], rows)
	ex.ForEachShard(p, func(s int) {
		ts := local[s]
		if len(ts) == 0 {
			return
		}
		// keyCmp three-way compares splitter i's key with sorted element j's.
		keyCmp := func(i, j int) int { return order(splits[i].x, ts[j].x) }
		if enc := localKeys[s]; localOK[s] && splitOK && enc.comparable(splitKeys) {
			keyCmp = func(i, j int) int { return radixCmp(splitKeys, i, enc, j) }
		}
		row, carries := make([][]tagged[T], p), [][]tagged[T](nil)
		if carry != nil {
			carries = make([][]tagged[T], p)
		}
		// last is the last carried element before bucket d; under combine,
		// tie is a bucket's last element when it equals the bucket's
		// splitter, which bucket tieTo — past the splitter's repeats — also
		// receives.
		last, tie, tieTo := -1, -1, -1
		j := 0
		for d := 0; d < p; d++ {
			if last >= 0 {
				carries[d] = ts[last : last+1 : last+1]
			}
			lo := j
			if d < len(splits) {
				// Advance over the elements below splitter d in the
				// (key, src, idx) order, or up to its key under combine;
				// element j's provenance is (s, j).
				sp := splits[d]
				for ; j < len(ts); j++ {
					if c := keyCmp(d, j); c < 0 || (c == 0 && combine == nil && (sp.src < s || (sp.src == s && sp.idx <= j))) {
						break
					}
				}
			} else {
				j = len(ts)
			}
			from := lo
			if d == tieTo {
				from = tie
			}
			if j > from {
				row[d] = ts[from:j:j]
			}
			if combine != nil && d < len(splits) && j > lo && keyCmp(d, j-1) == 0 {
				tie, tieTo = j-1, d+1
				for tieTo < len(splits) && splits[tieTo].src == splits[d].src && splits[tieTo].idx == splits[d].idx {
					tieTo++ // a repeat of splitter d: fewer samples than servers
				}
			}
			for k := j - 1; carry != nil && k >= lo; k-- {
				if carry(&ts[k].x) {
					last = k
					break
				}
			}
		}
		if carry != nil {
			out[s], out[p+s] = carries, row
		} else {
			out[s] = row
		}
	})
	TraceOp(ex, "sort.partition")
	routed, st2 := ExchangeToIn(ex, p, out)

	// Final local sort; the caller reads what landed — under combine, only
	// the runs this server owns.
	ex.ForEachShardScratch(p, func(s int, sc *xrt.Scratch) {
		ts := routed.Shards[s]
		if len(ts) == 0 {
			return
		}
		sb := elems(len(ts), func(i int) *T { return &ts[i].x }, order, encode).sort(sc)
		if combine != nil {
			sb = owned(s, ts, sb, splits, splitKeys, splitOK, order, sc)
		}
		land(s, ts, sb, sc)
	})
	return Seq(st1, st2)
}

// owned is server s's sorted inbox sb, of the routed ts, cut to the runs s
// keeps when sampleSort folds equal elements. The servers on either side
// of the first splitter with a key — past its repeats — receive every copy
// of that key; the one that keeps it is the server the (element, src, idx)
// cut gives its first copy: the lower one when some copy comes from a
// source before the splitter's, else the upper.
func owned[T any](s int, ts []tagged[T], sb sortedBatch[T], splits []tagged[T], splitKeys radixKeys, splitOK bool,
	order func(a, b T) int, sc *xrt.Scratch) sortedBatch[T] {
	at := func(k int) *tagged[T] { return &ts[permAt(sb.perm, k)] }
	cmpAt := func(i, k int) int { return order(splits[i].x, at(k).x) }
	if sb.ok && splitOK && sb.img.comparable(splitKeys) {
		cmpAt = func(i, k int) int { return radixCmp(splitKeys, i, sb.img, permAt(sb.perm, k)) }
	}
	lo, hi := 0, sb.n
	if i := s - 1; i >= 0 && cmpAt(i, 0) == 0 && at(0).src < splits[i].src {
		for lo < hi && cmpAt(i, lo) == 0 {
			lo++
		}
	}
	if s < len(splits) {
		r := hi
		for r > lo && cmpAt(s, r-1) == 0 {
			r--
		}
		if r < hi && at(r).src >= splits[s].src {
			hi = r
		}
	}
	if lo == 0 && hi == sb.n {
		return sb
	}
	if sb.perm == nil {
		sb.perm = sc.Perm(sb.n)
		for i := range sb.perm {
			sb.perm[i] = uint32(i)
		}
	}
	sb.perm, sb.n = sb.perm[lo:hi], hi-lo
	return sb
}

// boundarySummary describes one server's key range after a Sort, for
// run-chain resolution.
type boundarySummary[K cmp.Ordered] struct {
	nonEmpty bool
	first    K
	last     K
}

// GroupByKey redistributes pt so that all elements sharing a key reside on
// a single server, with keys in sorted contiguous order across servers. It
// is Sort plus the paper's "same value lands on consecutive servers — move
// them to one" fix-up (§3, LinearSparseMM): one all-gather round of
// boundary summaries and one move round. The destination load of the move
// is bounded by the largest key multiplicity, which the caller is
// responsible for keeping ≤ the intended load (the paper's algorithms only
// invoke this on light keys). Cost: 4 rounds.
func GroupByKey[T any, K cmp.Ordered](pt Part[T], key func(T) K) (Part[T], Stats) {
	p := pt.P()
	ex := pt.scope()
	sorted, st := Sort(pt, key)

	// Round A: every server learns every boundary summary and resolves the
	// same ownership: a key that spans several servers merges its run onto
	// the run's first server. A run continues from server s to the next
	// non-empty server t iff last(s) == first(t). Server s reads target[s]
	// (-1: it keeps its shard).
	sum := NewPartIn[boundarySummary[K]](ex, p)
	for s, shard := range sorted.Shards {
		var b boundarySummary[K]
		if len(shard) > 0 {
			b.nonEmpty = true
			b.first = key(shard[0])
			b.last = key(shard[len(shard)-1])
		}
		sum.Shards[s] = []boundarySummary[K]{b}
	}
	target, stA := Agree(sum, "groupby.boundaries", func(summaries []boundarySummary[K]) []int {
		target := make([]int, p)
		ownerOf := -1
		var openKey K
		open := false
		for s, b := range summaries {
			target[s] = -1
			if !b.nonEmpty {
				continue
			}
			if open && b.first == openKey {
				target[s] = ownerOf
				if b.last == b.first {
					continue // entire shard is the open key; run may extend
				}
			}
			ownerOf = s
			openKey = b.last
			open = true
		}
		return target
	})

	// Round B: move chained-key elements to their owners. Only a shard's
	// first key can continue the previous server's run, so the moved
	// elements are exactly a sorted prefix of the shard: split it instead
	// of hashing every element through a map.
	moveOut := make([][][]T, p)
	res := NewPartIn[T](ex, p)
	ex.ForEachShard(p, func(s int) {
		shard := sorted.Shards[s]
		if target[s] < 0 {
			res.Shards[s] = shard
			return
		}
		first := key(shard[0])
		i := sort.Search(len(shard), func(j int) bool { return key(shard[j]) != first })
		row := make([][]T, p)
		row[target[s]] = shard[:i:i]
		moveOut[s] = row
		res.Shards[s] = shard[i:len(shard):len(shard)]
	})
	TraceOp(ex, "groupby.merge")
	moved, stB := ExchangeIn(ex, p, moveOut)
	for s := range res.Shards {
		if len(moved.Shards[s]) > 0 {
			res.Shards[s] = append(res.Shards[s], moved.Shards[s]...)
		}
	}
	return res, Seq(st, stA, stB)
}
