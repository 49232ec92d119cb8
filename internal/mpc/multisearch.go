package mpc

import (
	"cmp"
	"slices"

	xrt "mpcjoin/internal/runtime"
)

// Pred is the result of a multi-search: the element x paired with its
// predecessor y — the element of Y with the greatest key ≤ key(x). Found is
// false when no Y element has key ≤ key(x).
type Pred[X, Y any] struct {
	X     X
	Y     Y
	Found bool
}

// msItem is the merged element type sorted during a multi-search. Y
// elements order before X elements on equal keys so that an equal-keyed Y
// counts as a predecessor of the X ("≤" semantics; semijoins rely on it).
type msItem[X, Y any, K cmp.Ordered] struct {
	k   K
	isX bool
	x   X
	y   Y
}

// MultiSearch computes, for every x ∈ xs, its predecessor in ys: the
// element with the greatest ykey ≤ xkey(x). This is the §2.1 multi-search
// primitive of [13]; semijoins reduce to it. Both Parts must span the same
// number of servers.
//
// The implementation sorts the union of the two sets with Y-before-X
// tie-breaking and scans locally. Server boundaries are fixed inside the
// sort's partition round: each source also sends every destination its
// last Y below that destination's bucket, so a bucket's first X finds its
// predecessor among what landed. Cost: the Sort cost — 2 rounds — with at
// most p more units per destination in the partition round.
func MultiSearch[X, Y any, K cmp.Ordered](xs Part[X], ys Part[Y], xkey func(X) K, ykey func(Y) K) (Part[Pred[X, Y]], Stats) {
	return multiSearch(xs, ys, xkey, ykey, radixEncodable[K](), false, func(x X, y Y, found bool) (Pred[X, Y], bool) {
		return Pred[X, Y]{X: x, Y: y, Found: found}, true
	})
}

// Lookup is the exact-match form of the multi-search with its consumer run
// inside the scan: visit sees every x once, in sorted order, with its
// predecessor y in ys (the zero Y when there is none) and found reporting
// that y's key equals x's; it returns x's image and whether to keep it.
// ys should hold at most one element per key (e.g. the output of
// ReduceByKey) unless only found is read. Each key function is called
// exactly once per element. Cost: one MultiSearch.
func Lookup[X, Y, R any, K cmp.Ordered](xs Part[X], ys Part[Y], xkey func(X) K, ykey func(Y) K, visit func(x X, y Y, found bool) (R, bool)) (Part[R], Stats) {
	return multiSearch(xs, ys, xkey, ykey, radixEncodable[K](), true, visit)
}

// multiSearch is the one scan behind MultiSearch and Lookup. visit receives
// each x with its predecessor and found: that it has one, or with exact set
// that the predecessor's key equals x's — the scan compares the two keys it
// sorted by, so no key function runs twice. radix false keeps every phase
// of the sort on comparisons, the reference the radix phases are tested
// against.
func multiSearch[X, Y, R any, K cmp.Ordered](xs Part[X], ys Part[Y], xkey func(X) K, ykey func(Y) K, radix, exact bool, visit func(x X, y Y, found bool) (R, bool)) (Part[R], Stats) {
	p := xs.P()
	if ys.P() != p {
		panic("mpc: MultiSearch parts span different server counts")
	}
	ex := mergeScope(xs, ys)

	// Sort by (key, Y-before-X): on equal keys every Y globally precedes
	// every X, so the local scan over a bucket and the Ys carried into it
	// sees the correct "greatest Y with key ≤ x" for every X. The radix
	// image is the key's with isX appended as the least-significant word, so
	// the tie-break is part of the image and every phase of the sort goes
	// radix.
	type item = msItem[X, Y, K]
	order := func(a, b item) int { return msOrder(a.k, a.isX, b.k, b.isX) }
	var encode encodeFunc[item]
	if radix {
		encode = func(n int, at func(i int) *item, sc *xrt.Scratch) (radixKeys, bool) {
			return msImage(n, func(i int) K { return at(i).k }, func(i int) bool { return at(i).isX }, sc)
		}
	}
	// Server s's batch is its ys followed by its xs, each key computed once
	// into keys; an item is built only when the local sort puts it into its
	// tagged slot.
	batch := func(s int) sortBatch[item] {
		xsh, ysh := xs.Shards[s], ys.Shards[s]
		ny := len(ysh)
		keys := make([]K, ny+len(xsh))
		for i, y := range ysh {
			keys[i] = ykey(y)
		}
		for i, x := range xsh {
			keys[ny+i] = xkey(x)
		}
		b := sortBatch[item]{
			n:   len(keys),
			cmp: func(i, j int) int { return msOrder(keys[i], i >= ny, keys[j], j >= ny) },
			put: func(i int, dst *item) {
				if i < ny {
					*dst = item{k: keys[i], y: ysh[i]}
				} else {
					*dst = item{k: keys[i], isX: true, x: xsh[i-ny]}
				}
			},
		}
		if radix {
			b.encode = func(sc *xrt.Scratch) (radixKeys, bool) {
				return msImage(len(keys), func(i int) K { return keys[i] }, func(i int) bool { return i >= ny }, sc)
			}
		}
		return b
	}
	// What landed is read in place: the inbox — the carried Ys, then the
	// bucket — through a heap copy of its sorting permutation, 4 bytes per
	// item instead of an item copy. The sort's first round carries the
	// multi-search's own label.
	inbox := make([][]tagged[item], p)
	perms := make([][]uint32, p)
	TraceOp(ex, "multisearch.samples")
	isY := func(it *item) bool { return !it.isX }
	st := sampleSort(ex, p, batch, order, encode, nil, isY, func(s int, ts []tagged[item], sb sortedBatch[item], _ *xrt.Scratch) {
		inbox[s] = ts
		if sb.perm != nil {
			perms[s] = slices.Clone(sb.perm)
		}
	})
	// sorted returns server s's i-th item in the sorted order.
	sorted := func(s, i int) *item { return &inbox[s][permAt(perms[s], i)].x }

	// Local scan (one worker per server); the carried Ys sort in front of
	// the bucket, so the last Y seen is always the global predecessor.
	out := NewPartIn[R](ex, p)
	ex.ForEachShard(p, func(s int) {
		nx := 0
		for _, t := range inbox[s] {
			if t.x.isX {
				nx++
			}
		}
		if nx == 0 {
			return
		}
		rs := make([]R, 0, nx)
		var none Y
		var pred *item // the last Y seen
		for i := range inbox[s] {
			it := sorted(s, i)
			if !it.isX {
				pred = it
				continue
			}
			y, found := none, false
			if pred != nil {
				y, found = pred.y, !exact || pred.k == it.k
			}
			if r, keep := visit(it.x, y, found); keep {
				rs = append(rs, r)
			}
		}
		if len(rs) > 0 {
			out.Shards[s] = rs
		}
	})
	return out, st
}

// msOrder is the multi-search order of two items given as (key, isX): by
// key, Y before X on equal keys.
func msOrder[K cmp.Ordered](ka K, xa bool, kb K, xb bool) int {
	if c := cmp.Compare(ka, kb); c != 0 || xa == xb {
		return c
	}
	if xb {
		return -1
	}
	return 1
}

// msImage is the radix image of msOrder over n items given as (key(i),
// isX(i)): the key's image with isX as one extra, least-significant word.
func msImage[K cmp.Ordered](n int, key func(i int) K, isX func(i int) bool, sc *xrt.Scratch) (radixKeys, bool) {
	img, ok := encodeRadixKeys(n, key, 1, sc)
	if ok {
		side := img.col(img.w - 1)
		for i := range side {
			if isX(i) {
				side[i] = 1
			}
		}
	}
	return img, ok
}

// SemijoinKeys filters xs to the elements whose key appears in ys
// (the §2.1 semijoin-by-multi-search). ys need not be duplicate-free.
func SemijoinKeys[X, Y any, K cmp.Ordered](xs Part[X], ys Part[Y], xkey func(X) K, ykey func(Y) K) (Part[X], Stats) {
	return Lookup(xs, ys, xkey, ykey, func(x X, _ Y, found bool) (X, bool) { return x, found })
}

// LookupJoin annotates every x with the Y value sharing its key, if any —
// a one-to-many lookup where ys must have at most one element per key
// (e.g. the output of ReduceByKey). A row that is not Found keeps its
// predecessor in Y. For callers that consume the pairs row by row (the
// routers' memo loops); a consumer that filters or maps them is a Lookup
// visitor. Cost: one MultiSearch.
func LookupJoin[X, Y any, K cmp.Ordered](xs Part[X], ys Part[Y], xkey func(X) K, ykey func(Y) K) (Part[Pred[X, Y]], Stats) {
	return Lookup(xs, ys, xkey, ykey, func(x X, y Y, found bool) (Pred[X, Y], bool) {
		return Pred[X, Y]{X: x, Y: y, Found: found}, true
	})
}
