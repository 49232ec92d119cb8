package mpc

import (
	"cmp"

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

// lastY carries a server's final local Y element (if any) to the
// coordinator for cross-server predecessor propagation.
type lastY[Y any, K cmp.Ordered] struct {
	src  int
	have bool
	k    K
	y    Y
}

// MultiSearch computes, for every x ∈ xs, its predecessor in ys: the
// element with the greatest ykey ≤ xkey(x). This is the §2.1 multi-search
// primitive of [13]; semijoins reduce to it. Both Parts must span the same
// number of servers.
//
// The implementation sorts the union of the two sets with Y-before-X
// tie-breaking, scans locally, and fixes server boundaries with one O(p)
// coordinator round (each server's last Y is prefix-maxed across servers).
// Cost: the Sort cost plus two O(p)-load rounds.
func MultiSearch[X, Y any, K cmp.Ordered](xs Part[X], ys Part[Y], xkey func(X) K, ykey func(Y) K) (Part[Pred[X, Y]], Stats) {
	return multiSearch(xs, ys, xkey, ykey, radixEncodable[K]())
}

// multiSearch is MultiSearch with the sort's kernel chosen by the caller:
// radix false keeps every phase on comparisons, the reference the radix
// phases are tested against.
func multiSearch[X, Y any, K cmp.Ordered](xs Part[X], ys Part[Y], xkey func(X) K, ykey func(Y) K, radix bool) (Part[Pred[X, Y]], Stats) {
	p := xs.P()
	if ys.P() != p {
		panic("mpc: MultiSearch parts span different server counts")
	}

	ex := mergeScope(xs, ys)
	merged := NewPartIn[msItem[X, Y, K]](ex, p)
	ex.ForEachShard(p, func(s int) {
		items := make([]msItem[X, Y, K], 0, len(xs.Shards[s])+len(ys.Shards[s]))
		for _, y := range ys.Shards[s] {
			items = append(items, msItem[X, Y, K]{k: ykey(y), y: y})
		}
		for _, x := range xs.Shards[s] {
			items = append(items, msItem[X, Y, K]{k: xkey(x), isX: true, x: x})
		}
		merged.Shards[s] = items
	})

	// Sort by (key, Y-before-X): on equal keys every Y globally precedes
	// every X, so the local scan plus the cross-server carry below sees the
	// correct "greatest Y with key ≤ x" for every X. The radix image is the
	// key's with isX appended as the least-significant word, so the tie-break
	// is part of the image and every phase of the sort goes radix.
	type item = msItem[X, Y, K]
	var encode encodeFunc[item]
	if radix {
		encode = func(n int, at func(i int) *item, sc *xrt.Scratch) (radixKeys, bool) {
			img, ok := encodeRadixKeys(n, func(i int) K { return at(i).k }, 1, sc)
			if ok {
				side := img.col(img.w - 1)
				for i := range side {
					if at(i).isX {
						side[i] = 1
					}
				}
			}
			return img, ok
		}
	}
	sorted, st := sampleSort(merged, func(a, b item) int {
		if c := cmp.Compare(a.k, b.k); c != 0 {
			return c
		}
		if a.isX != b.isX {
			if b.isX {
				return -1
			}
			return 1
		}
		return 0
	}, encode)

	// Each server's greatest local Y → coordinator.
	lasts := NewPartIn[lastY[Y, K]](ex, p)
	ex.ForEachShard(p, func(s int) {
		shard := sorted.Shards[s]
		l := lastY[Y, K]{src: s}
		for i := len(shard) - 1; i >= 0; i-- {
			if !shard[i].isX {
				l.have = true
				l.k = shard[i].k
				l.y = shard[i].y
				break
			}
		}
		lasts.Shards[s] = []lastY[Y, K]{l}
	})
	// Prefix: carry[s] = greatest Y among servers < s. The equal-key Y/X
	// interleaving across a server boundary is safe: a Y with key equal to
	// a later server's X sorts to an earlier-or-equal position globally,
	// and if it landed on a previous server it is that server's last Y.
	carried, stAB := Coordinate(lasts, "multisearch.boundaries", "multisearch.carry", func(all []lastY[Y, K]) [][]lastY[Y, K] {
		byServer := make([]lastY[Y, K], p)
		for _, l := range all {
			byServer[l.src] = l
		}
		carries := make([]lastY[Y, K], p)
		var cur lastY[Y, K]
		for s := 0; s < p; s++ {
			carries[s] = cur
			if byServer[s].have {
				cur = byServer[s]
			}
		}
		return oneEach(carries)
	})

	// Local scan (one worker per server; each consults only its carry).
	out := NewPartIn[Pred[X, Y]](ex, p)
	ex.ForEachShard(p, func(s int) {
		var (
			have bool
			by   Y
		)
		if len(carried.Shards[s]) == 1 && carried.Shards[s][0].have {
			have = true
			by = carried.Shards[s][0].y
		}
		nx := 0
		for _, it := range sorted.Shards[s] {
			if it.isX {
				nx++
			}
		}
		if nx == 0 {
			return
		}
		preds := make([]Pred[X, Y], 0, nx)
		for _, it := range sorted.Shards[s] {
			if it.isX {
				preds = append(preds, Pred[X, Y]{X: it.x, Y: by, Found: have})
			} else {
				have = true
				by = it.y
			}
		}
		out.Shards[s] = preds
	})
	return out, Seq(st, stAB)
}

// SemijoinKeys filters xs to the elements whose key appears in ys
// (the §2.1 semijoin-by-multi-search). ys need not be duplicate-free.
func SemijoinKeys[X, Y any, K cmp.Ordered](xs Part[X], ys Part[Y], xkey func(X) K, ykey func(Y) K) (Part[X], Stats) {
	preds, st := MultiSearch(xs, ys, xkey, ykey)
	matched := Filter(preds, func(pr Pred[X, Y]) bool {
		return pr.Found && ykey(pr.Y) == xkey(pr.X)
	})
	return Map(matched, func(pr Pred[X, Y]) X { return pr.X }), st
}

// LookupJoin annotates every x with the Y value sharing its key, if any —
// a one-to-many lookup where ys must have at most one element per key
// (e.g. the output of ReduceByKey). Cost: one MultiSearch.
func LookupJoin[X, Y any, K cmp.Ordered](xs Part[X], ys Part[Y], xkey func(X) K, ykey func(Y) K) (Part[Pred[X, Y]], Stats) {
	preds, st := MultiSearch(xs, ys, xkey, ykey)
	return Map(preds, func(pr Pred[X, Y]) Pred[X, Y] {
		if pr.Found && ykey(pr.Y) != xkey(pr.X) {
			pr.Found = false
		}
		return pr
	}), st
}
