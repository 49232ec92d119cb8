package mpc

import "cmp"

// packing.go implements the parallel-packing primitive of §2.1 (from Hu–Yi
// PODS'19): given N weights 0 < x_i ≤ cap distributed across servers, group
// them into bins so that each bin's total weight is O(cap) and the number
// of bins is O(1 + Σx_i/cap).
//
// The implementation assigns element i to bin ⌊prefix(i)/cap⌋ where
// prefix(i) is the running sum of weights in an arbitrary but fixed global
// order. Every bin except possibly the last covers a full cap-wide window
// of the prefix line, so its total is < 2·cap (a window's own mass cap,
// plus at most one straddling element), and all bins except the last have
// total ≥ cap − max_i x_i ≥ 0 mass *starting* inside them with the window
// fully covered; the bin count is ≤ 1 + Σx/cap. This matches the paper's
// guarantee up to the constant 2 (the paper states ≤ cap per bin and
// ≥ cap/2 for all but one bin); the algorithms only need O(cap) bins, and
// the benchmark harness reports measured constants.
//
// Cost: two O(p)-load coordinator rounds (local totals up, base offsets
// and the grand total down); the assignment itself is local.

// Binned pairs an element with its assigned bin index.
type Binned[T any] struct {
	X   T
	Bin int
}

// ParallelPack assigns each element a bin index as described above. weight
// must return values in (0, cap]; zero-weight elements are permitted and
// simply inherit the current bin. The result preserves the element's
// placement (no data movement); only O(p) statistics travel.
//
// The returned bin count is numBins ≤ 1 + ⌈Σw/cap⌉.
func ParallelPack[T any](pt Part[T], weight func(T) int64, cap int64) (Part[Binned[T]], int, Stats) {
	if cap <= 0 {
		panic("mpc: ParallelPack capacity must be positive")
	}
	p := pt.P()
	ex := pt.scope()

	// Local totals for the coordinator (per-server sums run on the
	// execution's runtime; weight must be safe for concurrent calls).
	// Keep per-server order: tag with src via KeyCount.
	totals := NewPartIn[KeyCount[int]](ex, p)
	ex.ForEachShard(p, func(s int) {
		var t int64
		for _, x := range pt.Shards[s] {
			t += weight(x)
		}
		totals.Shards[s] = []KeyCount[int]{{Key: s, Count: t}}
	})
	// Rounds 1–2: the coordinator prefix-sums the totals in server order
	// and replies each server its base offset and the grand total, from
	// which every server derives the bin count.
	type offsets struct{ base, grand int64 }
	basePart, st := Coordinate(totals, "packing.totals", "packing.offsets", func(all []KeyCount[int]) [][]offsets {
		perServer := make([]int64, p)
		for _, kc := range all {
			perServer[kc.Key] = kc.Count
		}
		var grand int64
		base := make([]offsets, p)
		for s := 0; s < p; s++ {
			base[s].base = grand
			grand += perServer[s]
		}
		for s := range base {
			base[s].grand = grand
		}
		return oneEach(base)
	})

	// Local assignment (each server owns its prefix offset).
	out := NewPartIn[Binned[T]](ex, p)
	ex.ForEachShard(p, func(s int) {
		shard := pt.Shards[s]
		if len(shard) == 0 {
			return
		}
		prefix := basePart.Shards[s][0].base
		bs := make([]Binned[T], 0, len(shard))
		for _, x := range shard {
			// Assign by the window containing the element's start.
			bin := int(prefix / cap)
			bs = append(bs, Binned[T]{X: x, Bin: bin})
			prefix += weight(x)
		}
		out.Shards[s] = bs
	})
	// Every server learned the same grand total; the last one's reply is
	// read here.
	grandTotal := basePart.Shards[p-1][0].grand
	numBins := int((grandTotal+cap-1)/cap) + 1
	if grandTotal == 0 {
		numBins = 1
	}
	return out, numBins, st
}

// KeyBin records a key's assigned group plus its weight.
type KeyBin[K cmp.Ordered] struct {
	Key   K
	Bin   int
	Count int64
}
