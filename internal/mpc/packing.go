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
// Cost: one O(p)-load all-gather round (every server receives the p local
// totals and prefix-sums them itself); the assignment itself is local.

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

	// Local totals (per-server sums run on the execution's runtime; weight
	// must be safe for concurrent calls), one per server in server order.
	totals := NewPartIn[int64](ex, p)
	ex.ForEachShard(p, func(s int) {
		var t int64
		for _, x := range pt.Shards[s] {
			t += weight(x)
		}
		totals.Shards[s] = []int64{t}
	})
	// Round 1: every server receives all totals and prefix-sums them in
	// server order: base[s] is server s's offset, base[p] the grand total.
	base, st := Agree(totals, "packing.totals", func(all []int64) []int64 {
		base := make([]int64, p+1)
		for s, t := range all {
			base[s+1] = base[s] + t
		}
		return base
	})

	// Local assignment (each server owns its prefix offset).
	out := NewPartIn[Binned[T]](ex, p)
	ex.ForEachShard(p, func(s int) {
		shard := pt.Shards[s]
		if len(shard) == 0 {
			return
		}
		prefix := base[s]
		bs := make([]Binned[T], 0, len(shard))
		for _, x := range shard {
			// Assign by the window containing the element's start.
			bin := int(prefix / cap)
			bs = append(bs, Binned[T]{X: x, Bin: bin})
			prefix += weight(x)
		}
		out.Shards[s] = bs
	})
	grandTotal := base[p]
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
