package mpc

import (
	"fmt"

	xrt "mpcjoin/internal/runtime"
)

// kernels.go holds the allocation-lean routing kernel shared by every
// primitive that builds exchange outboxes (engines reach it through
// RouteBlocks). Historically each
// call site grew p destination rows by repeated append — p slice
// headers plus O(log) reallocation copies per row, every round. The
// counted two-pass build replaces that with exactly three allocations
// per source (row table, backing buffer, and a count vector that a
// Scratch arena amortizes away): count per-destination sizes, carve
// contiguous sub-slices of one buffer, fill.

// buildOutbox assembles one source server's destination rows for an
// exchange onto lay's blocks (max(lay.Total(), 1) servers) using a
// counted two-pass build. scan is invoked exactly twice with an emit
// callback that addresses server i of block b: the first invocation
// (fill == false) tallies per-destination unit counts, the second
// (fill == true) places elements into contiguous sub-slices of a
// single backing buffer. scan must emit the same destination sequence
// in both invocations — route from read-only state, or memoize the
// decisions (a Scratch is the natural place). The element argument is
// ignored during the count pass, so callers may defer constructing
// expensive elements to the fill pass.
//
// Destinations that receive nothing keep a nil row, matching the
// append-built outboxes this replaces. An index outside its block
// panics with what naming the calling primitive.
//
// sc, when non-nil, provides the count vector from the worker's arena;
// a nil sc allocates it (serial helpers, tests).
func buildOutbox[T any](sc *xrt.Scratch, lay Layout, what string, scan func(fill bool, emit func(b, i int, x T))) [][]T {
	pDst := max(lay.Total(), 1)
	var counts []int
	if sc != nil {
		counts = sc.Ints(pDst)
	} else {
		counts = make([]int, pDst)
	}
	total := 0
	scan(false, func(b, i int, _ T) {
		lo, hi := lay.off[b], lay.off[b+1]
		if i < 0 || i >= hi-lo {
			panic(fmt.Sprintf("mpc: %s index %d out of block %d's range [0,%d)", what, i, b, hi-lo))
		}
		counts[lo+i]++
		total++
	})
	row := make([][]T, pDst)
	if total == 0 {
		return row
	}
	buf := make([]T, total)
	at := 0
	for d, c := range counts {
		if c > 0 {
			row[d] = buf[at : at : at+c]
			at += c
		}
	}
	scan(true, func(b, i int, x T) {
		d := lay.off[b] + i
		row[d] = append(row[d], x)
	})
	for d, c := range counts {
		if len(row[d]) != c {
			panic(fmt.Sprintf("mpc: %s emitted %d units for destination %d on the fill pass, %d on the count pass", what, len(row[d]), d, c))
		}
	}
	return row
}

// buildOutboxDests assembles one source's destination rows from a
// precomputed destination array: element src[j] goes to dests[j]. It keeps
// buildOutbox's layout — contiguous sub-slices of one backing buffer in
// ascending destination order, nil rows for empty destinations — but
// places elements in a single pass over the data, since the destinations
// are already materialized: count from the int array (which the CPU
// streams far faster than re-running a scan closure), carve, then write
// through per-destination cursors. Use it wherever the destination of
// every element is known up front (Route's memoized dests, the sort
// partition's bucket walk); keep buildOutbox for scans with variable
// fan-out.
//
// Out-of-range destinations panic with what naming the calling primitive.
// sc, when non-nil, provides the count vector from the worker's arena.
func buildOutboxDests[T any](sc *xrt.Scratch, pDst int, what string, dests []int, src []T) [][]T {
	if len(dests) != len(src) {
		panic(fmt.Sprintf("mpc: %s destination array has %d entries for %d elements", what, len(dests), len(src)))
	}
	var counts []int
	if sc != nil {
		counts = sc.Ints(pDst)
	} else {
		counts = make([]int, pDst)
	}
	for _, d := range dests {
		if d < 0 || d >= pDst {
			panic(fmt.Sprintf("mpc: %s destination %d out of range [0,%d)", what, d, pDst))
		}
		counts[d]++
	}
	row := make([][]T, pDst)
	if len(src) == 0 {
		return row
	}
	buf := make([]T, len(src))
	at := 0
	for d, c := range counts {
		if c > 0 {
			row[d] = buf[at : at+c : at+c]
			counts[d] = at // repurpose as the destination's write cursor
			at += c
		}
	}
	for j, d := range dests {
		buf[counts[d]] = src[j]
		counts[d]++
	}
	return row
}
