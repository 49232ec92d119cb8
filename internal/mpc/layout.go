package mpc

import (
	"fmt"

	xrt "mpcjoin/internal/runtime"
)

// Layout is the block layout of the paper's allocation step, "allocate
// p_i servers to subquery i" with Σp_i = O(p) — the two-way join's grids
// and bins, the §3.1 and §3.2 matmul blocks, HyperCube's grid. Block b
// spans Size(b) consecutive virtual servers, the blocks side by side in
// the order they were added; the zero Layout has none. It is O(p) state
// every server recomputes from what a coordinator step agreed, and
// RouteBlocks routes rows onto it.
type Layout struct {
	off []int // off[b] is block b's first server; off[len-1] is the total
}

// Add appends a block of size servers (0 is allowed: an empty block
// receives nothing) and returns its index.
func (l *Layout) Add(size int) int {
	if size < 0 {
		panic(fmt.Sprintf("mpc: Layout block size %d", size))
	}
	if l.off == nil {
		l.off = []int{0}
	}
	l.off = append(l.off, l.off[len(l.off)-1]+size)
	return len(l.off) - 2
}

// Size returns block b's server count.
func (l Layout) Size(b int) int { return l.off[b+1] - l.off[b] }

// Total returns the servers all blocks span.
func (l Layout) Total() int {
	if l.off == nil {
		return 0
	}
	return l.off[len(l.off)-1]
}

// RouteBlocks is the routing round of an allocation step: one exchange
// from nSrc source servers onto lay's blocks. source is called once per
// source server on the scope's runtime, with the worker's scratch arena,
// and returns that server's scan — nil when it sends nothing. The scan
// runs twice, as in a counted outbox build (buildOutbox): emit(b, i, x)
// sends x to server i of block b, and an i outside [0, Size(b)) panics
// naming op. A scan may memoize its decisions in sc before returning.
//
// op labels the round. The result spans lay.Total() servers — one server
// for an empty layout — block after block. Cost: one round.
func RouteBlocks[T any](ex *Exec, lay Layout, op string, nSrc int, source func(src int, sc *xrt.Scratch) func(fill bool, emit func(b, i int, x T))) (Part[T], Stats) {
	out := make([][][]T, nSrc)
	ex.ForEachShardScratch(nSrc, func(src int, sc *xrt.Scratch) {
		if scan := source(src, sc); scan != nil {
			out[src] = buildOutbox(sc, lay, op, scan)
		}
	})
	TraceOp(ex, op)
	return ExchangeToIn(ex, max(lay.Total(), 1), out)
}

// SliceBlocks returns the sub-Part of pt — a RouteBlocks result or a
// per-server map of one — on blocks [lo, hi) of lay; shards are shared,
// not copied.
func SliceBlocks[T any](pt Part[T], lay Layout, lo, hi int) Part[T] {
	from, to := lay.off[lo], lay.off[hi]
	if to > pt.P() {
		panic(fmt.Sprintf("mpc: SliceBlocks [%d,%d) out of range [0,%d)", from, to, pt.P()))
	}
	return Part[T]{Shards: pt.Shards[from:to], ex: pt.ex}
}
