// Package hypercube implements the HyperCube (a.k.a. Shares) algorithm —
// the worst-case optimal single-round MPC algorithm for FULL conjunctive
// queries [Afrati–Ullman; Beame–Koutris–Suciu; §1.4 of Hu–Yi PODS'20].
//
// The p servers are arranged as a grid with one dimension per attribute:
// attribute x receives a share p_x with Π_x p_x ≤ p, and a tuple of
// relation R_e is replicated to every server whose coordinates agree with
// the tuple's hashed values on e's attributes. Every potential join result
// then meets at exactly one server, which emits it locally.
//
// Hu–Yi §1.4 discuss this algorithm as the alternative route to
// join-aggregate queries: compute the full join worst-case optimally, then
// aggregate. Their observation — "the aggregation step will become the
// bottleneck with a load of O(OUT_f/p)" — is exactly what the ALT-fulljoin
// experiment measures against this implementation.
package hypercube

import (
	"fmt"
	"math"

	"mpcjoin/internal/dist"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/kmv"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/relation"
	xrt "mpcjoin/internal/runtime"
	"mpcjoin/internal/semiring"
)

// Shares is a share assignment: one dimension size per attribute, in
// Query.Attrs() order, with product ≤ p.
type Shares struct {
	Attrs []hypergraph.Attr
	Dims  []int
}

// P returns the number of grid servers (the product of the dimensions).
func (s Shares) P() int {
	p := 1
	for _, d := range s.Dims {
		p *= d
	}
	return p
}

// String implements fmt.Stringer.
func (s Shares) String() string {
	out := ""
	for i, a := range s.Attrs {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", a, s.Dims[i])
	}
	return out
}

// OptimalShares picks the integer share vector (product ≤ p) minimizing
// the predicted per-server input Σ_e N_e / Π_{x∈e} p_x, by exhaustive
// search — queries have a constant number of attributes, so the search
// space is tiny. sizes maps edge names to |R_e|.
func OptimalShares(q *hypergraph.Query, sizes map[string]int, p int) Shares {
	attrs := q.Attrs()
	best := Shares{Attrs: attrs, Dims: ones(len(attrs))}
	bestCost := math.Inf(1)
	dims := ones(len(attrs))
	var rec func(i, prod int)
	rec = func(i, prod int) {
		if i == len(attrs) {
			cost := 0.0
			for _, e := range q.Edges {
				den := 1.0
				for _, a := range e.Attrs {
					den *= float64(dims[idxOf(attrs, a)])
				}
				cost += float64(sizes[e.Name]) / den
			}
			if cost < bestCost {
				bestCost = cost
				best = Shares{Attrs: attrs, Dims: append([]int(nil), dims...)}
			}
			return
		}
		for d := 1; prod*d <= p; d++ {
			dims[i] = d
			rec(i+1, prod*d)
		}
		dims[i] = 1
	}
	rec(0, 1)
	return best
}

// FullJoin computes the full join of the tree query (every attribute is
// an output) in a single data round with the HyperCube grid. The result
// stays where it is produced; each join result is emitted at exactly one
// server, so no deduplication is needed. Load: the worst-case optimal
// O(N/p^{1/ρ*}) per server for the chosen shares, plus the all-reduce
// rounds that size the shares.
func FullJoin[W any](sr semiring.Semiring[W], q *hypergraph.Query, rels map[string]dist.Rel[W], seed uint64) (dist.Rel[W], mpc.Stats) {
	p := dist.AnyRel(rels).P()
	ex := dist.AnyRel(rels).Part.Scope()

	// Learn the relation sizes (one all-reduce each).
	sizes := make(map[string]int, len(q.Edges))
	var st mpc.Stats
	for _, e := range q.Edges {
		n, s := mpc.TotalCount(rels[e.Name].Part)
		sizes[e.Name] = int(n)
		st = mpc.Seq(st, s)
	}
	shares := OptimalShares(q, sizes, p)
	grid := shares.P()

	// Mixed-radix coordinates: coordOf(attr value assignments) → server.
	attrs := shares.Attrs
	radix := shares.Dims

	// Route every tuple to all grid cells agreeing with its hashed values:
	// the grid is one block of the layout. Within a source the emission
	// order is edge-major, then row order.
	type hcRow struct {
		edge int
		row  relation.Row[W]
	}
	var lay mpc.Layout
	cube := lay.Add(grid)
	edgeCols := make([][]int, len(q.Edges))
	for ei, e := range q.Edges {
		edgeCols[ei] = rels[e.Name].Cols(e.Attrs...)
	}
	routed, s := mpc.RouteBlocks(ex, lay, "hypercube.grid", p, func(src int, _ *xrt.Scratch) func(bool, func(int, int, hcRow)) {
		// coords[d] is the row's coordinate on dimension d, -1 where the
		// row's edge leaves d free.
		coords := make([]int, len(radix))
		return func(_ bool, emit func(int, int, hcRow)) {
			for ei, e := range q.Edges {
				for _, row := range rels[e.Name].Part.Shards[src] {
					for d := range coords {
						coords[d] = -1
					}
					for i, c := range edgeCols[ei] {
						ai := idxOf(attrs, e.Attrs[i])
						coords[ai] = int(kmv.Hash64(uint64(row.Vals[c]), seed+uint64(ai)) % uint64(radix[ai]))
					}
					forEachCell(radix, coords, func(cell int) {
						emit(cube, cell, hcRow{edge: ei, row: row})
					})
				}
			}
		}
	})
	st = mpc.Seq(st, s)

	// Local full join per cell.
	order := q.JoinOrder()
	outSchema := make([]dist.Attr, len(attrs))
	copy(outSchema, attrs)
	result := mpc.MapShards(routed, func(_ int, shard []hcRow) []relation.Row[W] {
		parts := make([]*relation.Relation[W], len(q.Edges))
		for ei, e := range q.Edges {
			parts[ei] = relation.New[W](e.Attrs...)
		}
		for _, hr := range shard {
			parts[hr.edge].AppendRow(hr.row)
		}
		acc := parts[order[0]]
		for _, ei := range order[1:] {
			acc = relation.Join(sr, acc, parts[ei])
		}
		return relation.Reorder(acc, outSchema).Rows
	})
	return dist.Rel[W]{Schema: outSchema, Part: result}, st
}

// JoinAggregate is the §1.4 alternative for join-aggregate queries:
// HyperCube full join, then a distributed ⊕-aggregation onto the output
// attributes. The aggregation shuffles OUT_f rows — the bottleneck Hu–Yi
// identify.
func JoinAggregate[W any](sr semiring.Semiring[W], q *hypergraph.Query, rels map[string]dist.Rel[W], seed uint64) (dist.Rel[W], mpc.Stats) {
	live, st := dist.RemoveDangling(q, rels)
	full, s := FullJoin(sr, q, live, seed)
	st = mpc.Seq(st, s)
	agg, s2 := dist.ProjectAgg(sr, full, toAttrs(q.Output)...)
	return agg, mpc.Seq(st, s2)
}

// forEachCell enumerates, in ascending order, all grid cells whose
// coordinates agree with coords on every dimension where it is not -1,
// calling f with the mixed-radix cell id.
func forEachCell(radix, coords []int, f func(cell int)) {
	var rec func(i, acc int)
	rec = func(i, acc int) {
		if i == len(radix) {
			f(acc)
			return
		}
		if v := coords[i]; v >= 0 {
			rec(i+1, acc*radix[i]+v)
			return
		}
		for v := 0; v < radix[i]; v++ {
			rec(i+1, acc*radix[i]+v)
		}
	}
	rec(0, 0)
}

func idxOf(attrs []hypergraph.Attr, a hypergraph.Attr) int {
	for i, x := range attrs {
		if x == a {
			return i
		}
	}
	panic(fmt.Sprintf("hypercube: attribute %q not in query", a))
}

func ones(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

func toAttrs(as []hypergraph.Attr) []dist.Attr {
	out := make([]dist.Attr, len(as))
	copy(out, as)
	return out
}
