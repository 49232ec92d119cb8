// Package hypergraph models the class of queries studied in Hu–Yi PODS'20:
// join-aggregate queries whose hypergraph is a tree with binary (or, before
// preprocessing, unary) hyperedges, with an arbitrary set of output
// attributes.
//
// The package is purely structural: it validates queries, classifies them
// (free-connex, matrix multiplication, line, star, star-like, general
// tree), and computes the decompositions the paper's algorithms are built
// from — the §7 preprocessing reduction, the twig decomposition at non-leaf
// output attributes (Figure 2), and the skeleton of a twig (Figure 3).
// Executing queries over data is the job of the algorithm packages.
package hypergraph

import (
	"fmt"
	"slices"
	"strings"

	"mpcjoin/internal/relation"
)

// Attr names a query attribute (a vertex of the hypergraph).
type Attr = relation.Attr

// Edge is one relation symbol of the query: a hyperedge over one or two
// attributes.
type Edge struct {
	// Name identifies the relation (must be unique within a query).
	Name string
	// Attrs lists the edge's attributes: length 1 or 2, distinct.
	Attrs []Attr
}

// IsUnary reports whether the edge has a single attribute.
func (e Edge) IsUnary() bool { return len(e.Attrs) == 1 }

// Other returns the endpoint of a binary edge different from a.
func (e Edge) Other(a Attr) Attr {
	if e.IsUnary() {
		panic(fmt.Sprintf("hypergraph: Other on unary edge %s", e.Name))
	}
	if e.Attrs[0] == a {
		return e.Attrs[1]
	}
	if e.Attrs[1] == a {
		return e.Attrs[0]
	}
	panic(fmt.Sprintf("hypergraph: %q not an endpoint of edge %s%v", a, e.Name, e.Attrs))
}

// Has reports whether the edge contains attribute a.
func (e Edge) Has(a Attr) bool {
	for _, x := range e.Attrs {
		if x == a {
			return true
		}
	}
	return false
}

// Query is a join-aggregate query: a set of edges plus the output
// attributes y. Non-output attributes are aggregated away with ⊕.
type Query struct {
	Edges  []Edge
	Output []Attr
}

// NewQuery is a convenience constructor.
func NewQuery(edges []Edge, output ...Attr) *Query {
	return &Query{Edges: edges, Output: output}
}

// Bin builds a binary edge.
func Bin(name string, a, b Attr) Edge { return Edge{Name: name, Attrs: []Attr{a, b}} }

// Un builds a unary edge.
func Un(name string, a Attr) Edge { return Edge{Name: name, Attrs: []Attr{a}} }

// Attrs returns all attributes, in first-appearance order.
func (q *Query) Attrs() []Attr {
	seen := make(map[Attr]bool)
	var out []Attr
	for _, e := range q.Edges {
		for _, a := range e.Attrs {
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	return out
}

// IsOutput reports whether a is an output attribute.
func (q *Query) IsOutput(a Attr) bool {
	for _, o := range q.Output {
		if o == a {
			return true
		}
	}
	return false
}

// EdgesAt returns the indices of edges containing a.
func (q *Query) EdgesAt(a Attr) []int {
	var out []int
	for i, e := range q.Edges {
		if e.Has(a) {
			out = append(out, i)
		}
	}
	return out
}

// Degree returns the number of edges containing a (counting unary edges).
func (q *Query) Degree(a Attr) int { return len(q.EdgesAt(a)) }

// AggregatedDegree returns the largest number of edges meeting at one
// non-output attribute: the widest join the query aggregates away, and an
// upper bound on the arm count of every star or star-like subquery the
// tree engine's reductions can produce (they only ever remove edges).
func (q *Query) AggregatedDegree() int {
	widest := 0
	for _, a := range q.Attrs() {
		if !q.IsOutput(a) {
			widest = max(widest, q.Degree(a))
		}
	}
	return widest
}

// Validate checks that the query is well-formed and its hypergraph is a
// tree: edges have 1 or 2 distinct attributes, unique names, no two binary
// edges connect the same pair, the binary edges form a connected acyclic
// graph spanning all attributes, and every output attribute occurs in some
// edge.
func (q *Query) Validate() error {
	if len(q.Edges) == 0 {
		return fmt.Errorf("hypergraph: query has no edges")
	}
	names := make(map[string]bool)
	pairs := make(map[[2]Attr]bool)
	for _, e := range q.Edges {
		if names[e.Name] {
			return fmt.Errorf("hypergraph: duplicate edge name %q", e.Name)
		}
		names[e.Name] = true
		switch len(e.Attrs) {
		case 1:
		case 2:
			if e.Attrs[0] == e.Attrs[1] {
				return fmt.Errorf("hypergraph: edge %q is a self-loop on %q", e.Name, e.Attrs[0])
			}
			k := [2]Attr{e.Attrs[0], e.Attrs[1]}
			if k[0] > k[1] {
				k[0], k[1] = k[1], k[0]
			}
			if pairs[k] {
				return fmt.Errorf("hypergraph: parallel edges between %q and %q", k[0], k[1])
			}
			pairs[k] = true
		default:
			return fmt.Errorf("hypergraph: edge %q has arity %d; only 1 or 2 supported", e.Name, len(e.Attrs))
		}
	}

	attrs := q.Attrs()
	// The binary edges must form a spanning tree of the attribute set:
	// connected and |binary edges| = |attrs| − 1. Attributes that appear
	// only in unary edges are permitted only if they are the sole attribute
	// (single-vertex query).
	var nBin int
	adj := make(map[Attr][]Attr)
	for _, e := range q.Edges {
		if !e.IsUnary() {
			nBin++
			adj[e.Attrs[0]] = append(adj[e.Attrs[0]], e.Attrs[1])
			adj[e.Attrs[1]] = append(adj[e.Attrs[1]], e.Attrs[0])
		}
	}
	if nBin == 0 {
		if len(attrs) != 1 {
			return fmt.Errorf("hypergraph: %d attributes but no binary edges", len(attrs))
		}
	} else {
		if nBin != len(attrs)-1 {
			return fmt.Errorf("hypergraph: %d binary edges over %d attributes is not a tree", nBin, len(attrs))
		}
		// Connectivity check by BFS from attrs[0].
		seen := map[Attr]bool{attrs[0]: true}
		queue := []Attr{attrs[0]}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range adj[v] {
				if !seen[u] {
					seen[u] = true
					queue = append(queue, u)
				}
			}
		}
		if len(seen) != len(attrs) {
			return fmt.Errorf("hypergraph: query graph is disconnected")
		}
	}

	seenOut := make(map[Attr]bool)
	all := make(map[Attr]bool, len(attrs))
	for _, a := range attrs {
		all[a] = true
	}
	for _, o := range q.Output {
		if !all[o] {
			return fmt.Errorf("hypergraph: output attribute %q not in query", o)
		}
		if seenOut[o] {
			return fmt.Errorf("hypergraph: duplicate output attribute %q", o)
		}
		seenOut[o] = true
	}
	return nil
}

// JoinTree roots the query's join tree at edge 0 and returns the edges in
// BFS order together with each edge's parent index (-1 for the root). Two
// edges are adjacent in the join tree when they share an attribute; for
// valid tree queries the BFS parents satisfy the running-intersection
// property, so semijoin reducers and Yannakakis folds over this order are
// correct.
func (q *Query) JoinTree() (order []int, parent []int) {
	n := len(q.Edges)
	parent = make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	seen := make([]bool, n)
	order = []int{0}
	seen[0] = true
	for at := 0; at < len(order); at++ {
		cur := order[at]
		for i, e := range q.Edges {
			if seen[i] {
				continue
			}
			if edgesShareAttr(q.Edges[cur], e) {
				seen[i] = true
				parent[i] = cur
				order = append(order, i)
			}
		}
	}
	if len(order) != n {
		panic("hypergraph: JoinTree on disconnected query")
	}
	return order, parent
}

// JoinOrder returns edge indices such that each edge after the first
// shares an attribute with the union of the previous ones (possible for
// any connected query), avoiding accidental cross products.
func (q *Query) JoinOrder() []int {
	used := make([]bool, len(q.Edges))
	attrs := make(map[Attr]bool)
	order := []int{0}
	used[0] = true
	for _, a := range q.Edges[0].Attrs {
		attrs[a] = true
	}
	for len(order) < len(q.Edges) {
		found := false
		for i, e := range q.Edges {
			if used[i] {
				continue
			}
			touches := false
			for _, a := range e.Attrs {
				if attrs[a] {
					touches = true
					break
				}
			}
			if touches {
				used[i] = true
				order = append(order, i)
				for _, a := range e.Attrs {
					attrs[a] = true
				}
				found = true
				break
			}
		}
		if !found {
			panic("hypergraph: JoinOrder on disconnected query")
		}
	}
	return order
}

func edgesShareAttr(a, b Edge) bool {
	for _, x := range a.Attrs {
		for _, y := range b.Attrs {
			if x == y {
				return true
			}
		}
	}
	return false
}

// SharedAttrs returns the attributes common to two edges.
func SharedAttrs(a, b Edge) []Attr {
	var out []Attr
	for _, x := range a.Attrs {
		for _, y := range b.Attrs {
			if x == y {
				out = append(out, x)
			}
		}
	}
	return out
}

// vertexAdj returns the vertex adjacency of the binary edges: for each
// attribute, the (neighbor, edge index) pairs.
type halfEdge struct {
	to   Attr
	edge int
}

func (q *Query) vertexAdj() map[Attr][]halfEdge {
	adj := make(map[Attr][]halfEdge)
	for i, e := range q.Edges {
		if e.IsUnary() {
			if _, ok := adj[e.Attrs[0]]; !ok {
				adj[e.Attrs[0]] = nil
			}
			continue
		}
		adj[e.Attrs[0]] = append(adj[e.Attrs[0]], halfEdge{to: e.Attrs[1], edge: i})
		adj[e.Attrs[1]] = append(adj[e.Attrs[1]], halfEdge{to: e.Attrs[0], edge: i})
	}
	return adj
}

// IsFreeConnex reports whether the output attributes form a connected
// subtree of the query tree (the footnote-1 definition for tree queries).
// The empty output set counts as free-connex: a full ⊕-aggregate is
// computable bottom-up with linear intermediate results.
func (q *Query) IsFreeConnex() bool {
	if len(q.Output) == 0 {
		return true
	}
	out := make(map[Attr]bool, len(q.Output))
	for _, a := range q.Output {
		out[a] = true
	}
	adj := q.vertexAdj()
	// BFS within the induced subgraph on output attributes.
	start := q.Output[0]
	seen := map[Attr]bool{start: true}
	queue := []Attr{start}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, h := range adj[v] {
			if out[h.to] && !seen[h.to] {
				seen[h.to] = true
				queue = append(queue, h.to)
			}
		}
	}
	return len(seen) == len(q.Output)
}

// Class labels the structural class of a query, from most to least special.
type Class int

const (
	// ClassFreeConnex: output attributes form a connected subtree;
	// the distributed Yannakakis algorithm already achieves O((N+OUT)/p).
	ClassFreeConnex Class = iota
	// ClassMatMul: ∑_B R1(A,B) ⋈ R2(B,C) with y = {A, C} — §3.
	ClassMatMul
	// ClassLine: a path with the two endpoints as the only outputs — §4.
	ClassLine
	// ClassStar: n ≥ 3 relations sharing a non-output center — §5.
	ClassStar
	// ClassStarLike: line queries joined at a shared non-output center,
	// with all leaves output and all internal attributes non-output — §6.
	ClassStarLike
	// ClassTree: everything else in the tree class — §7.
	ClassTree
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassFreeConnex:
		return "free-connex"
	case ClassMatMul:
		return "matmul"
	case ClassLine:
		return "line"
	case ClassStar:
		return "star"
	case ClassStarLike:
		return "star-like"
	case ClassTree:
		return "tree"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Classify returns the most specific class of a valid query. Queries with
// unary edges are ClassTree (the §7 preprocessing removes them first)
// unless free-connex.
func (q *Query) Classify() Class {
	if q.IsFreeConnex() {
		return ClassFreeConnex
	}
	for _, e := range q.Edges {
		if e.IsUnary() {
			return ClassTree
		}
	}
	if v, ok := q.LineView(); ok {
		if len(v.EdgeOrder) == 2 {
			return ClassMatMul
		}
		return ClassLine
	}
	if _, ok := q.StarView(); ok {
		return ClassStar
	}
	if _, ok := q.StarLikeView(); ok {
		return ClassStarLike
	}
	return ClassTree
}

// LineView describes a line query ∑ R1(A1,A2) ⋈ … ⋈ Rn(An,An+1) with
// y = {A1, An+1}.
type LineView struct {
	// Vertices is the path A1, …, A_{n+1}.
	Vertices []Attr
	// EdgeOrder[i] is the index in Query.Edges of the relation on
	// (Vertices[i], Vertices[i+1]).
	EdgeOrder []int
}

// LineView recognizes a line query: the graph is a path of ≥ 2 edges, the
// two endpoints are exactly the output attributes, and the interior is
// non-output. The orientation is normalized so Vertices[0] is the smaller
// attribute name (deterministic across runs).
func (q *Query) LineView() (*LineView, bool) {
	adj := q.vertexAdj()
	var leaves []Attr
	for a, hs := range adj {
		switch len(hs) {
		case 0:
			return nil, false
		case 1:
			leaves = append(leaves, a)
		case 2:
		default:
			return nil, false
		}
	}
	if len(leaves) != 2 || len(q.Edges) < 2 {
		return nil, false
	}
	slices.Sort(leaves)
	// Outputs must be exactly the two leaves.
	if len(q.Output) != 2 {
		return nil, false
	}
	outs := append([]Attr(nil), q.Output...)
	slices.Sort(outs)
	if outs[0] != leaves[0] || outs[1] != leaves[1] {
		return nil, false
	}
	// Walk the path from leaves[0].
	v := &LineView{Vertices: []Attr{leaves[0]}}
	cur, prevEdge := leaves[0], -1
	for {
		var next *halfEdge
		for i := range adj[cur] {
			if adj[cur][i].edge != prevEdge {
				next = &adj[cur][i]
				break
			}
		}
		if next == nil {
			break
		}
		v.Vertices = append(v.Vertices, next.to)
		v.EdgeOrder = append(v.EdgeOrder, next.edge)
		cur, prevEdge = next.to, next.edge
	}
	if len(v.EdgeOrder) != len(q.Edges) {
		return nil, false
	}
	return v, true
}

// StarView describes a star query ∑_B R1(A1,B) ⋈ … ⋈ Rn(An,B) with
// y = {A1, …, An}.
type StarView struct {
	Center Attr
	// Leaves[i] is the output endpoint of Query.Edges[ArmEdge[i]].
	Leaves  []Attr
	ArmEdge []int
}

// StarView recognizes a star query with n ≥ 2 arms: all edges share one
// non-output center, and the outputs are exactly the leaves.
func (q *Query) StarView() (*StarView, bool) {
	if len(q.Edges) < 2 {
		return nil, false
	}
	// Candidate center: intersection of the first two edges.
	var center Attr
	found := false
	for _, a := range q.Edges[0].Attrs {
		if q.Edges[1].Has(a) {
			center, found = a, true
			break
		}
	}
	if !found || q.IsOutput(center) {
		return nil, false
	}
	v := &StarView{Center: center}
	for i, e := range q.Edges {
		if !e.Has(center) || e.IsUnary() {
			return nil, false
		}
		leaf := e.Other(center)
		if !q.IsOutput(leaf) {
			return nil, false
		}
		v.Leaves = append(v.Leaves, leaf)
		v.ArmEdge = append(v.ArmEdge, i)
	}
	if len(q.Output) != len(q.Edges) {
		return nil, false
	}
	return v, true
}

// Arm is one arm of a star-like query: a path from the center B (excluded)
// out to the output leaf. Edges[0] is incident to the center; the vertex
// sequence runs Inner[0] (adjacent to B) … Leaf.
type Arm struct {
	// Leaf is the arm's output endpoint A_i.
	Leaf Attr
	// Inner are the non-output attributes C_ih, …, C_i1 strictly between
	// the center and the leaf, ordered from the center outward.
	Inner []Attr
	// Edges are the arm's edge indices ordered from the center outward.
	Edges []int
}

// StarLikeView describes a star-like query (§6): n ≥ 2 line-query arms
// sharing a non-output center B; leaves are exactly the outputs.
type StarLikeView struct {
	Center Attr
	Arms   []Arm
}

// StarLikeView recognizes a star-like query. The center is the unique
// attribute of degree ≥ 3; pure paths (degree ≤ 2 everywhere) are line or
// matmul queries and are not matched here.
func (q *Query) StarLikeView() (*StarLikeView, bool) {
	adj := q.vertexAdj()
	var center Attr
	nCenters := 0
	for a, hs := range adj {
		if len(hs) >= 3 {
			center = a
			nCenters++
		}
	}
	if nCenters != 1 || q.IsOutput(center) {
		return nil, false
	}
	v := &StarLikeView{Center: center}
	nOut := 0
	for _, h := range adj[center] {
		arm := Arm{Edges: []int{h.edge}}
		cur, prevEdge := h.to, h.edge
		for {
			if len(adj[cur]) > 2 {
				return nil, false // second branch point
			}
			var next *halfEdge
			for i := range adj[cur] {
				if adj[cur][i].edge != prevEdge {
					next = &adj[cur][i]
					break
				}
			}
			if next == nil {
				break
			}
			if q.IsOutput(cur) {
				return nil, false // internal output attribute
			}
			arm.Inner = append(arm.Inner, cur)
			arm.Edges = append(arm.Edges, next.edge)
			cur, prevEdge = next.to, next.edge
		}
		if !q.IsOutput(cur) {
			return nil, false // leaf must be output
		}
		arm.Leaf = cur
		nOut++
		v.Arms = append(v.Arms, arm)
	}
	if nOut != len(q.Output) {
		return nil, false
	}
	// Deterministic arm order: by leaf name.
	slices.SortFunc(v.Arms, func(a, b Arm) int { return strings.Compare(string(a.Leaf), string(b.Leaf)) })
	return v, true
}
