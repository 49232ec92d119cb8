// Package refengine computes join-aggregate queries sequentially and is
// the ground truth every MPC algorithm in this module is tested against.
//
// Two independent evaluators are provided: BruteForce materializes the full
// join Q(R) and aggregates it (exponential in the worst case; fine for test
// instances), and Yannakakis runs the classical 1981 algorithm adapted to
// join-aggregate queries (§1.2 of the paper) — dangling-tuple removal by a
// full semijoin reducer, then bottom-up join-and-aggregate. The two are
// cross-checked against each other in this package's own tests, so a bug
// would have to strike both identically to corrupt the ground truth.
package refengine

import (
	"fmt"

	"mpcjoin/internal/db"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/relation"
	"mpcjoin/internal/semiring"
)

// BruteForce evaluates the query by joining all relations (in a
// connectivity-preserving order) and ⊕-projecting onto the outputs.
func BruteForce[W any](sr semiring.Semiring[W], q *hypergraph.Query, inst db.Instance[W]) (*relation.Relation[W], error) {
	if err := db.Validate(q, inst); err != nil {
		return nil, err
	}
	order := q.JoinOrder()
	acc := inst[q.Edges[order[0]].Name].Clone()
	for _, i := range order[1:] {
		acc = relation.Join(sr, acc, inst[q.Edges[i].Name])
	}
	return relation.ProjectAgg(sr, acc, q.Output...), nil
}

// RemoveDangling returns a copy of the instance with every tuple that
// cannot participate in a full join result removed, via the classical full
// reducer: semijoins leaf-to-root, then root-to-leaf.
func RemoveDangling[W any](q *hypergraph.Query, inst db.Instance[W]) db.Instance[W] {
	out := db.Clone(inst)
	order, parent := reducerOrder(q)
	// Leaf-to-root: semijoin each parent with its child.
	for i := len(order) - 1; i >= 1; i-- {
		e := order[i]
		out[q.Edges[parent[e]].Name] = relation.Semijoin(out[q.Edges[parent[e]].Name], out[q.Edges[e].Name])
	}
	// Root-to-leaf.
	for _, e := range order[1:] {
		out[q.Edges[e].Name] = relation.Semijoin(out[q.Edges[e].Name], out[q.Edges[parent[e]].Name])
	}
	return out
}

// reducerOrder is the query's rooted join tree (see hypergraph.JoinTree).
func reducerOrder(q *hypergraph.Query) (order []int, parent []int) {
	return q.JoinTree()
}

// Yannakakis evaluates the query with the classical sequential Yannakakis
// algorithm adapted to aggregations (§1.2): after dangling removal, it
// repeatedly folds a leaf relation into its parent, replacing the parent
// with π̂_{y ∪ anc} (R_leaf ⋈ R_parent), until one relation remains, then
// projects onto the outputs.
func Yannakakis[W any](sr semiring.Semiring[W], q *hypergraph.Query, inst db.Instance[W]) (*relation.Relation[W], error) {
	if err := db.Validate(q, inst); err != nil {
		return nil, err
	}
	reduced := RemoveDangling(q, inst)
	order, parent := reducerOrder(q)

	// Materialized relation per edge, folded bottom-up (reverse BFS).
	rels := make([]*relation.Relation[W], len(q.Edges))
	for i, e := range q.Edges {
		rels[i] = reduced[e.Name]
	}
	out := make(map[hypergraph.Attr]bool)
	for _, a := range q.Output {
		out[a] = true
	}

	for i := len(order) - 1; i >= 1; i-- {
		leaf := order[i]
		par := parent[leaf]
		joined := relation.Join(sr, rels[leaf], rels[par])
		// Keep output attributes plus every attribute that still occurs in
		// unmerged relations (the "ancestor" attributes) — dropping others
		// aggregates them away as early as possible.
		keep := keepAttrs(q, order[:i], joined.Schema(), out, par, rels)
		rels[par] = relation.ProjectAgg(sr, joined, keep...)
	}
	root := rels[order[0]]
	return relation.ProjectAgg(sr, root, q.Output...), nil
}

// keepAttrs returns joined-schema attributes that are outputs or appear in
// any still-unmerged relation.
func keepAttrs[W any](q *hypergraph.Query, remaining []int, schema []hypergraph.Attr, out map[hypergraph.Attr]bool, self int, rels []*relation.Relation[W]) []hypergraph.Attr {
	needed := make(map[hypergraph.Attr]bool)
	for _, i := range remaining {
		if i == self {
			continue
		}
		for _, a := range rels[i].Schema() {
			needed[a] = true
		}
	}
	var keep []hypergraph.Attr
	for _, a := range schema {
		if out[a] || needed[a] {
			keep = append(keep, a)
		}
	}
	return keep
}

// CountOutput evaluates OUT = |π_y Q(R)| exactly (by brute force), for test
// and workload calibration purposes.
func CountOutput[W any](sr semiring.Semiring[W], q *hypergraph.Query, inst db.Instance[W]) (int, error) {
	res, err := BruteForce(sr, q, inst)
	if err != nil {
		return 0, err
	}
	return res.Len(), nil
}

// MaxIntermediateJoin reports max_e,e' |R_e ⋈ R_e'| over the Yannakakis
// fold order after dangling removal — the quantity J that governs the
// distributed Yannakakis load (§1.4). Used by experiments to relate
// measured loads to the paper's bounds.
func MaxIntermediateJoin[W any](sr semiring.Semiring[W], q *hypergraph.Query, inst db.Instance[W]) (int, error) {
	if err := db.Validate(q, inst); err != nil {
		return 0, err
	}
	reduced := RemoveDangling(q, inst)
	order, parent := reducerOrder(q)
	rels := make([]*relation.Relation[W], len(q.Edges))
	for i, e := range q.Edges {
		rels[i] = reduced[e.Name]
	}
	out := make(map[hypergraph.Attr]bool)
	for _, a := range q.Output {
		out[a] = true
	}
	maxJ := 0
	for i := len(order) - 1; i >= 1; i-- {
		leaf := order[i]
		par := parent[leaf]
		joined := relation.Join(sr, rels[leaf], rels[par])
		if joined.Len() > maxJ {
			maxJ = joined.Len()
		}
		keep := keepAttrs(q, order[:i], joined.Schema(), out, par, rels)
		rels[par] = relation.ProjectAgg(sr, joined, keep...)
	}
	return maxJ, nil
}

// String renders a query for error messages.
func String(q *hypergraph.Query) string {
	return fmt.Sprintf("edges=%v output=%v", q.Edges, q.Output)
}
