// Package db defines the instance type shared by every engine: a binding
// from the relation symbols (edge names) of a hypergraph query to annotated
// relations, plus structural validation and size accounting.
package db

import (
	"fmt"

	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/relation"
)

// Instance binds each edge name of a query to its relation.
type Instance[W any] map[string]*relation.Relation[W]

// Validate checks that inst provides exactly one relation per query edge
// and that each relation's schema carries the edge's attributes (in any
// order).
func Validate[W any](q *hypergraph.Query, inst Instance[W]) error {
	if len(inst) != len(q.Edges) {
		return fmt.Errorf("db: instance has %d relations, query has %d edges", len(inst), len(q.Edges))
	}
	for _, e := range q.Edges {
		r, ok := inst[e.Name]
		if !ok {
			return fmt.Errorf("db: no relation bound to edge %q", e.Name)
		}
		if r.Arity() != len(e.Attrs) {
			return fmt.Errorf("db: relation %q has arity %d, edge has %d attributes", e.Name, r.Arity(), len(e.Attrs))
		}
		for _, a := range e.Attrs {
			if !r.Has(a) {
				return fmt.Errorf("db: relation %q lacks attribute %q", e.Name, a)
			}
		}
	}
	return nil
}

// InputSize returns N = Σ_e |R_e|.
func InputSize[W any](inst Instance[W]) int {
	n := 0
	for _, r := range inst {
		n += r.Len()
	}
	return n
}

// Clone deep-copies the instance.
func Clone[W any](inst Instance[W]) Instance[W] {
	out := make(Instance[W], len(inst))
	for k, v := range inst {
		out[k] = v.Clone()
	}
	return out
}
