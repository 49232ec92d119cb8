// Package mpcjoin computes join-aggregate queries over annotated relations
// on a simulated Massively Parallel Computation (MPC) cluster, implementing
// the algorithms of Hu and Yi, "Parallel Algorithms for Sparse Matrix
// Multiplication and Join-Aggregate Queries" (PODS 2020).
//
// A query is a tree of binary relations with an arbitrary set of output
// (GROUP BY) attributes; every tuple carries an annotation from a
// commutative semiring, annotations of joined tuples are ⊗-multiplied, and
// annotations of join results in the same output group are ⊕-added. Sparse
// matrix multiplication is the special case ∑_B R1(A,B) ⋈ R2(B,C).
//
// The engine classifies each query (matrix multiplication, line, star,
// star-like, general tree, or free-connex) and runs the matching algorithm
// from the paper; the distributed Yannakakis baseline is available for
// comparison. Execution is simulated on p servers with every message
// metered, and results report the model's cost measures — rounds and load
// (maximum per-server incoming communication per round) — alongside the
// answer.
//
// Quick start:
//
//	q := mpcjoin.NewQuery().
//		Relation("R1", "A", "B").
//		Relation("R2", "B", "C").
//		GroupBy("A", "C")
//
//	data := mpcjoin.Instance[int64]{
//		"R1": mpcjoin.NewRelation[int64]("A", "B"),
//		"R2": mpcjoin.NewRelation[int64]("B", "C"),
//	}
//	data["R1"].Add(2, 0, 7) // a=0, b=7, annotation 2
//	data["R2"].Add(3, 7, 1) // b=7, c=1, annotation 3
//
//	res, err := mpcjoin.Execute[int64](mpcjoin.Ints(), q, data,
//		mpcjoin.WithServers(16))
//	// res.Rows == [{Vals:[0 1] Annot:6}], res.Stats.MaxLoad == …
package mpcjoin

import (
	"context"
	"fmt"
	"sort"

	"mpcjoin/internal/core"
	"mpcjoin/internal/db"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/planner"
	"mpcjoin/internal/relation"
	"mpcjoin/internal/semiring"
)

// Value is a domain value; map your native domains onto int64.
type Value = relation.Value

// Semiring is the annotation algebra interface; see the semiring
// constructors in this package for ready-made instances.
type Semiring[W any] = semiring.Semiring[W]

// Stats is the metered MPC cost of an execution: Rounds, MaxLoad (the
// model's load L — maximum units received by any server in any round),
// TotalComm, and SumLoad (per-round bottleneck loads summed over rounds).
type Stats = mpc.Stats

// RoundTrace is one communication round of a traced execution: the
// primitive that drove it and the distribution of per-server received
// load. Request a trace with WithTrace; read it from Result.Trace.
type RoundTrace = mpc.RoundTrace

// Plan is the explainable outcome of planning one execution: the query's
// class, the cost-ranked candidate engines with their instantiated
// Table 1 formulas, the chosen engine and why, the pre-pass size
// predictions, and predicted vs. measured load. Read it from Result.Plan.
type Plan = planner.Plan

// PlanCandidate is one engine the planner considered, with its predicted
// load and the formula it was priced by.
type PlanCandidate = planner.Candidate

// ---------------------------------------------------------------------------
// Query construction
// ---------------------------------------------------------------------------

// Query is a join-aggregate query under construction. Build with NewQuery,
// then chain Relation and GroupBy. Errors surface at Execute.
type Query struct {
	q   *hypergraph.Query
	err error
}

// NewQuery returns an empty query.
func NewQuery() *Query {
	return &Query{q: &hypergraph.Query{}}
}

// Relation declares a relation symbol over one or two attributes.
func (q *Query) Relation(name string, attrs ...string) *Query {
	if q.err != nil {
		return q
	}
	if len(attrs) < 1 || len(attrs) > 2 {
		q.err = fmt.Errorf("mpcjoin: relation %q must have 1 or 2 attributes, got %d", name, len(attrs))
		return q
	}
	as := make([]hypergraph.Attr, len(attrs))
	for i, a := range attrs {
		as[i] = hypergraph.Attr(a)
	}
	q.q.Edges = append(q.q.Edges, hypergraph.Edge{Name: name, Attrs: as})
	return q
}

// GroupBy declares the output attributes y; non-output attributes are
// ⊕-aggregated away. Calling GroupBy with no attributes (or never) yields
// a single scalar aggregate.
func (q *Query) GroupBy(attrs ...string) *Query {
	if q.err != nil {
		return q
	}
	q.q.Output = nil
	for _, a := range attrs {
		q.q.Output = append(q.q.Output, hypergraph.Attr(a))
	}
	return q
}

// Validate checks the query is a well-formed tree query.
func (q *Query) Validate() error {
	if q.err != nil {
		return q.err
	}
	return q.q.Validate()
}

// Class returns the query's structural class as a string
// ("matmul", "line", "star", "star-like", "tree", "free-connex").
func (q *Query) Class() (string, error) {
	if err := q.Validate(); err != nil {
		return "", err
	}
	return q.q.Classify().String(), nil
}

// ---------------------------------------------------------------------------
// Data
// ---------------------------------------------------------------------------

// Relation is an annotated relation: a multiset of tuples, each carrying a
// semiring annotation.
type Relation[W any] struct {
	rel *relation.Relation[W]
}

// NewRelation returns an empty relation with the given attribute schema.
func NewRelation[W any](attrs ...string) *Relation[W] {
	as := make([]relation.Attr, len(attrs))
	for i, a := range attrs {
		as[i] = relation.Attr(a)
	}
	return &Relation[W]{rel: relation.New[W](as...)}
}

// Add appends a tuple with the given annotation.
func (r *Relation[W]) Add(annot W, vals ...Value) *Relation[W] {
	r.rel.Append(annot, vals...)
	return r
}

// Len returns the number of tuples.
func (r *Relation[W]) Len() int { return r.rel.Len() }

// Attrs returns the schema.
func (r *Relation[W]) Attrs() []string {
	out := make([]string, r.rel.Arity())
	for i, a := range r.rel.Schema() {
		out[i] = string(a)
	}
	return out
}

// Instance binds relation symbols to relations.
type Instance[W any] map[string]*Relation[W]

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

// Row is one output tuple.
type Row[W any] struct {
	// Vals holds the output attribute values, in Result.Attrs order.
	Vals []Value
	// Annot is the ⊕-aggregated annotation of the group.
	Annot W
}

// Result is a query answer plus its metered cost and plan information.
type Result[W any] struct {
	// Attrs is the output schema.
	Attrs []string
	// Rows are the output tuples (sorted lexicographically by Vals).
	Rows []Row[W]
	// Stats is the metered MPC cost.
	Stats Stats
	// Class is the query's structural class.
	Class string
	// Engine is the algorithm that ran ("matmul", "matmul-linear",
	// "matmul-worstcase", "matmul-outsens", "line", "star", "star-like",
	// "tree" or "yannakakis"). Under the default cost-based planning it
	// is Plan.Chosen; a forced engine (WithEngine) short-circuits the
	// planner.
	Engine string
	// Plan explains how the engine was chosen: the ranked candidates with
	// predicted loads, the pre-pass OUT/join-cardinality predictions, and
	// predicted vs. measured load. For forced engines it records the
	// forced choice with an empty candidate list.
	Plan Plan
	// Trace is the per-round load timeline, present only when the
	// execution ran with WithTrace. Its rounds count physical exchanges
	// in execution order, so len(Trace) can exceed Stats.Rounds (which
	// merges parallel sub-plans).
	Trace []RoundTrace
	// Faults is the fault-injection accounting, present only when the
	// execution ran with WithFaults. Rows and Stats of a fault-injected
	// run whose faults were absorbed by the retry budget are bit-identical
	// to a fault-free run; only this report reveals what was injected,
	// detected and retried.
	Faults *FaultReport
}

// Execute runs the query over the instance under the semiring and returns
// the answer with its metered MPC cost.
func Execute[W any](sr Semiring[W], q *Query, data Instance[W], opts ...Option) (*Result[W], error) {
	return ExecuteContext(context.Background(), sr, q, data, opts...)
}

// ExecuteContext is Execute with cooperative cancellation: when ctx is
// cancelled (deadline exceeded, client gone, server shutting down), the
// execution stops at the next simulated MPC round barrier and ctx's error
// is returned. A cancelled execution never returns a partial Result.
func ExecuteContext[W any](ctx context.Context, sr Semiring[W], q *Query, data Instance[W], opts ...Option) (*Result[W], error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	// Resolve the options as a set: conflicts (WithRetry without
	// WithFaults, …) fail here, before any work runs. See options.go for
	// the combination rules.
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}

	inst := make(db.Instance[W], len(data))
	for name, r := range data {
		inst[name] = r.rel
	}
	// The executed plan (chosen engine, candidates, predictions) is read
	// back through the PlanOut observer; it never changes rows or Stats.
	var plan planner.Plan
	o.PlanOut = &plan
	rel, st, err := core.ExecuteContext(ctx, sr, q.q, inst, o)
	if err != nil {
		return nil, err
	}
	rel.SortRows()

	res := &Result[W]{
		Stats:  st,
		Class:  plan.Class,
		Engine: plan.Chosen,
		Plan:   plan,
	}
	if o.Tracer != nil {
		res.Trace = o.Tracer.Rounds()
	}
	if o.Faults != nil {
		rep := o.Faults.Report()
		res.Faults = &rep
	}
	for _, a := range rel.Schema() {
		res.Attrs = append(res.Attrs, string(a))
	}
	// Materialize the result in one backing buffer (every row has the
	// output schema's width) rather than one allocation per row.
	w := len(res.Attrs)
	buf := make([]Value, len(rel.Rows)*w)
	res.Rows = make([]Row[W], len(rel.Rows))
	for i, row := range rel.Rows {
		var vals []Value // width 0 (full aggregation) keeps Vals nil
		if w > 0 {
			vals = buf[i*w : (i+1)*w : (i+1)*w]
			copy(vals, row.Vals)
		}
		res.Rows[i] = Row[W]{Vals: vals, Annot: row.W}
	}
	return res, nil
}

// Lookup returns the annotation of the output tuple with the given values
// and whether it exists.
func (r *Result[W]) Lookup(vals ...Value) (W, bool) {
	i := sort.Search(len(r.Rows), func(i int) bool {
		return !lessVals(r.Rows[i].Vals, vals)
	})
	if i < len(r.Rows) && equalVals(r.Rows[i].Vals, vals) {
		return r.Rows[i].Annot, true
	}
	var zero W
	return zero, false
}

func lessVals(a, b []Value) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func equalVals(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
