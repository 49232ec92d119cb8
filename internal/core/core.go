// Package core is the query engine tying the paper's algorithms together:
// it classifies a tree join-aggregate query (hypergraph.Classify) and
// dispatches to the §3–§7 algorithm matching its class, or to the
// distributed Yannakakis baseline on request. It is the implementation
// behind the module's public API.
package core

import (
	"context"
	"fmt"

	"mpcjoin/internal/db"
	"mpcjoin/internal/dist"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/planner"
	"mpcjoin/internal/relation"
	"mpcjoin/internal/semiring"
	"mpcjoin/internal/transport"
)

// Options configures Execute.
type Options struct {
	// Servers is p, the simulated cluster size (default 16).
	Servers int
	// Seed drives hash partitioning (reproducible runs).
	Seed uint64
	// Workers sizes the concurrent execution runtime the simulator's
	// per-server work runs on. 0 and 1 run serially (the default); n > 1
	// uses n OS workers; negative selects GOMAXPROCS. Results and metered
	// Stats are identical for every setting — Workers changes wall-clock
	// time only. The runtime is scoped to the execution (not process
	// global), so concurrent Execute calls with different Workers values
	// never interact.
	Workers int
	// Tracer, when non-nil, records a per-round load timeline of the
	// execution (see mpc.RoundTrace). Read the timeline with
	// Tracer.Rounds() after the call returns. nil (the default) keeps the
	// zero-cost path: tracing adds no work and no allocations when off.
	Tracer *mpc.Tracer
	// Faults, when non-nil, injects the plane's deterministic fault
	// schedule at the execution's exchange barriers, with round-level
	// checkpoint/retry recovery (see mpc.FaultPlane). Read the injection
	// accounting with Faults.Report() after the call returns; a round
	// still faulty past its retry budget fails the execution with a
	// *mpc.FaultBudgetError (errors.Is mpc.ErrFaultBudgetExceeded). nil
	// (the default) keeps the flawless-cluster fast path.
	Faults *mpc.FaultPlane
	// Engine selects the engine by its name in the engine table
	// (planner.Engines; user-facing spellings go through
	// planner.ParseEngine). Empty — the default — lets the cost-based
	// planner choose: an estimate-only pre-pass predicts OUT and the join
	// cardinality, each legal candidate's Table 1 formula is instantiated
	// with the instance's sizes, and the min-predicted-load engine runs. A
	// name forces that engine, which must be legal for the query's class:
	// the boundcheck sweep forces each candidate this way, and the serving
	// tier runs every admitted query forced to the engine its own
	// PlanInstance call resolved.
	Engine string
	// PlanOut, when non-nil, receives the executed plan: chosen engine,
	// ranked candidates with predicted loads, the pre-pass predictions,
	// and the measured MaxLoad. Like Tracer it is a pure observer — it
	// never changes rows or Stats and is excluded from the result
	// fingerprint. It is filled for forced engines too (with a trivial
	// "forced" plan), so callers have one place to read the engine that
	// ran.
	PlanOut *planner.Plan
	// Transport selects the exchange backend the execution's round
	// barriers run on: nil or transport.InProc() is the in-process path
	// (the default, zero overhead); transport.TCP(peers...) delegates
	// every exchange to a cluster of shuffle peers. Results, Stats,
	// traces and fault reports are bit-for-bit identical across
	// backends. The wire is connected when the execution starts and
	// closed when it returns.
	Transport transport.Transport
}

func (o Options) withDefaults() Options {
	if o.Servers == 0 {
		o.Servers = 16
	}
	return o
}

// Execute evaluates the query over the instance on a simulated p-server
// MPC cluster and returns the (gathered) result relation together with the
// metered communication cost.
func Execute[W any](sr semiring.Semiring[W], q *hypergraph.Query, inst db.Instance[W], opts Options) (*relation.Relation[W], mpc.Stats, error) {
	return ExecuteContext(context.Background(), sr, q, inst, opts)
}

// ExecuteContext is Execute with cooperative cancellation: when ctx is
// cancelled (deadline, client disconnect, shutdown), the execution stops at
// the next MPC round barrier and returns ctx's error. Cancellation never
// yields a partial result — the returned relation is nil whenever err is
// non-nil.
func ExecuteContext[W any](ctx context.Context, sr semiring.Semiring[W], q *hypergraph.Query, inst db.Instance[W], opts Options) (*relation.Relation[W], mpc.Stats, error) {
	res, st, err := ExecuteDistributedContext(ctx, sr, q, inst, opts)
	if err != nil {
		return nil, mpc.Stats{}, err
	}
	return dist.ToRelation(res), st, nil
}

// NewScope builds the per-execution scope the Options describe: a runtime
// sized by Workers bound to the caller's context, with the tracer, fault
// plane and exchange transport attached. It is the shared execution root of
// every engine family (the join-aggregate dispatch below, internal/spmv's
// iterated kernels): the returned Exec travels inside every Part placed
// under it, so the whole dataflow of one execution — and nothing outside
// it — runs on this runtime and stops at the next round barrier once ctx
// is done. The returned release func closes the transport wire (if one was
// connected) and must be deferred by the caller; callers should also defer
// mpc.Recover to convert the primitives' cancellation unwind into an error.
func (o Options) NewScope(ctx context.Context) (*mpc.Exec, func(), error) {
	o = o.withDefaults()
	ex := mpc.NewExec(ctx, o.Workers)
	if o.Tracer != nil {
		ex = ex.WithTracer(o.Tracer)
	}
	if o.Faults != nil {
		ex = ex.WithFaults(o.Faults)
	}
	release := func() {}
	if o.Transport != nil {
		// The wire is per-execution: connect here, close when the
		// execution returns (success, error or unwind alike).
		w, werr := o.Transport.Connect(ctx)
		if werr != nil {
			return nil, nil, fmt.Errorf("connecting %s transport: %w", o.Transport.Name(), werr)
		}
		if w != nil {
			release = func() { w.Close() }
			ex = ex.WithWire(w)
		}
	}
	return ex, release, nil
}

// prepare is what happens before anything is placed: the query and the
// instance are validated, and a forced engine is checked against the engine
// table, yielding its trivial plan.
func prepare[W any](q *hypergraph.Query, inst db.Instance[W], engine string) (class hypergraph.Class, forced planner.Plan, err error) {
	if err = q.Validate(); err != nil {
		return
	}
	if err = db.Validate(q, inst); err != nil {
		return
	}
	class = q.Classify()
	if engine != "" {
		forced, err = planner.Forced(q, engine)
	}
	return
}

// ExecuteDistributedContext is ExecuteContext but leaves the result
// distributed. It is the execution root: it builds the per-execution scope
// (worker runtime + context) that every Part of this execution carries, and
// recovers the mpc package's internal cancellation panic back into an
// error, so callers see cancellation as an ordinary context error.
func ExecuteDistributedContext[W any](ctx context.Context, sr semiring.Semiring[W], q *hypergraph.Query, inst db.Instance[W], opts Options) (res dist.Rel[W], st mpc.Stats, err error) {
	opts = opts.withDefaults()
	class, plan, err := prepare(q, inst, opts.Engine)
	if err != nil {
		return dist.Rel[W]{}, mpc.Stats{}, err
	}

	ex, release, err := opts.NewScope(ctx)
	if err != nil {
		return dist.Rel[W]{}, mpc.Stats{}, err
	}
	defer release()
	// Primitives report cancellation by unwinding with an internal sentinel
	// (they return no errors); convert it back into a returned error here.
	defer mpc.Recover(&err)

	rels := make(map[string]dist.Rel[W], len(q.Edges))
	for _, e := range q.Edges {
		rels[e.Name] = dist.FromRelationIn(ex, inst[e.Name], opts.Servers)
	}

	// With no engine forced, the estimate-only pre-pass and the cost model
	// choose one. The pre-pass is metered into plan.EstimateStats, not st,
	// so an auto run's Stats are bit-identical to the chosen engine forced
	// directly.
	if opts.Engine == "" {
		plan = planAuto(ex, q, class, rels, opts)
	}

	run, ok := runners[W]()[plan.Chosen]
	if !ok {
		return dist.Rel[W]{}, mpc.Stats{}, fmt.Errorf("core: engine %q has no runner", plan.Chosen)
	}
	res, st, err = run(sr, q, rels, opts)
	if err != nil {
		return dist.Rel[W]{}, mpc.Stats{}, err
	}
	plan.MeasuredLoad = st.MaxLoad
	if opts.PlanOut != nil {
		*opts.PlanOut = plan
	}
	// Engines may emit columns in their internal order; present them in
	// the query's declared output order (a local, zero-cost permutation).
	if len(q.Output) > 0 {
		res = dist.Reorder(res, q.Output)
	}
	return res, st, nil
}
