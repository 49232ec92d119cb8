package mpc

import (
	"context"
	"fmt"
	"sync/atomic"

	xrt "mpcjoin/internal/runtime"
)

// Exec is the scope of one MPC execution: the worker runtime its
// per-server work runs on and the context.Context that cancels it. Every
// Part carries the Exec that created it, and every primitive propagates
// the scope from its inputs to its outputs, so an execution's whole
// dataflow shares one scope without any process-global state — two
// concurrent executions with different worker counts or deadlines never
// interact. (The idiom mirrors dataflow systems where datasets carry
// their session: a Spark RDD knows its SparkContext.)
//
// Scope semantics:
//
//   - The runtime decides how many OS workers run per-server work. It
//     affects wall-clock time only; results and metered Stats are
//     bit-for-bit identical across runtimes (see internal/runtime).
//   - The context cancels the execution at round barriers: every metered
//     exchange and every runtime dispatch checks it before (and, shard-
//     granular, during) the barrier, so a cancelled execution stops
//     within one round instead of running to completion.
//
// Cancellation protocol: the mpc primitives return no errors — threading
// an error through every engine's round structure would triple the API
// for a condition that simply abandons the execution. Instead a primitive
// that observes a done context panics with an internal sentinel carrying
// ctx.Err(); the execution root (core.ExecuteContext) recovers it via
// CanceledError and returns the error. Algorithm code between the root
// and the primitives holds no resources that outlive the execution, so
// unwinding through it is safe. The sentinel never escapes a root that
// uses Recover/CanceledError; any other panic re-propagates unchanged.
//
// A nil *Exec is a valid scope everywhere one is accepted: the serial
// runtime, a never-cancelled context, and no tracer, fault plane or wire.
type Exec struct {
	rt  *xrt.Runtime
	ctx context.Context

	// tr, when non-nil, records one RoundTrace per metered exchange of
	// this execution (see trace.go). Nil — the default — is the zero-cost
	// off path: primitives pay a single nil check per round.
	tr *Tracer

	// fp, when non-nil, is the fault plane injecting deterministic
	// failures at this execution's exchange barriers (see fault.go). Nil
	// — the default — keeps the flawless-cluster fast path: one nil
	// check per round.
	fp *FaultPlane

	// wire, when non-nil, delegates this execution's exchange barriers to
	// a transport backend (see wire.go); wireSeq numbers its rounds. Nil
	// — the default — is the in-process path: one nil check per round.
	wire    Wire
	wireSeq *atomic.Int64
}

// NewExec returns an execution scope with the given context and worker
// count. workers follows the Options.Workers convention: 0 and 1 run
// serially (the default), n > 1 uses n OS workers, and negative selects
// GOMAXPROCS. A nil ctx means "never cancelled".
func NewExec(ctx context.Context, workers int) *Exec {
	var rt *xrt.Runtime
	switch {
	case workers == 0:
		rt = xrt.Serial()
	case workers < 0:
		rt = xrt.New(0)
	default:
		rt = xrt.New(workers)
	}
	return ExecOn(ctx, rt)
}

// ExecOn returns an execution scope running on an explicit runtime.
// A nil rt selects the serial runtime; a nil ctx means "never cancelled".
func ExecOn(ctx context.Context, rt *xrt.Runtime) *Exec {
	if rt == nil {
		rt = xrt.Serial()
	}
	return &Exec{rt: rt, ctx: ctx}
}

// WithTracer returns a scope identical to ex that records a RoundTrace
// per metered exchange into tr. Attach it before placing data — the traced
// scope is a distinct scope, and Parts from the two must not be mixed. A
// nil tr returns ex unchanged.
func (ex *Exec) WithTracer(tr *Tracer) *Exec {
	if tr == nil || ex == nil {
		return ex
	}
	cp := *ex
	cp.tr = tr
	return &cp
}

// Tracer returns the scope's tracer (nil when untraced).
func (ex *Exec) Tracer() *Tracer {
	if ex == nil {
		return nil
	}
	return ex.tr
}

// WithFaults returns a scope identical to ex whose exchange barriers run
// under the fault plane fp. Attach it before placing data, like a
// Tracer: Parts from the faulted and unfaulted scopes must not be mixed.
// A nil fp returns ex unchanged.
func (ex *Exec) WithFaults(fp *FaultPlane) *Exec {
	if fp == nil || ex == nil {
		return ex
	}
	cp := *ex
	cp.fp = fp
	return &cp
}

// Faults returns the scope's fault plane (nil when fault injection is
// off).
func (ex *Exec) Faults() *FaultPlane {
	if ex == nil {
		return nil
	}
	return ex.fp
}

// Context returns the scope's context (nil when never cancelled).
func (ex *Exec) Context() context.Context {
	if ex == nil {
		return nil
	}
	return ex.ctx
}

// Workers returns the scope's worker-pool size.
func (ex *Exec) Workers() int { return ex.runtime().Workers() }

// runtime resolves the scope's runtime; the nil scope resolves to the
// serial runtime.
func (ex *Exec) runtime() *xrt.Runtime {
	if ex == nil {
		return xrt.Serial()
	}
	return ex.rt
}

// canceled is the panic sentinel carrying an aborted execution's error
// out of the primitive that observed it (see the protocol above). Two
// conditions abort an execution mid-flight: a done context, and a round
// that exhausted its fault-retry budget (*FaultBudgetError) — both
// unwind through this sentinel and surface as ordinary errors at the
// root.
type canceled struct{ err error }

// CanceledError inspects a recovered panic value: if it is the mpc
// abort sentinel it returns the underlying error (a context error, or a
// *FaultBudgetError under fault injection) and true. Execution roots use
// it to convert the unwound panic back into an error.
func CanceledError(r any) (error, bool) {
	if c, ok := r.(canceled); ok {
		return c.err, true
	}
	return nil, false
}

// Recover converts an in-flight abort panic (cancellation, fault budget
// exhaustion) into an error; any other panic (including nil recovery)
// re-propagates or no-ops. Use it in a defer at an execution root:
//
//	defer mpc.Recover(&err)
func Recover(errp *error) {
	r := recover()
	if r == nil {
		return
	}
	if err, ok := CanceledError(r); ok {
		*errp = err
		return
	}
	panic(r)
}

// checkpoint panics with the cancellation sentinel when the scope's
// context is done. Primitives call it on entry to every round barrier.
func (ex *Exec) checkpoint() {
	if ex == nil || ex.ctx == nil {
		return
	}
	if err := ex.ctx.Err(); err != nil {
		panic(canceled{err})
	}
}

// ForEachShard dispatches fn(i) for i in [0, n) on the scope's runtime,
// checking cancellation before the dispatch and between shard claims.
// Algorithm packages use it for their per-server local phases; fn must
// confine writes to state owned by shard i (see xrt.Runtime.ForEachShard).
func (ex *Exec) ForEachShard(n int, fn func(i int)) {
	ex.checkpoint()
	if err := ex.runtime().ForEachShardCtx(ex.Context(), n, fn); err != nil {
		panic(canceled{err})
	}
}

// ForEachShardScratch is ForEachShard with a per-worker Scratch arena
// (see xrt.Runtime.ForEachShardScratch for the escape rules).
func (ex *Exec) ForEachShardScratch(n int, fn func(i int, sc *xrt.Scratch)) {
	ex.checkpoint()
	if err := ex.runtime().ForEachShardScratchCtx(ex.Context(), n, fn); err != nil {
		panic(canceled{err})
	}
}

// scope returns the Part's execution scope (possibly nil); primitives
// propagate it to every Part they derive.
func (pt Part[T]) scope() *Exec { return pt.ex }

// Scope returns the execution scope the Part belongs to, for algorithm
// code that needs to create fresh Parts (NewPartIn) or raw exchanges
// (ExchangeIn) inside the same execution. It may be nil; the *In
// constructors accept that.
func (pt Part[T]) Scope() *Exec { return pt.ex }

// mergeScope picks the non-nil scope when a primitive combines two Parts
// (MultiSearch, SemijoinKeys); both nil yields the nil scope. Mixing
// two different non-nil scopes is a caller bug — executions must not
// share data — and panics rather than silently picking one.
func mergeScope[X, Y any](a Part[X], b Part[Y]) *Exec {
	ax, bx := a.scope(), b.scope()
	switch {
	case ax == nil:
		return bx
	case bx == nil || ax == bx:
		return ax
	}
	panic(fmt.Sprintf("mpc: parts from two different executions combined (%p vs %p)", ax, bx))
}
