package mpcjoin

// options.go is the single home of Execute's functional options: every
// With* constructor, the combination rules between them, and the
// validation that turns a conflicting combination into an error instead
// of silently letting the last option win.
//
// Combination rules:
//
//   - Options are order-independent. Each With* records intent on an
//     internal builder; nothing is resolved until Execute, so WithFaults
//     before or after WithSeed derives the same fault-schedule seed, and
//     WithRetry before or after WithFaults produces the same retry budget.
//   - Repeating the same option overwrites its earlier value (last call
//     wins within one option).
//   - WithRetry tunes the fault plane and requires WithFaults.
//   - Out-of-domain arguments (WithServers(p < 1), an invalid FaultSpec)
//     fail Execute with a descriptive error rather than being clamped.
//
// All violations surface at Execute as errors wrapping ErrOptionConflict
// (conflicting pairs) or plain validation errors (bad arguments); the
// query is never run on a half-understood configuration.

import (
	"errors"
	"fmt"

	"mpcjoin/internal/core"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/planner"
	"mpcjoin/internal/transport"
)

// ErrOptionConflict is wrapped by the error Execute returns when two
// options contradict each other (for example WithRetry without
// WithFaults). Test with errors.Is.
var ErrOptionConflict = errors.New("mpcjoin: conflicting options")

// ErrFaultBudgetExceeded is wrapped by the error Execute returns when a
// fault-injected execution (WithFaults) had a round that stayed faulty
// past its retry budget. Test with errors.Is; errors.As against
// *FaultBudgetError exposes the round, primitive and fault kind.
var ErrFaultBudgetExceeded = mpc.ErrFaultBudgetExceeded

// FaultBudgetError details a fault-injected round that could not be
// recovered within its retry budget.
type FaultBudgetError = mpc.FaultBudgetError

// FaultSpec configures deterministic fault injection for WithFaults; the
// zero value injects nothing. See the field docs in internal/mpc.
type FaultSpec = mpc.FaultSpec

// FaultReport is the injection/detection/retry accounting of a
// fault-injected execution; read it from Result.Faults.
type FaultReport = mpc.FaultReport

// FaultEvent is one injected fault in FaultReport.Events.
type FaultEvent = mpc.FaultEvent

// Option configures Execute. Options are declarative and
// order-independent; conflicting combinations fail Execute with an error
// wrapping ErrOptionConflict (see the combination rules at the top of
// options.go).
type Option func(*optionSet)

// optionSet is the internal builder the With* constructors write to.
// It defers every cross-option check and derivation (fault-schedule seed,
// retry budget) to build time for order independence.
type optionSet struct {
	core core.Options

	faults *mpc.FaultSpec
	retry  *int

	// Iterated-driver knobs, consumed by the graph entry points
	// (BFS/SSSP/PageRank); plain Execute rejects them.
	maxIters *int
	tol      *float64
	damping  *float64

	errs []error
}

func (o *optionSet) fail(err error) { o.errs = append(o.errs, err) }

// build resolves the recorded options into a core.Options, applying the
// combination rules and returning the first violation.
func (o *optionSet) build() (core.Options, error) {
	if o.maxIters != nil {
		o.fail(fmt.Errorf("%w: WithMaxIters applies to the iterated graph entry points (BFS/SSSP/PageRank), not Execute", ErrOptionConflict))
	}
	if o.tol != nil {
		o.fail(fmt.Errorf("%w: WithTolerance applies to PageRank, not Execute", ErrOptionConflict))
	}
	if o.damping != nil {
		o.fail(fmt.Errorf("%w: WithDamping applies to PageRank, not Execute", ErrOptionConflict))
	}
	return o.buildCore()
}

// buildCore is build without the iterated-option rejection — the shared
// tail the graph entry points use after consuming those options.
func (o *optionSet) buildCore() (core.Options, error) {
	if o.retry != nil && o.faults == nil {
		o.fail(fmt.Errorf("%w: WithRetry tunes the fault plane and requires WithFaults", ErrOptionConflict))
	}
	if o.faults != nil {
		spec := *o.faults
		if spec.Seed == 0 {
			// Derived here, not at apply time, so the schedule seed is the
			// same whether WithFaults comes before or after WithSeed.
			spec.Seed = o.core.Seed + 1
		}
		if o.retry != nil {
			spec.MaxRetries = *o.retry
		}
		if err := spec.Validate(); err != nil {
			o.fail(fmt.Errorf("mpcjoin: WithFaults: %w", err))
		} else {
			o.core.Faults = mpc.NewFaultPlane(spec)
		}
	}
	if len(o.errs) > 0 {
		return core.Options{}, errors.Join(o.errs...)
	}
	return o.core, nil
}

// buildOptions applies opts to a fresh builder and resolves it.
func buildOptions(opts []Option) (core.Options, error) {
	var o optionSet
	for _, opt := range opts {
		opt(&o)
	}
	return o.build()
}

// iterParams is the resolved iterated-driver configuration of a graph
// entry point. Zero values select the kernel defaults.
type iterParams struct {
	maxIters int
	tol      float64
	damping  float64
}

// buildIterOptions resolves opts for a graph entry point: the iterated
// knobs land in iterParams (PageRank consumes all three; BFS/SSSP accept
// only WithMaxIters and reject the float-convergence knobs by name), and
// everything else resolves exactly as for Execute.
func buildIterOptions(opts []Option, pagerank bool) (core.Options, iterParams, error) {
	var o optionSet
	for _, opt := range opts {
		opt(&o)
	}
	var ip iterParams
	if o.maxIters != nil {
		ip.maxIters = *o.maxIters
	}
	if pagerank {
		if o.tol != nil {
			ip.tol = *o.tol
		}
		if o.damping != nil {
			ip.damping = *o.damping
		}
	} else {
		if o.tol != nil {
			o.fail(fmt.Errorf("%w: WithTolerance applies to PageRank's float convergence, not BFS/SSSP", ErrOptionConflict))
		}
		if o.damping != nil {
			o.fail(fmt.Errorf("%w: WithDamping applies to PageRank, not BFS/SSSP", ErrOptionConflict))
		}
	}
	o.maxIters, o.tol, o.damping = nil, nil, nil
	co, err := o.buildCore()
	return co, ip, err
}

// WithServers sets the simulated cluster size p (default 16). p must be
// at least 1.
func WithServers(p int) Option {
	return func(o *optionSet) {
		if p < 1 {
			o.fail(fmt.Errorf("mpcjoin: WithServers(%d): cluster size must be at least 1", p))
			return
		}
		o.core.Servers = p
	}
}

// Engine names an execution engine for WithEngine. The zero value is
// EngineAuto. Besides the constants below, every name Result.Engine can
// report ("line", "star", "star-like", "matmul", "matmul-linear",
// "matmul-worstcase", "matmul-outsens") is a valid Engine.
type Engine string

const (
	// EngineAuto lets the cost-based planner pick the min-predicted-load
	// engine per instance (the default; see Result.Plan for the decision).
	EngineAuto Engine = planner.EngineAuto
	// EngineYannakakis forces the distributed Yannakakis baseline —
	// Table 1's comparison column.
	EngineYannakakis Engine = planner.EngineYannakakis
	// EngineTree forces the general §7 tree engine regardless of class
	// (it subsumes all the specialized classes via its twig dispatch).
	EngineTree Engine = planner.EngineTree
)

// WithEngine selects the execution engine: EngineAuto (the cost-based
// planner, the default) or a specific engine, which must be legal for the
// query's class — Execute fails otherwise. It is the only engine-selecting
// option.
func WithEngine(e Engine) Option {
	return func(o *optionSet) {
		name, err := planner.ParseEngine(string(e))
		if err != nil {
			o.fail(fmt.Errorf("mpcjoin: WithEngine: %w", err))
			return
		}
		o.core.Engine = name
	}
}

// WithSeed fixes the randomness seed: the engines' hash partitioning, the
// per-group estimate inside the output-sensitive matrix multiplication, and
// the fault schedule of a WithFaults spec with Seed 0. The §2.2 OUT
// estimate and the planner's sketches use fixed hash functions, so plans do
// not depend on it. Executions are fully reproducible for a given seed, and
// its order relative to WithFaults does not matter: the derived seed is
// resolved when Execute builds the configuration.
func WithSeed(seed uint64) Option {
	return func(o *optionSet) { o.core.Seed = seed }
}

// WithWorkers runs the simulator's per-server work on n concurrent OS
// workers instead of serially; n <= 0 selects one worker per CPU
// (GOMAXPROCS). The choice affects wall-clock time only: results and
// metered Stats are bit-for-bit identical for every worker count, because
// per-server work is independent within a round and load accounting is
// aggregated after each round's barrier.
func WithWorkers(n int) Option {
	return func(o *optionSet) {
		if n <= 0 {
			n = -1 // core: negative means GOMAXPROCS
		}
		o.core.Workers = n
	}
}

// WithTrace records a per-round load timeline of the execution and
// returns it in Result.Trace. Tracing never changes results or Stats —
// a traced run is bit-identical to an untraced one — and costs nothing
// when off.
func WithTrace() Option {
	return func(o *optionSet) { o.core.Tracer = mpc.NewTracer() }
}

// WithFaults runs the execution under a deterministic fault plane: the
// spec's seeded schedule injects straggler delays, server crashes and
// message drops at the simulated exchange barriers, and each faulty
// round is detected and retried from its pre-round checkpoint. A run
// whose faults are absorbed by the retry budget returns Rows and Stats
// bit-identical to a fault-free run, plus the injection accounting in
// Result.Faults; a round faulty past its budget fails Execute with an
// error wrapping ErrFaultBudgetExceeded. A spec with Seed 0 derives its
// schedule seed from WithSeed.
func WithFaults(spec FaultSpec) Option {
	return func(o *optionSet) { s := spec; o.faults = &s }
}

// WithRetry bounds the per-round retry budget of the fault plane: max
// retries per faulty round (0 keeps the plane's default, negative
// disables retry so the first detected fault fails the run). Requires
// WithFaults; overrides the spec's MaxRetries field.
func WithRetry(max int) Option {
	return func(o *optionSet) { m := max; o.retry = &m }
}

// WithMaxIters bounds the iterated graph drivers' round budget (BFS,
// SSSP, PageRank): at most n multiply-and-step iterations, after which
// the result reports Converged=false with the state reached — budget
// exhaustion is an answer, not an error. n must be at least 1; the
// default budgets are per-driver (BFS/PageRank use a fixed cap, SSSP
// uses the Bellman-Ford |V|+1 guarantee). Conflicts with Execute, which
// runs no iterated driver.
func WithMaxIters(n int) Option {
	return func(o *optionSet) {
		if n < 1 {
			o.fail(fmt.Errorf("mpcjoin: WithMaxIters(%d): budget must be at least 1", n))
			return
		}
		m := n
		o.maxIters = &m
	}
}

// WithTolerance sets PageRank's convergence threshold: the loop stops
// when the L∞ residual between successive rank vectors drops to tol
// (default 1e-9). tol must be positive. Conflicts with Execute and with
// the exact-fixpoint drivers (BFS, SSSP).
func WithTolerance(tol float64) Option {
	return func(o *optionSet) {
		if tol <= 0 {
			o.fail(fmt.Errorf("mpcjoin: WithTolerance(%v): tolerance must be positive", tol))
			return
		}
		t := tol
		o.tol = &t
	}
}

// WithDamping sets PageRank's damping factor (default 0.85), the
// probability of following an edge rather than teleporting. Must lie
// strictly inside (0, 1). Conflicts with Execute, BFS and SSSP.
func WithDamping(d float64) Option {
	return func(o *optionSet) {
		if d <= 0 || d >= 1 {
			o.fail(fmt.Errorf("mpcjoin: WithDamping(%v): damping must lie in (0, 1)", d))
			return
		}
		v := d
		o.damping = &v
	}
}

// ExchangeTransport selects the backend an execution's exchange barriers
// run on; construct one with InProcTransport or TCPTransport and pass it
// to WithTransport. The zero value selects the in-process backend.
type ExchangeTransport struct {
	t transport.Transport
}

// Name reports the backend ("inproc", "tcp").
func (t ExchangeTransport) Name() string {
	if t.t == nil {
		return "inproc"
	}
	return t.t.Name()
}

// InProcTransport returns the in-process exchange backend — the default:
// rounds assemble inboxes inline with zero transport overhead.
func InProcTransport() ExchangeTransport { return ExchangeTransport{} }

// TCPTransport returns the TCP exchange backend over the given shuffle
// peer addresses (host:port of mpcd processes started with -peer). Every
// exchange round of the execution ships its outbox frames to the peers,
// which assemble the per-destination inboxes and stream them back; the
// address order fixes destination ownership, so all coordinators of a
// cluster must pass the same list. Results, Stats, traces and fault
// reports are bit-for-bit identical to the in-process backend.
func TCPTransport(peers ...string) ExchangeTransport {
	return ExchangeTransport{t: transport.TCP(peers...)}
}

// WithTransport runs the execution's exchange barriers on the given
// backend. The default (and InProcTransport) is the in-process path;
// TCPTransport delegates every round to a cluster of shuffle peers over
// real sockets. The choice never changes results or metered Stats, only
// where the bytes of each round physically travel.
func WithTransport(t ExchangeTransport) Option {
	return func(o *optionSet) {
		if t.t == nil {
			o.core.Transport = nil
			return
		}
		o.core.Transport = t.t
	}
}
