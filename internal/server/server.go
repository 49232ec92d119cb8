// Package server implements mpcd, the long-lived join-aggregate query
// service over the simulated MPC engine. Datasets are registered once and
// held in memory; queries then reference them by name and run concurrently,
// each on its own execution scope (per-query worker runtime and
// context) — the engine-side guarantee that makes a multi-tenant service
// possible without process-global runtime state.
//
// The service owns the cross-cutting concerns the library leaves to its
// caller:
//
//   - Admission control: a per-tenant weighted-fair queue bounds the total
//     OS parallelism of concurrently executing queries, with bounded
//     per-tenant wait queues and load shedding beyond them (HTTP 429). A
//     flooding tenant cannot starve a quiet one.
//   - Result caching and coalescing: the engine's determinism (same
//     dataset versions + canonical options + semiring ⇒ bit-identical
//     rows, Stats and trace) makes results perfectly cacheable; a bounded
//     LRU serves repeats without executing, and concurrent identical
//     queries coalesce onto one shared execution.
//   - Snapshot reads: the dataset registry is copy-on-write, so a
//     registration never blocks in-flight queries and every query pins the
//     dataset versions it started on.
//   - End-to-end cancellation: per-request deadlines and client
//     disconnects flow through context into the engine, which stops at the
//     next simulated round barrier; cancelled work never produces a
//     partial response. A coalesced waiter's cancellation leaves the
//     shared execution running for the remaining waiters.
//   - Observability: /metrics exposes in-flight/queued/completed/cancelled
//     counts, per-engine/per-tenant breakdowns, cache hit/miss/eviction
//     counters, and the cumulative metered MPC cost of everything the
//     service has executed; an optional structured access log emits one
//     record per query.
//
// HTTP surface:
//
//	GET  /healthz      — liveness; 503 while draining
//	GET  /metrics      — MetricsSnapshot JSON
//	POST /v1/datasets  — register a dataset (rows inline or generated)
//	GET  /v1/datasets  — list registered dataset names
//	POST /v2/query     — run a join-aggregate or graph query
//	POST /v2/plan      — dry-run the cost-based planner, no execution
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"mpcjoin/internal/core"
	"mpcjoin/internal/db"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/planner"
	"mpcjoin/internal/relation"
	"mpcjoin/internal/semiring"
	"mpcjoin/internal/serve"
	"mpcjoin/internal/spmv"
	"mpcjoin/internal/transport"
)

// Config sizes the service.
type Config struct {
	// Capacity is the admission capacity in worker units — the total OS
	// parallelism concurrently executing queries may hold. Defaults to
	// GOMAXPROCS.
	Capacity int64
	// MaxQueue bounds the admission wait queue; requests beyond it are
	// shed with HTTP 429. Defaults to 64.
	MaxQueue int
	// TenantQueue bounds each tenant's share of the wait queue; beyond it
	// that tenant's requests are shed with 429 while other tenants still
	// queue. 0 means MaxQueue (only the global bound applies).
	TenantQueue int
	// TenantWeights sets per-tenant fair-dequeue shares; tenants not
	// listed get weight 1.
	TenantWeights map[string]int64
	// CacheEntries bounds the result cache (entry count). 0 means the
	// default (256); negative disables result caching and request
	// coalescing entirely.
	CacheEntries int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (mpcd's
	// -pprof flag). Off by default: the profiling surface is for
	// operators, not for the query API's clients.
	EnablePprof bool
	// Transport, when non-nil, runs every query's exchange barriers on
	// the given backend (mpcd cluster mode: transport.TCP over the
	// -peers list). nil keeps the in-process path. Results and metered
	// Stats are identical either way; each query execution connects its
	// own wire, so concurrent queries multiplex over the peer tier
	// independently.
	Transport transport.Transport
	// AccessLog, when non-nil, receives one AccessEntry per query
	// request (mpcd's -log-format json). Called synchronously at the end
	// of each request; keep it fast.
	AccessLog func(AccessEntry)
	// BaseContext is the root context of shared (coalesced) executions,
	// which must outlive any single waiter. Defaults to
	// context.Background(); the daemon passes its process context so a
	// forced drain also cancels shared executions.
	BaseContext context.Context
}

// Server is the query service. Construct with New; serve via Handler.
type Server struct {
	cfg      Config
	reg      *Registry
	fair     *serve.FairQueue
	cache    *serve.Cache[*QueryResponse]
	plans    *serve.Cache[*planner.Plan]
	flight   serve.Flight[*QueryResponse]
	met      *Metrics
	mux      *http.ServeMux
	baseCtx  context.Context
	cacheOn  bool
	draining atomic.Bool
}

// defaultCacheEntries bounds the result cache when Config.CacheEntries
// is zero.
const defaultCacheEntries = 256

// New returns a ready-to-serve Server.
func New(cfg Config) *Server {
	if cfg.Capacity <= 0 {
		cfg.Capacity = int64(runtime.GOMAXPROCS(0))
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 64
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = defaultCacheEntries
	}
	if cfg.BaseContext == nil {
		cfg.BaseContext = context.Background()
	}
	entries := cfg.CacheEntries
	if entries < 1 {
		entries = 1 // cache disabled; keep the struct non-nil for stats
	}
	s := &Server{
		cfg: cfg,
		reg: NewRegistry(),
		fair: serve.NewFairQueue(serve.FairConfig{
			Capacity:    cfg.Capacity,
			MaxQueue:    cfg.MaxQueue,
			TenantQueue: cfg.TenantQueue,
			Weights:     cfg.TenantWeights,
		}),
		cache:   serve.NewCache[*QueryResponse](entries),
		plans:   serve.NewCache[*planner.Plan](entries),
		met:     NewMetrics(),
		baseCtx: cfg.BaseContext,
		cacheOn: cfg.CacheEntries > 0,
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/datasets", s.handleRegisterDataset)
	s.mux.HandleFunc("GET /v1/datasets", s.handleListDatasets)
	s.mux.HandleFunc("POST /v2/query", s.serveQuery)
	s.mux.HandleFunc("POST /v2/plan", s.handlePlanV2)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the dataset store (tests and embedding callers).
func (s *Server) Registry() *Registry { return s.reg }

// Metrics exposes the counters (tests and embedding callers).
func (s *Server) Metrics() *Metrics { return s.met }

// CacheStats exposes the result-cache counters (tests and embedding
// callers).
func (s *Server) CacheStats() serve.CacheStats { return s.cache.Stats() }

// SetDraining flips drain mode: while draining, /healthz reports 503 and
// new queries and registrations are shed with 503, while in-flight queries
// run to completion (callers pair this with http.Server.Shutdown, which
// waits for them).
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports drain mode.
func (s *Server) Draining() bool { return s.draining.Load() }

// errorBody is the error response shape of the dataset endpoints; the
// query endpoints answer with the typed envelope (writeQueryError).
type errorBody struct {
	Error string `json:"error"`
}

// clientError marks an error as caused by the request itself (bad schema,
// dangling dataset reference, invalid semiring): the client must change
// the request, so the handler answers 4xx and counts failed_client.
// Anything not wrapped — an engine failure on a well-formed request — is
// an internal error: 5xx and failed_internal.
type clientError struct{ err error }

func (e *clientError) Error() string { return e.err.Error() }
func (e *clientError) Unwrap() error { return e.err }

func isClientError(err error) bool {
	var ce *clientError
	return errors.As(err, &ce)
}

// ErrQueueFull is returned by the fair admission queue when the bounded
// wait queue is at capacity: the server is saturated and the handler sheds
// the request (429) rather than let the queue grow without bound.
var ErrQueueFull = serve.ErrQueueFull

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.met.Snapshot()
	snap.Datasets = s.reg.Len()
	snap.DatasetVersion = s.reg.Version()
	snap.AdmitInUse = s.fair.InUse()
	snap.AdmitCap = s.fair.Capacity()
	snap.AdmitQueued = s.fair.Queued()
	snap.Draining = s.Draining()
	snap.Cache = s.cache.Stats()
	queuedBy := s.fair.QueuedByTenant()
	asInt64 := make(map[string]int64, len(queuedBy))
	for tenant, n := range queuedBy {
		asInt64[tenant] = int64(n)
	}
	snap.TenantQueued = sortedCounts(asInt64)
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.met.WritePrometheus(w, snap)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// DatasetResponse acknowledges a registration.
type DatasetResponse struct {
	Name string `json:"name"`
	Rows int    `json:"rows"`
	// Version is the registry version this registration published;
	// queries report the version they ran against, so clients can tell
	// whether a result reflects their latest data.
	Version uint64 `json:"version,omitempty"`
}

func (s *Server) handleRegisterDataset(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	req, err := DecodeDatasetRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var rows []relation.Row[int64]
	if req.Generate != nil {
		rows = GenerateRows(req.Arity, req.Generate.N, req.Generate.Dom, req.Generate.Seed)
	} else {
		rows = make([]relation.Row[int64], len(req.Rows))
		buf := make([]relation.Value, len(req.Rows)*req.Arity)
		for i, row := range req.Rows {
			vals := buf[i*req.Arity : (i+1)*req.Arity : (i+1)*req.Arity]
			for j := range vals {
				vals[j] = relation.Value(row[j+1])
			}
			rows[i] = relation.Row[int64]{Vals: vals, W: row[0]}
		}
	}
	version, err := s.reg.Put(req.Name, req.Arity, rows)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Version-carrying cache keys already make stale hits impossible;
	// invalidation reclaims the memory the replaced results occupy. Cached
	// plans key the same way and drop with the same registration.
	s.cache.InvalidateTags(req.Name)
	s.plans.InvalidateTags(req.Name)
	writeJSON(w, http.StatusOK, DatasetResponse{Name: req.Name, Rows: len(rows), Version: version})
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"datasets": s.reg.Names()})
}

// QueryResponse is the body of a successful POST /v2/query.
type QueryResponse struct {
	// Attrs is the output schema, in group_by order.
	Attrs []string `json:"attrs"`
	// Rows are output tuples as [annotation, v1, v2, ...], sorted by
	// values. The annotation is a number for the int64-carrier semirings
	// and a boolean for "bools".
	Rows [][]any `json:"rows"`
	// Stats is the metered MPC cost of this query.
	Stats mpc.Stats `json:"stats"`
	// Class is the query's structural class; Engine the algorithm that ran.
	Class  string `json:"class"`
	Engine string `json:"engine"`
	// Plan is the planner's explanation — class, ranked candidates with
	// predicted loads, chosen engine and why, predicted vs. measured
	// load — present only when the request asked for it
	// ("options":{"explain":true}). Explaining never changes rows or stats.
	Plan *planner.Plan `json:"plan,omitempty"`
	// WallNS is the query's wall-clock execution time in nanoseconds
	// (excluding queueing); for a cache hit, the time to serve the hit.
	WallNS int64 `json:"wall_ns"`
	// DatasetVersion is the registry version the query's snapshot pinned.
	DatasetVersion uint64 `json:"dataset_version,omitempty"`
	// Cached is true when the result was served from the result cache
	// without executing; Coalesced when it was served by joining another
	// request's in-flight execution.
	Cached    bool `json:"cached,omitempty"`
	Coalesced bool `json:"coalesced,omitempty"`
	// Rounds is the per-round load timeline, present only when the request
	// set "trace": true.
	Rounds []mpc.RoundTrace `json:"rounds,omitempty"`
	// Faults is the fault-injection accounting, present only when the
	// request carried a faults block. Rows and Stats of a fault-
	// injected query whose faults were absorbed by the retry budget are
	// identical to a fault-free run.
	Faults *mpc.FaultReport `json:"faults,omitempty"`
	// Iterations meters each driver-loop iteration of a graph query
	// (present only with a graph block); Converged reports whether the
	// driver reached its fixpoint within the iteration budget.
	Iterations []spmv.IterStat `json:"iterations,omitempty"`
	Converged  *bool           `json:"converged,omitempty"`

	// queueNS is the execution's admission-queue wait, for the access log.
	queueNS int64
}

// serveQuery is the query endpoint, one straight line of stages:
//
//	openQuery → key → cache / flight → admit → plan → run → render
//
// Everything before admit is a function of the request and the registry
// snapshot it pinned and does no placement and no rounds; everything that
// does — the planner pre-pass as much as the engine — happens inside
// execAdmitted, holding the request's admission weight.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request) {
	c, ok := s.openQuery(w, r)
	defer c.close()
	if !ok {
		return
	}

	mode := c.req.Options.Cache
	var key string
	if mode != cacheOff {
		key = cacheKey(c.req, c.insts, c.o)
	}
	if mode == cacheDefault {
		if resp, ok := s.cache.Get(key); ok {
			s.met.QueryCacheServed()
			c.render(resp, true, false)
			return
		}
	}

	// exec is the one shared execution: admission, plan, engine run,
	// metrics, cache write. In coalescing mode it runs under a context
	// derived from the server's base context — NOT from any single waiter —
	// so a waiter's deadline or disconnect never cancels the result the
	// other waiters are waiting for.
	exec := func(execCtx context.Context) (*QueryResponse, error) {
		resp, err := s.execAdmitted(execCtx, &c.boundQuery)
		if err == nil && mode != cacheOff {
			s.cache.Put(key, cacheTags(c.req), resp)
		}
		return resp, err
	}

	var (
		resp    *QueryResponse
		err     error
		outcome = serve.Led
	)
	if mode == cacheDefault {
		resp, outcome, err = s.flight.Do(c.ctx, s.baseCtx, key, exec)
	} else {
		resp, err = exec(c.ctx)
	}
	if err != nil {
		c.failExec(outcome, err)
		return
	}
	if outcome == serve.Joined {
		s.met.QueryCoalesced()
	}
	c.render(resp, false, outcome == serve.Joined)
}

// render writes a success from resp without mutating it: resp may be
// shared with the cache and with coalesced waiters, so per-request
// decoration happens on a shallow copy.
func (c *queryCall) render(resp *QueryResponse, hit, coalesced bool) {
	out := *resp
	out.Cached, out.Coalesced = hit, coalesced
	out.DatasetVersion = c.view.Version()
	if hit {
		out.WallNS = time.Since(c.start).Nanoseconds()
	} else {
		c.entry.QueueNS = resp.queueNS
	}
	c.entry.Status = http.StatusOK
	c.entry.CacheHit, c.entry.Coalesced = hit, coalesced
	c.entry.Engine = out.Engine
	if c.req.Graph == nil {
		c.s.met.PlanEngine(out.Engine)
	}
	c.s.met.TenantServed(c.tenant)
	writeJSON(c.w, http.StatusOK, &out)
}

// failExec maps the error of an admitted step (admission, planning or
// execution; outcome says how this request was attached to it) onto the
// response. The execution-level metrics were recorded where the error
// arose (countFailure); what is counted here is per waiter.
func (c *queryCall) failExec(outcome serve.FlightOutcome, err error) {
	s := c.s
	if outcome == serve.AbandonedShared || outcome == serve.AbandonedLast {
		// This waiter's own context ended; the shared execution either
		// runs on for the others (its metrics are recorded there) or, if
		// this was the last waiter, is being cancelled and records the
		// cancellation itself.
		if outcome == serve.AbandonedShared {
			s.met.QueryCancelled(s.cancelCause(c.ctx))
		}
		if err = context.Canceled; errors.Is(context.Cause(c.ctx), context.DeadlineExceeded) {
			err = context.DeadlineExceeded
		}
	}
	switch {
	case errors.Is(err, serve.ErrTenantQueueFull):
		s.met.TenantShed(c.tenant)
		c.fail(http.StatusTooManyRequests, "queue_full", "tenant %q admission quota exhausted", c.tenant)
	case errors.Is(err, ErrQueueFull):
		s.met.TenantShed(c.tenant)
		c.fail(http.StatusTooManyRequests, "queue_full", "admission queue full")
	case errors.Is(err, context.DeadlineExceeded):
		c.fail(http.StatusGatewayTimeout, "deadline", "deadline exceeded")
	case errors.Is(err, context.Canceled):
		// The client may be gone; the write is best-effort.
		c.fail(http.StatusServiceUnavailable, "drain", "cancelled (%s)", s.disconnectCause())
	case errors.Is(err, mpc.ErrFaultBudgetExceeded):
		c.fail(http.StatusInternalServerError, "fault_budget", "%v", err)
	case isClientError(err):
		c.fail(http.StatusBadRequest, "bad_request", "%v", err)
	default:
		c.fail(http.StatusInternalServerError, "internal", "internal error: %v", err)
	}
}

// countFailure records the execution-level outcome of a failed admitted
// step — shed at the queue, cancelled, out of fault budget, the client's
// fault, or ours. Called once per execution, not per waiter.
func (s *Server) countFailure(ctx context.Context, faults *mpc.FaultPlane, err error) {
	switch {
	case errors.Is(err, serve.ErrTenantQueueFull), errors.Is(err, ErrQueueFull):
		s.met.QueryRejected()
	case errors.Is(err, context.DeadlineExceeded):
		s.met.QueryCancelled("deadline")
	case errors.Is(err, context.Canceled):
		s.met.QueryCancelled(s.cancelCause(ctx))
	case errors.Is(err, mpc.ErrFaultBudgetExceeded):
		s.met.QueryFailedInternal()
		s.met.FaultBudgetExhausted()
		if faults != nil {
			s.met.FaultsObserved(faults.Report())
		}
	case isClientError(err):
		s.met.QueryFailedClient()
	default:
		s.met.QueryFailedInternal()
	}
}

// admit is the step every query-shaped request takes before it may place
// a row or run a round: wait in the tenant's fair queue for the request's
// weight, then — holding it — resolve the plan. It returns the plan (nil
// for graph queries, whose driver is the engine), the queue wait, and the
// release of the held weight; on error nothing is held and the failure
// has been counted.
func (s *Server) admit(ctx context.Context, b *boundQuery) (*planner.Plan, int64, func(), error) {
	// Hold weight proportional to the OS parallelism this query runs with.
	// The wait respects the caller's context, so an abandoned execution
	// frees its queue slot. workers: 0 (the default) runs serially, which
	// still occupies one OS worker — clamp to 1 so default queries cannot
	// bypass the capacity.
	weight := int64(b.req.Options.Workers)
	if b.req.Options.Workers < 0 {
		weight = int64(runtime.GOMAXPROCS(0))
	}
	if weight < 1 {
		weight = 1
	}

	s.met.QueryQueued()
	queueStart := time.Now()
	weight, err := s.fair.Acquire(ctx, b.tenant, weight)
	queueNS := time.Since(queueStart).Nanoseconds()
	s.met.QueryDequeued()
	if err != nil {
		s.countFailure(ctx, nil, err)
		return nil, queueNS, nil, err
	}
	s.met.QueryStarted()
	release := func() {
		s.met.QueryFinished()
		s.fair.Release(weight)
	}

	var plan *planner.Plan
	if b.req.Graph == nil {
		if plan, err = s.resolveQueryPlan(ctx, b); err != nil {
			release()
			s.countFailure(ctx, nil, err)
			return nil, queueNS, nil, err
		}
	}
	return plan, queueNS, release, nil
}

// execAdmitted runs one execution end to end — admit, plan, run, metrics
// — and is called exactly once per execution (directly for uncached modes,
// as the shared flight body otherwise), so every metric it records counts
// executions, not waiters.
func (s *Server) execAdmitted(ctx context.Context, b *boundQuery) (resp *QueryResponse, err error) {
	// Last line of defence: a panic in an admitted step is a bug in the
	// planner or an engine (aborts unwind as errors, see mpc.Recover), and
	// it must cost this execution — a 500 for each of its waiters — not the
	// daemon. A coalesced execution runs on the flight's own goroutine,
	// where nothing else would stop it from ending the process.
	defer func() {
		if r := recover(); r != nil {
			log.Printf("mpcd: panic in admitted execution: %v\n%s", r, debug.Stack())
			resp, err = nil, fmt.Errorf("execution panicked: %v", r)
			s.met.QueryFailedInternal()
		}
	}()
	plan, queueNS, release, err := s.admit(ctx, b)
	if err != nil {
		return nil, err
	}
	defer release()

	// The engine runs forced to the plan's choice, under the request's
	// tracer and fault plane; WallNS starts here and excludes planning.
	o := b.o
	if plan != nil {
		o.Engine = plan.Chosen
	}
	if b.req.Options.Trace {
		o.Tracer = mpc.NewTracer()
	}
	start := time.Now()
	if b.req.Graph != nil {
		resp, err = s.executeGraph(ctx, b.req, b.insts, o)
	} else {
		resp, err = s.execute(ctx, b.req, b.q, b.insts, o)
	}
	wall := time.Since(start)
	if err != nil {
		s.countFailure(ctx, o.Faults, err)
		return nil, err
	}
	if plan == nil {
		resp.Engine, resp.Class = "spmv-"+b.req.Graph.Kind, "graph"
	} else {
		// A run reports the plan it was resolved with, stamped with what
		// it measured.
		ran := *plan
		ran.MeasuredLoad = resp.Stats.MaxLoad
		resp.Engine, resp.Class = ran.Chosen, ran.Class
		if b.req.Options.Explain {
			resp.Plan = &ran
		}
	}
	s.met.QueryCompleted(resp.Engine, resp.Stats)
	resp.WallNS = wall.Nanoseconds()
	resp.queueNS = queueNS
	if o.Tracer != nil {
		resp.Rounds = o.Tracer.Rounds()
	}
	if o.Faults != nil {
		rep := o.Faults.Report()
		resp.Faults = &rep
		s.met.FaultsObserved(rep)
	}
	return resp, nil
}

// cancelCause labels a context.Canceled outcome from ctx: a shared
// execution cancelled because its last waiter's deadline expired counts
// as "deadline"; otherwise drain mode or a client disconnect decides.
func (s *Server) cancelCause(ctx context.Context) string {
	if errors.Is(context.Cause(ctx), context.DeadlineExceeded) {
		return "deadline"
	}
	return s.disconnectCause()
}

// disconnectCause labels a context.Canceled outcome: during a drain the
// daemon (not the client) cancels in-flight work, so the cancellation is
// recorded as "drain" rather than a client disconnect.
func (s *Server) disconnectCause() string {
	if s.Draining() {
		return "drain"
	}
	return "client"
}

// execute materializes the query's instance from the registry (aliasing
// the stored rows; the engine's unowned placement copies them into shards)
// and runs it under the requested semiring.
func (s *Server) execute(ctx context.Context, req *QueryRequestV2, q *hypergraph.Query, insts map[string]*Dataset, o core.Options) (*QueryResponse, error) {
	if req.Semiring == "bools" {
		inst := make(db.Instance[bool], len(insts))
		for name, ds := range insts {
			rel := newRelation[bool](q, name)
			rel.Rows = make([]relation.Row[bool], len(ds.Rows))
			for i, row := range ds.Rows {
				rel.Rows[i] = relation.Row[bool]{Vals: row.Vals, W: row.W != 0}
			}
			inst[name] = rel
		}
		return runTyped[bool](ctx, semiring.BoolOrAnd{}, q, inst, o, func(w bool) any { return w })
	}

	inst := make(db.Instance[int64], len(insts))
	for name, ds := range insts {
		rel := newRelation[int64](q, name)
		rel.Rows = ds.Rows
		inst[name] = rel
	}
	annot := func(w int64) any { return w }
	switch req.Semiring {
	case "", "ints":
		return runTyped[int64](ctx, semiring.IntSumProd{}, q, inst, o, annot)
	case "minplus":
		return runTyped[int64](ctx, semiring.MinPlus{}, q, inst, o, annot)
	case "maxplus":
		return runTyped[int64](ctx, semiring.MaxPlus{}, q, inst, o, annot)
	case "maxmin":
		return runTyped[int64](ctx, semiring.MaxMin{}, q, inst, o, annot)
	}
	return nil, &clientError{fmt.Errorf("unknown semiring %q", req.Semiring)}
}

// executeGraph runs the request's graph block: one iterated driver (BFS,
// SSSP or PageRank) over the single bound edge relation, on the same
// execution scope (servers, seed, workers, tracer, fault plane,
// transport) a join-aggregate query would get. Rows come back as
// [value, vertex] — hop level, distance or rank first, mirroring the
// [annotation, values...] shape of join results.
func (s *Server) executeGraph(ctx context.Context, req *QueryRequestV2, insts map[string]*Dataset, o core.Options) (resp *QueryResponse, err error) {
	g := req.Graph
	ds := insts[req.Relations[0].Name]
	p := o.Servers
	if p == 0 {
		p = 16
	}

	ex, release, err := o.NewScope(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	defer mpc.Recover(&err)

	src := relation.Value(g.Source)
	switch g.Kind {
	case "bfs":
		gr := spmv.BFS(ex, graphEdges(ds, func(int64) bool { return true }), p, o.Seed, src, g.MaxIters)
		return graphResponse(gr.Rows, gr.Iters, gr.Build, gr.Stats, gr.Converged), nil
	case "sssp":
		for _, row := range ds.Rows {
			if row.W < 0 {
				return nil, &clientError{fmt.Errorf("sssp needs non-negative edge weights; dataset %q has weight %d", req.Relations[0].Name, row.W)}
			}
		}
		gr := spmv.SSSP(ex, graphEdges(ds, weight), p, o.Seed, src, g.MaxIters)
		return graphResponse(gr.Rows, gr.Iters, gr.Build, gr.Stats, gr.Converged), nil
	case "pagerank":
		pr := spmv.PageRank(ex, graphEdges(ds, weight), p, o.Seed, g.Damping, g.Tol, g.MaxIters)
		return graphResponse(pr.Ranks, pr.Iters, pr.Build, pr.Stats, pr.Converged), nil
	}
	// Unreachable past validation; defense against future decoders.
	return nil, &clientError{fmt.Errorf("unknown graph kind %q", g.Kind)}
}

func weight(w int64) int64 { return w }

// graphEdges reads the bound dataset as the driver's edge list: row
// (src, dst) with its annotation, mapped by w, as the edge weight.
func graphEdges[W any](ds *Dataset, w func(int64) W) []spmv.Edge[W] {
	edges := make([]spmv.Edge[W], len(ds.Rows))
	for i, row := range ds.Rows {
		edges[i] = spmv.Edge[W]{Src: row.Vals[0], Dst: row.Vals[1], W: w(row.W)}
	}
	return edges
}

// graphResponse renders a driver's outcome: rows [value, vertex], the
// placement and loop costs as one Stats, and the per-iteration metering.
func graphResponse[V any](rows []spmv.Entry[V], iters []spmv.IterStat, build, loop mpc.Stats, conv bool) *QueryResponse {
	resp := &QueryResponse{Attrs: []string{"vertex"}, Rows: make([][]any, len(rows)),
		Stats: mpc.Seq(build, loop), Iterations: iters, Converged: &conv}
	for i, en := range rows {
		resp.Rows[i] = []any{en.Val, int64(en.Idx)}
	}
	return resp
}

// newRelation builds an empty relation carrying the query's schema for
// edge name; the caller fills Rows.
func newRelation[W any](q *hypergraph.Query, name string) *relation.Relation[W] {
	for _, e := range q.Edges {
		if e.Name == name {
			attrs := make([]relation.Attr, len(e.Attrs))
			for i, a := range e.Attrs {
				attrs[i] = relation.Attr(a)
			}
			return relation.New[W](attrs...)
		}
	}
	panic("server: relation not in query: " + name)
}

// runTyped executes the query over a typed instance and renders the rows.
func runTyped[W any](ctx context.Context, sr semiring.Semiring[W], q *hypergraph.Query, inst db.Instance[W], o core.Options, annot func(W) any) (*QueryResponse, error) {
	// Validate up front (the query itself was validated by queryOptions)
	// so request-shape problems classify as client errors; whatever core
	// then fails on (beyond cancellation) is an internal engine error on a
	// well-formed request.
	if err := db.Validate(q, inst); err != nil {
		return nil, &clientError{err}
	}
	rel, st, err := core.ExecuteContext(ctx, sr, q, inst, o)
	if err != nil {
		return nil, err
	}
	rel.SortRows()
	resp := &QueryResponse{Stats: st, Rows: make([][]any, len(rel.Rows))}
	for _, a := range rel.Schema() {
		resp.Attrs = append(resp.Attrs, string(a))
	}
	for i, row := range rel.Rows {
		vals := make([]any, 0, len(row.Vals)+1)
		vals = append(vals, annot(row.W))
		for _, v := range row.Vals {
			vals = append(vals, int64(v))
		}
		resp.Rows[i] = vals
	}
	return resp, nil
}
