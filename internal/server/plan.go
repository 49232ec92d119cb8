package server

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"mpcjoin/internal/core"
	"mpcjoin/internal/db"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/planner"
	"mpcjoin/internal/serve"
)

// plan.go is the front half every query-shaped endpoint shares — open,
// bind, options — and the serving tier's side of the cost-based planner:
// the one plan resolution (run inside admission, see Server.admit), the
// bounded plan cache that makes it close to free for repeated queries and
// bridges /v2/plan to the /v2/query that follows, and the /v2/plan
// dry-run endpoint that explains a query without executing it.

// bindFail classifies a relation-binding failure for the handler.
type bindFail struct {
	status int
	cause  string
	msg    string
}

// bindQuery resolves the request's relation → dataset bindings against
// one registry snapshot, building the hypergraph query and the dataset
// map the execution (or planning) runs on. Shared by /v2/query and
// /v2/plan so both bind — and therefore plan — identically.
func bindQuery(req *QueryRequestV2, view *RegistryView) (*hypergraph.Query, map[string]*Dataset, *bindFail) {
	q := &hypergraph.Query{}
	insts := make(map[string]*Dataset, len(req.Relations))
	for _, rel := range req.Relations {
		dsName := datasetOf(rel)
		ds, ok := view.Get(dsName)
		if !ok {
			return nil, nil, &bindFail{http.StatusNotFound, "not_found",
				fmt.Sprintf("dataset %q not registered", dsName)}
		}
		if ds.Arity != len(rel.Attrs) {
			return nil, nil, &bindFail{http.StatusBadRequest, "bad_request",
				fmt.Sprintf("relation %q has %d attrs but dataset %q has arity %d",
					rel.Name, len(rel.Attrs), dsName, ds.Arity)}
		}
		attrs := make([]hypergraph.Attr, len(rel.Attrs))
		for i, a := range rel.Attrs {
			attrs[i] = hypergraph.Attr(a)
		}
		q.Edges = append(q.Edges, hypergraph.Edge{Name: rel.Name, Attrs: attrs})
		insts[rel.Name] = ds
	}
	for _, a := range req.GroupBy {
		q.Output = append(q.Output, hypergraph.Attr(a))
	}
	return q, insts, nil
}

// boundQuery is a decoded request bound to one registry snapshot: all
// the admitted path (plan, run) reads. Nothing writes it once openQuery
// returns, so a shared execution may outlive the request that built it.
type boundQuery struct {
	tenant string
	req    *QueryRequestV2
	view   *RegistryView
	q      *hypergraph.Query
	insts  map[string]*Dataset
	o      core.Options
}

// queryCall is the state of one /v2/query or /v2/plan request past the
// front half the two share (openQuery).
type queryCall struct {
	boundQuery
	s      *Server
	w      http.ResponseWriter
	start  time.Time
	entry  AccessEntry
	ctx    context.Context
	cancel context.CancelFunc
}

// fail writes the error envelope and records the outcome for the access
// log.
func (c *queryCall) fail(status int, cause, format string, args ...any) {
	c.entry.Status, c.entry.Cause = status, cause
	writeQueryError(c.w, status, cause, fmt.Sprintf(format, args...))
}

// close ends the request: it releases the deadline and emits the access
// log entry, whatever the outcome.
func (c *queryCall) close() {
	c.cancel()
	if c.s.cfg.AccessLog != nil {
		c.entry.WallNS = time.Since(c.start).Nanoseconds()
		c.s.cfg.AccessLog(c.entry)
	}
}

// openQuery is the front half of every query-shaped endpoint: drain gate,
// tenant, decode, binding, options and deadline. On false the error
// response has been written; the caller defers close either way.
func (s *Server) openQuery(w http.ResponseWriter, r *http.Request) (*queryCall, bool) {
	c := &queryCall{s: s, w: w, start: time.Now(), ctx: r.Context(), cancel: func() {},
		entry: AccessEntry{Path: r.URL.Path, Tenant: DefaultTenant}}
	if s.Draining() {
		s.met.QueryRejected()
		c.fail(http.StatusServiceUnavailable, "drain", "draining")
		return c, false
	}
	tenant, err := tenantFromRequest(r)
	if err != nil {
		c.fail(http.StatusBadRequest, "bad_request", "%v", err)
		return c, false
	}
	c.tenant, c.entry.Tenant = tenant, tenant

	if c.req, err = DecodeQueryRequestV2(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		c.fail(http.StatusBadRequest, "bad_request", "%v", err)
		return c, false
	}
	if !s.cacheOn {
		c.req.Options.Cache = cacheOff
	}

	// Resolve relation → dataset bindings against ONE registry snapshot,
	// before spending any admission budget: the query pins the dataset
	// versions it starts on, a concurrent registration publishes a new
	// snapshot without touching this one, and a dangling reference is a
	// client error, not load.
	c.view = s.reg.View()
	var bf *bindFail
	if c.q, c.insts, bf = bindQuery(c.req, c.view); bf != nil {
		c.fail(bf.status, bf.cause, "%s", bf.msg)
		return c, false
	}
	c.entry.DatasetVersion = c.view.Version()

	if c.o, err = s.queryOptions(c.req, c.q); err != nil {
		c.fail(http.StatusBadRequest, "bad_request", "%v", err)
		return c, false
	}
	// The provisional engine label: the graph driver, a forced engine, or
	// nothing yet — the resolved plan names what an auto query ran.
	c.entry.Engine = c.o.Engine
	if c.req.Graph != nil {
		c.entry.Engine = "spmv-" + c.req.Graph.Kind
	}

	// Deadline: derived before admission so it covers queue wait and the
	// planner pre-pass as well as execution — a query must not sit in the
	// admission queue past its own deadline and then still run.
	if c.req.Options.DeadlineMS > 0 {
		c.ctx, c.cancel = context.WithTimeout(c.ctx, time.Duration(c.req.Options.DeadlineMS)*time.Millisecond)
	}
	return c, true
}

// queryOptions is the one QueryRequestV2 → core.Options mapping, shared by
// the query and plan endpoints. For join-aggregate requests it also checks
// what both need before any work is spent: a well-formed query, and a
// "strategy" naming an engine the engine table allows for the query's
// class. Errors are the client's.
func (s *Server) queryOptions(req *QueryRequestV2, q *hypergraph.Query) (core.Options, error) {
	engine, err := planner.ParseEngine(req.Strategy)
	if err != nil {
		return core.Options{}, err
	}
	if req.Graph == nil {
		if err := q.Validate(); err != nil {
			return core.Options{}, err
		}
		if engine != "" {
			if _, err := planner.Forced(q, engine); err != nil {
				return core.Options{}, err
			}
		}
	}
	o := core.Options{
		Servers:   req.Options.Servers,
		Seed:      req.Options.Seed,
		Workers:   req.Options.Workers,
		Transport: s.cfg.Transport,
		Engine:    engine,
	}
	if req.Options.Faults != nil {
		o.Faults = mpc.NewFaultPlane(req.Options.Faults.Spec(req.Options.Seed))
	}
	return o, nil
}

// planOptions strips what must never reach the planner from a request's
// options: the fault plane and the tracer. Planning runs on a scope of
// its own, so neither the "faults" nor the "rounds" block of an answer
// can depend on whether its plan was computed or found in the plan cache.
func planOptions(o core.Options) core.Options {
	o.Faults, o.Tracer = nil, nil
	return o
}

// resolveQueryPlan runs the cost-based planner for a bound join query
// without executing it: the ranked plan of an auto query, the trivial
// "forced by name" plan otherwise (no placement at all). Plans are keyed
// by planKey, so a registration or a change of p or seed replans.
// Its one caller is Server.admit: planning is admitted work.
func (s *Server) resolveQueryPlan(ctx context.Context, b *boundQuery) (*planner.Plan, error) {
	// A forced plan costs nothing to rebuild; only ranked plans are cached.
	key, cached := planKey(b.req, b.insts, b.o), s.cacheOn && b.o.Engine == ""
	if cached {
		if pl, ok := s.plans.Get(key); ok {
			return pl, nil
		}
	}
	inst := make(db.Instance[int64], len(b.insts))
	for name, ds := range b.insts {
		rel := newRelation[int64](b.q, name)
		rel.Rows = ds.Rows
		inst[name] = rel
	}
	// Validate here (the query itself was validated by queryOptions) so
	// request-shape problems classify as client errors; whatever
	// PlanInstance then fails on (beyond cancellation) is internal.
	if err := db.Validate(b.q, inst); err != nil {
		return nil, &clientError{err}
	}
	pl, err := core.PlanInstance(ctx, b.q, inst, planOptions(b.o))
	if err != nil {
		return nil, err
	}
	if cached {
		s.plans.Put(key, cacheTags(b.req), &pl)
	}
	return &pl, nil
}

// PlanResponse is the body of a successful POST /v2/plan: the dry-run
// plan for a query, computed from the registered datasets and the
// estimate-only pre-pass, without executing the query.
type PlanResponse struct {
	// Class is the query's structural class.
	Class string `json:"class"`
	// Plan is the full ranked plan; Plan.Chosen is the engine an
	// identical /v2/query would run (MeasuredLoad stays 0 — nothing ran).
	Plan *planner.Plan `json:"plan"`
	// DatasetVersion is the registry version the plan's snapshot pinned.
	DatasetVersion uint64 `json:"dataset_version"`
	// WallNS is the request's wall time in nanoseconds: admission wait plus
	// planning (next to nothing when the plan was cached).
	WallNS int64 `json:"wall_ns"`
}

// handlePlanV2 is the dry-run planning endpoint: it accepts the /v2/query
// request shape, takes the same admitted step the query endpoint takes —
// wait for the request's weight in the tenant's fair queue, then resolve
// the plan — and returns the plan without executing anything. The plan
// stays in the plan cache, so an identical /v2/query that follows starts
// from it.
func (s *Server) handlePlanV2(w http.ResponseWriter, r *http.Request) {
	c, ok := s.openQuery(w, r)
	defer c.close()
	if !ok {
		return
	}
	if c.req.Graph != nil {
		c.fail(http.StatusBadRequest, "bad_request", "graph queries are not planned: the %s driver is the engine", c.req.Graph.Kind)
		return
	}

	pl, queueNS, release, err := s.admit(c.ctx, &c.boundQuery)
	c.entry.QueueNS = queueNS
	if err != nil {
		c.failExec(serve.Led, err)
		return
	}
	release()
	c.entry.Engine = pl.Chosen
	c.entry.Status = http.StatusOK
	s.met.PlanEngine(pl.Chosen)
	s.met.TenantServed(c.tenant)
	writeJSON(w, http.StatusOK, PlanResponse{
		Class:          pl.Class,
		Plan:           pl,
		DatasetVersion: c.view.Version(),
		WallNS:         time.Since(c.start).Nanoseconds(),
	})
}
