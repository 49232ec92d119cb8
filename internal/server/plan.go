package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"mpcjoin/internal/core"
	"mpcjoin/internal/db"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/planner"
)

// plan.go is the serving tier's side of the cost-based planner: the
// pre-execution plan resolution that lets result-cache keys carry the
// *resolved* engine (so an auto-planned query whose planner decision
// flips with the data never cross-serves), a bounded plan cache so the
// resolution is close to free for repeated queries, and the /v2/plan
// dry-run endpoint that explains a query without executing it.

// bindFail classifies a relation-binding failure for the handler.
type bindFail struct {
	status int
	cause  string
	msg    string
}

// bindQuery resolves the request's relation → dataset bindings against
// one registry snapshot, building the hypergraph query and the dataset
// map the execution (or planning) runs on. Shared by /v1/query, /v2/query
// and /v2/plan so all three bind — and therefore plan — identically.
func bindQuery(req *QueryRequest, view *RegistryView) (*hypergraph.Query, map[string]*Dataset, *bindFail) {
	q := &hypergraph.Query{}
	insts := make(map[string]*Dataset, len(req.Relations))
	for _, rel := range req.Relations {
		dsName := rel.Dataset
		if dsName == "" {
			dsName = rel.Name
		}
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

// queryCall is the state of one /v1/query, /v2/query or /v2/plan request
// past the front half the three share (openQuery).
type queryCall struct {
	s      *Server
	w      http.ResponseWriter
	v      apiVersion
	start  time.Time
	entry  AccessEntry
	tenant string
	req    *QueryRequest
	view   *RegistryView
	q      *hypergraph.Query
	insts  map[string]*Dataset
	o      core.Options
	ctx    context.Context
	cancel context.CancelFunc
}

// fail writes the versioned error response and records the outcome for
// the access log.
func (c *queryCall) fail(status int, cause, format string, args ...any) {
	c.entry.Status, c.entry.Cause = status, cause
	c.v.writeError(c.w, status, cause, format, args...)
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
func (s *Server) openQuery(w http.ResponseWriter, r *http.Request, v apiVersion) (*queryCall, bool) {
	c := &queryCall{s: s, w: w, v: v, start: time.Now(), ctx: r.Context(), cancel: func() {},
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

	decode := DecodeQueryRequest
	if v == apiV2 {
		decode = DecodeQueryRequestV2
	}
	if c.req, err = decode(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		c.fail(http.StatusBadRequest, "bad_request", "%v", err)
		return c, false
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

	// Deadline: derived before planning and admission so it covers the
	// planner pre-pass and queue wait as well as execution — a query must
	// not sit in the admission queue past its own deadline and then still
	// run.
	if c.req.DeadlineMS > 0 {
		c.ctx, c.cancel = context.WithTimeout(c.ctx, time.Duration(c.req.DeadlineMS)*time.Millisecond)
	}
	return c, true
}

// queryOptions is the one QueryRequest → core.Options mapping, shared by
// the query and plan endpoints. For join-aggregate requests it also checks
// what both need before any work is spent: a well-formed query, and a
// "strategy" naming an engine the engine table allows for the query's
// class. Errors are the client's.
func (s *Server) queryOptions(req *QueryRequest, q *hypergraph.Query) (core.Options, error) {
	engine, err := planner.ParseEngine(req.Strategy)
	if err != nil {
		return core.Options{}, err
	}
	if req.Graph == nil {
		if err := q.Validate(); err != nil {
			return core.Options{}, err
		}
		if engine != "" {
			if _, err := planner.Forced(q.Classify(), engine); err != nil {
				return core.Options{}, err
			}
		}
	}
	return core.Options{
		Servers:   req.Servers,
		Seed:      req.Seed,
		Workers:   req.Workers,
		Transport: s.cfg.Transport,
		Engine:    engine,
	}, nil
}

// resolveQueryPlan runs the cost-based planner for a bound query without
// executing it. Plans are keyed like results (dataset versions, canonical
// options), so a registration or option change replans; the annotation
// semiring is irrelevant to planning (only sizes matter), so one plan
// serves every semiring of the same shape.
func (s *Server) resolveQueryPlan(ctx context.Context, req *QueryRequest, q *hypergraph.Query, insts map[string]*Dataset, o core.Options) (*planner.Plan, error) {
	key := cacheKey(req, insts, o) + ";plan"
	if s.cacheOn {
		if pl, ok := s.plans.Get(key); ok {
			return pl, nil
		}
	}
	inst := make(db.Instance[int64], len(insts))
	for name, ds := range insts {
		rel := newRelation[int64](q, name)
		rel.Rows = ds.Rows
		inst[name] = rel
	}
	// Validate here (the query itself was validated by queryOptions) so
	// request-shape problems classify as client errors; whatever
	// PlanInstance then fails on (beyond cancellation) is internal.
	if err := db.Validate(q, inst); err != nil {
		return nil, &clientError{err}
	}
	pl, err := core.PlanInstance(ctx, q, inst, o)
	if err != nil {
		return nil, err
	}
	if s.cacheOn {
		s.plans.Put(key, cacheTags(req), &pl)
	}
	return &pl, nil
}

// failPlan maps a planning error onto the response and the metrics;
// planning failures classify exactly like execution failures.
func (s *Server) failPlan(ctx context.Context, fail func(status int, cause, format string, args ...any), err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.met.QueryCancelled("deadline")
		fail(http.StatusGatewayTimeout, "deadline", "deadline exceeded")
	case errors.Is(err, context.Canceled):
		s.met.QueryCancelled(s.cancelCause(ctx))
		fail(http.StatusServiceUnavailable, "drain", "cancelled (%s)", s.disconnectCause())
	case isClientError(err):
		s.met.QueryFailedClient()
		fail(http.StatusBadRequest, "bad_request", "%v", err)
	default:
		s.met.QueryFailedInternal()
		fail(http.StatusInternalServerError, "internal", "planning failed: %v", err)
	}
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
	// WallNS is the planning wall time in nanoseconds.
	WallNS int64 `json:"wall_ns"`
}

// handlePlanV2 is the dry-run planning endpoint: it accepts the /v2/query
// request shape, resolves the same plan the query endpoint would, and
// returns it without admitting or executing anything. The pre-pass runs
// outside admission control on purpose — it is estimate-sized work, not
// query-sized work.
func (s *Server) handlePlanV2(w http.ResponseWriter, r *http.Request) {
	c, ok := s.openQuery(w, r, apiV2)
	defer c.close()
	if !ok {
		return
	}
	if c.req.Graph != nil {
		c.fail(http.StatusBadRequest, "bad_request", "graph queries are not planned: the %s driver is the engine", c.req.Graph.Kind)
		return
	}

	pl, err := s.resolveQueryPlan(c.ctx, c.req, c.q, c.insts, c.o)
	if err != nil {
		s.failPlan(c.ctx, c.fail, err)
		return
	}
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
