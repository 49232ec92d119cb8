package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"mpcjoin/internal/mpc"
)

// v2.go is the wire dialect of the query endpoints (/v2/query, /v2/plan):
// the query shape top-level, every execution knob in an explicit options
// object, a fault-injection block, a graph block, and a typed error
// envelope carrying a machine-readable cause. It is the only dialect, and
// the decoded QueryRequestV2 is what everything past the decoder runs on.

// FaultBlock is the "faults" object of a v2 query: the wire form of
// mpc.FaultSpec. All fields are optional; a present block with all-zero
// probabilities and no crash round injects nothing.
type FaultBlock struct {
	// Seed seeds the fault schedule; 0 derives it from the query seed.
	Seed uint64 `json:"seed,omitempty"`
	// StragglerProb delays a random server's messages each round with
	// this probability; StragglerDelay is the simulated delay in load
	// units (absorbed at the barrier, never retried).
	StragglerProb  float64 `json:"straggler_prob,omitempty"`
	StragglerDelay int64   `json:"straggler_delay,omitempty"`
	// CrashProb crashes a random destination server in a round with this
	// probability; CrashRound (1-based) deterministically crashes one in
	// that specific round. A crashed round is retried from its pre-round
	// checkpoint.
	CrashProb  float64 `json:"crash_prob,omitempty"`
	CrashRound int     `json:"crash_round,omitempty"`
	// DropProb withholds one random message in a round with this
	// probability; detected by count verification and retried.
	DropProb float64 `json:"drop_prob,omitempty"`
	// MaxRetries bounds retries per faulty round: 0 = engine default,
	// negative = no retries (first detected fault fails the query).
	MaxRetries int `json:"max_retries,omitempty"`
	// StopAfter stops injection after this many rounds (0 = no limit).
	StopAfter int `json:"stop_after,omitempty"`
}

// maxFaultRetries caps the per-round retry budget a request may ask for;
// retries are simulated work, so an unbounded budget would be an
// amplification knob.
const maxFaultRetries = 64

// Spec converts the wire block to the engine's FaultSpec.
func (fb *FaultBlock) Spec(querySeed uint64) mpc.FaultSpec {
	seed := fb.Seed
	if seed == 0 {
		seed = querySeed + 1
	}
	return mpc.FaultSpec{
		Seed:           seed,
		StragglerProb:  fb.StragglerProb,
		StragglerDelay: fb.StragglerDelay,
		CrashProb:      fb.CrashProb,
		CrashRound:     fb.CrashRound,
		DropProb:       fb.DropProb,
		MaxRetries:     fb.MaxRetries,
		StopAfter:      fb.StopAfter,
	}
}

func (fb *FaultBlock) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"straggler_prob", fb.StragglerProb},
		{"crash_prob", fb.CrashProb},
		{"drop_prob", fb.DropProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faults.%s must be in [0, 1], got %v", p.name, p.v)
		}
	}
	if fb.StragglerDelay < 0 {
		return fmt.Errorf("faults.straggler_delay must be non-negative, got %d", fb.StragglerDelay)
	}
	if fb.CrashRound < 0 {
		return fmt.Errorf("faults.crash_round must be non-negative, got %d", fb.CrashRound)
	}
	if fb.MaxRetries > maxFaultRetries {
		return fmt.Errorf("faults.max_retries must be at most %d, got %d", maxFaultRetries, fb.MaxRetries)
	}
	if fb.StopAfter < 0 {
		return fmt.Errorf("faults.stop_after must be non-negative, got %d", fb.StopAfter)
	}
	return nil
}

// maxGraphIters caps the iteration budget a graph query may ask for:
// every iteration is simulated rounds of work, so an unbounded budget
// would be an amplification knob (same reasoning as maxFaultRetries).
const maxGraphIters = 4096

// GraphBlock is the "graph" object of a v2 query: it turns the request
// into an iterated graph-analytics run (BFS, SSSP or PageRank) over a
// single binary edge relation E(src, dst) whose annotations are the edge
// weights. Incompatible with group_by, strategy and semiring — the driver
// fixes the semiring (Bools, MinPlus, Floats respectively).
type GraphBlock struct {
	// Kind selects the driver: "bfs", "sssp" or "pagerank".
	Kind string `json:"kind"`
	// Source is the start vertex (bfs/sssp; rejected for pagerank).
	Source int64 `json:"source,omitempty"`
	// MaxIters bounds the driver loop; 0 selects the driver's default
	// (BFS/PageRank: a fixed cap; SSSP: the Bellman-Ford |V|+1 bound). A
	// budget-exhausted run answers with "converged": false, not an error.
	MaxIters int `json:"max_iters,omitempty"`
	// Damping is PageRank's damping factor in (0, 1); 0 selects
	// spmv.DefaultDamping.
	Damping float64 `json:"damping,omitempty"`
	// Tol is PageRank's L∞ convergence threshold; 0 selects 1e-9.
	Tol float64 `json:"tol,omitempty"`
}

func (g *GraphBlock) validate() error {
	switch g.Kind {
	case "bfs", "sssp":
		if g.Damping != 0 {
			return fmt.Errorf("graph.damping applies to pagerank, not %s", g.Kind)
		}
		if g.Tol != 0 {
			return fmt.Errorf("graph.tol applies to pagerank, not %s", g.Kind)
		}
	case "pagerank":
		if g.Source != 0 {
			return fmt.Errorf("graph.source applies to bfs/sssp, not pagerank")
		}
		if g.Damping < 0 || g.Damping >= 1 {
			return fmt.Errorf("graph.damping must be in (0, 1) or 0 for the default, got %v", g.Damping)
		}
		if g.Tol < 0 {
			return fmt.Errorf("graph.tol must be non-negative, got %v", g.Tol)
		}
	default:
		return fmt.Errorf("unknown graph.kind %q (want bfs, sssp or pagerank)", g.Kind)
	}
	if g.MaxIters < 0 || g.MaxIters > maxGraphIters {
		return fmt.Errorf("graph.max_iters must be in [0, %d], got %d", maxGraphIters, g.MaxIters)
	}
	return nil
}

// QueryOptions is the explicit options object of a v2 query. It holds
// every execution knob that is not part of the query itself; the query
// shape (relations, group_by, strategy, semiring) stays top-level.
type QueryOptions struct {
	// Servers is the simulated cluster size p (default 16).
	Servers int `json:"servers,omitempty"`
	// Workers sizes this query's OS worker pool: 0 (the default)
	// inherits the ambient runtime — the service never installs one, so 0
	// runs serially; -1 = GOMAXPROCS; n > 0 = n workers. Per-query, not
	// process-global. Every value admits at least one unit of weight.
	Workers int `json:"workers,omitempty"`
	// Seed drives hash partitioning, the output-sensitive matmul's
	// per-group estimates and a fault schedule left unseeded
	// (reproducibility). The §2.2 OUT estimate and the planner's sketches
	// use fixed hash functions and do not read it.
	Seed uint64 `json:"seed,omitempty"`
	// Trace returns the per-round load timeline ("rounds" in the
	// response). Off by default; tracing never changes results or stats.
	Trace bool `json:"trace,omitempty"`
	// Faults runs the query under the deterministic fault plane.
	Faults *FaultBlock `json:"faults,omitempty"`
	// DeadlineMS bounds queue wait, planning and execution wall time; the
	// query is cancelled at the next MPC round barrier after the deadline.
	// 0 means no deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Cache is the cache-control mode: "" or "default" reads the result
	// cache, coalesces onto identical in-flight executions and writes the
	// result back; "bypass" always executes fresh but still writes;
	// "off" touches the cache not at all.
	Cache string `json:"cache,omitempty"`
	// Explain returns the planner's explanation — class, ranked
	// candidates with predicted loads, chosen engine and why — as the
	// response's "plan" block. Rows and stats are unchanged.
	Explain bool `json:"explain,omitempty"`
}

// QueryRequestV2 is the body of POST /v2/query, and the request everything
// past the decoder runs on.
type QueryRequestV2 struct {
	Relations []QueryRelation `json:"relations"`
	// GroupBy lists the output attributes; empty means full aggregation.
	GroupBy []string `json:"group_by,omitempty"`
	// Strategy is "auto" (default) or an engine name — any value the
	// response's "engine" field can report (planner.ParseEngine). The
	// engine must be legal for the query's class.
	Strategy string `json:"strategy,omitempty"`
	// Semiring is "ints" (default), "minplus", "maxplus", "maxmin" or
	// "bools" (annotation != 0 is true; results are true groups).
	Semiring string `json:"semiring,omitempty"`
	// Graph turns the request into an iterated graph-analytics run over
	// the single bound edge relation.
	Graph *GraphBlock `json:"graph,omitempty"`
	// Options is never nil once decoded.
	Options *QueryOptions `json:"options,omitempty"`
}

// DecodeQueryRequestV2 parses and validates a query body. The request it
// returns always has Options set, with the cache mode "default" normalized
// to cacheDefault. An execution knob arriving top-level instead of inside
// "options" is an unknown field and rejected.
func DecodeQueryRequestV2(r io.Reader) (*QueryRequestV2, error) {
	var req QueryRequestV2
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("invalid JSON: %w", err)
	}
	if req.Options == nil {
		req.Options = &QueryOptions{}
	}
	if req.Options.Cache == "default" {
		req.Options.Cache = cacheDefault
	}
	if err := validateQueryRequest(&req); err != nil {
		return nil, err
	}
	return &req, nil
}

// v2Error is the typed error envelope of the v2 API:
//
//	{"error": {"code": 404, "cause": "not_found", "message": "..."}}
//
// code mirrors the HTTP status; cause is a stable machine-readable
// classifier (bad_request, not_found, queue_full, deadline, drain,
// fault_budget, internal); message is human-readable detail.
type v2Error struct {
	Code    int    `json:"code"`
	Cause   string `json:"cause"`
	Message string `json:"message"`
}

type v2ErrorBody struct {
	Error v2Error `json:"error"`
}

// writeQueryError renders the typed error envelope.
func writeQueryError(w http.ResponseWriter, status int, cause, msg string) {
	writeJSON(w, status, v2ErrorBody{Error: v2Error{Code: status, Cause: cause, Message: msg}})
}
