// Package planner owns the engine table (engines.go) — the one place an
// engine is named, legalised per query class and priced — and the cost
// model behind automatic engine selection: it instantiates each candidate
// engine's Table 1 load profile with the exact per-relation input sizes of
// the concrete instance and the estimate pre-pass's OUT, full-join and
// fold-intermediate predictions, and ranks the class's legal candidates by
// predicted load.
//
// The package is pure arithmetic over sizes — it never touches relations
// or the mpc plane. The estimate-only pre-pass that produces the OUT,
// join-cardinality and fold predictions (§2.2 kmv sketches plus an exact
// count fold) lives in internal/estimate; internal/core runs it and feeds
// the numbers in here. Keeping the model side-effect free is what lets the
// decision-matrix tests sweep it across regimes without building data.
//
// The model prices what the simulation's exchange plane actually meters.
// Every distributed collection of size M an engine materializes passes
// through a sample sort whose measured per-round MaxLoad is
//
//	sortCost(M) = max(M/p, min(M, p²))
//
// — the balanced reshuffle M/p plus the regular-sampling all-gather, in
// which every holder sends min(p, local) samples to every server. Table 1's
// data-dependent worst-case terms (N·√OUT/p and friends) bound the skew
// handling of the specialized engines; the collections they sort are what
// distinguishes the engines on a concrete instance, so the formulas below
// are those collection inventories priced by sortCost. Ranking then
// reduces to comparing the engines' largest materialized intermediates —
// exactly the min{·,·} crossovers of Table 1, with the Yannakakis
// candidate's intermediate bounded by the measured fold profile instead of
// the full join J (early ⊕-aggregation keeps its folds near the
// aggregated images when J ≫ OUT).
package planner

import (
	"fmt"
	"sort"

	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/mpc"
)

// Candidate is one engine the planner considered, with the load its
// Table 1 formula predicts for this instance.
type Candidate struct {
	// Engine is the dispatch name (e.g. "matmul-worstcase").
	Engine string `json:"engine"`
	// PredictedLoad is the instantiated formula value, in tuples.
	PredictedLoad float64 `json:"predicted_load"`
	// Formula is the symbolic form that was instantiated.
	Formula string `json:"formula"`
	// Feasible is false when the formula's precondition fails on this
	// instance (e.g. matmul-linear requires OUT ≤ (N1+N2)/p). Infeasible
	// candidates are reported but never chosen.
	Feasible bool `json:"feasible"`
}

// Plan is the full, explainable outcome of planning one execution. It is
// surfaced verbatim through Result.Plan, the /v2/query explain block and
// the /v2/plan dry-run endpoint.
type Plan struct {
	// Class is the structural class of the query ("matmul", "line", …).
	Class string `json:"class"`
	// Chosen is the engine the plan selects.
	Chosen string `json:"chosen"`
	// Reason says why Chosen won (cost crossover, fast path, or forced).
	Reason string `json:"reason"`
	// Candidates are the ranked alternatives, best first. Empty for
	// forced engines (nothing was compared).
	Candidates []Candidate `json:"candidates,omitempty"`
	// PredictedOut is the pre-pass output-size prediction (0 when the
	// plan was forced or a fast path skipped the pre-pass).
	PredictedOut int64 `json:"predicted_out,omitempty"`
	// PredictedJoin is the predicted full-join cardinality feeding the
	// yannakakis candidate.
	PredictedJoin int64 `json:"predicted_join,omitempty"`
	// PredictedLoad is Chosen's predicted load.
	PredictedLoad float64 `json:"predicted_load,omitempty"`
	// MeasuredLoad is the execution's measured MaxLoad, filled in after
	// the run (0 for dry-run plans that never execute).
	MeasuredLoad int `json:"measured_load,omitempty"`
	// EstimateStats meters the estimate-only pre-pass. It is kept out of
	// the execution Stats so an auto run's Stats stay bit-identical to
	// the same engine forced directly.
	EstimateStats mpc.Stats `json:"estimate_stats,omitempty"`
}

// Input carries the instance sizes the cost model is instantiated with.
type Input struct {
	Class hypergraph.Class
	// P is the number of servers.
	P int
	// N is the total input size Σ|Ri|; NMax the largest single relation.
	N, NMax int64
	// N1, N2 are the two matmul sides in LineView order (0 outside
	// ClassMatMul).
	N1, N2 int64
	// Arms is the query's widest aggregated join
	// (hypergraph.Query.AggregatedDegree), which the class-split engines
	// bound.
	Arms int
	// Out is the predicted output size; J the predicted full-join
	// cardinality (J ≥ Out).
	Out, J int64
	// MaxFold is the estimate fold's largest pre-aggregation intermediate
	// (see estimate.TreeOutProfile) — the Yannakakis candidate's per-fold
	// join size under early aggregation. 0 means "not profiled"; the model
	// falls back to min(J, NMax+Out).
	MaxFold int64
	// MaxImage is the fold profile's largest aggregated image consumed as
	// fold-join input (the root image, which no fold consumes, excluded).
	// 0 means "not profiled"; the model falls back to Out.
	MaxImage int64
}

// Rank prices every ranked engine legal for the class and returns the
// ranked plan. It never returns an empty Chosen: every class has at least
// one always-feasible ranked engine (pinned by the table tests).
func Rank(in Input) Plan {
	if pl, ok := FastPath(in); ok {
		return pl
	}
	// Candidates are emitted in the table's tie-preference order:
	// predictions compare coarse collection inventories, so exact ties are
	// common (several engines pinned to the same sample-gather cap, say),
	// and the stable sort keeps the earlier candidate.
	var cands []Candidate
	for _, e := range legal(in.Class) {
		if _, ranked := e.Ranked[in.Class]; ranked {
			cands = append(cands, e.price(in))
		}
	}
	sort.SliceStable(cands, func(a, b int) bool {
		ca, cb := cands[a], cands[b]
		if ca.Feasible != cb.Feasible {
			return ca.Feasible
		}
		return ca.PredictedLoad < cb.PredictedLoad
	})
	return choose(in, cands, fmt.Sprintf("min predicted load %.0f among %d candidates (IN=%d, OUT≈%d, p=%d)",
		cands[0].PredictedLoad, len(cands), in.N, in.Out, in.P))
}

// FastPath returns the plan of an engine that claims the instance outright
// (Engine.FastPath), if one does. Such plans depend on the input sizes
// alone, so core asks before paying for the estimate pre-pass.
func FastPath(in Input) (Plan, bool) {
	for _, e := range legal(in.Class) {
		if e.FastPath == nil {
			continue
		}
		if why := e.FastPath(in); why != "" {
			return choose(in, []Candidate{e.price(in)}, why), true
		}
	}
	return Plan{}, false
}

// choose builds the plan that runs the first of the ordered candidates.
func choose(in Input, cands []Candidate, reason string) Plan {
	return Plan{
		Class: in.Class.String(), Chosen: cands[0].Engine, Reason: reason, Candidates: cands,
		PredictedOut: in.Out, PredictedJoin: in.J, PredictedLoad: cands[0].PredictedLoad,
	}
}
