package boundcheck

import (
	"fmt"
	"strings"

	"mpcjoin/internal/core"
	"mpcjoin/internal/planner"
	"mpcjoin/internal/workload"
)

// planner.go is the dominated-engine checker for the cost-based planner:
// one controlled instance per query class, swept across cluster sizes,
// with the auto-planned run's measured MaxLoad asserted against every forced
// legal candidate. The planner is allowed to be approximate — estimates
// are estimates — but it must never pick an engine that measures more
// than PlannerSlack× worse than the best candidate on the instance.
// A failure means the cost model's ranking diverged from reality.

// PlannerSlack is the dominated-engine tolerance: the auto-planned run's
// measured MaxLoad must stay within this factor of the best forced
// candidate on every checked instance.
const PlannerSlack = 1.1

// CandidateLoad is one forced candidate's measured load on an instance,
// next to the load the planner predicted for it.
type CandidateLoad struct {
	Engine    string  `json:"engine"`
	MaxLoad   int     `json:"max_load"`
	Predicted float64 `json:"predicted_load,omitempty"`
}

// PlanResult is one (instance, p) planner measurement: what auto chose
// and measured, what every forced candidate measured, and whether auto
// stayed within PlannerSlack of the best.
type PlanResult struct {
	Name   string `json:"name"`
	Class  string `json:"class"`
	P      int    `json:"p"`
	N      int64  `json:"N"`
	Chosen string `json:"chosen"`
	// Predicted is the planner's load prediction for Chosen; AutoLoad the
	// auto run's measured MaxLoad (bit-identical to Chosen forced).
	Predicted  float64         `json:"predicted_load"`
	AutoLoad   int             `json:"auto_load"`
	Candidates []CandidateLoad `json:"candidates"`
	// Best is the forced candidate with the smallest measured MaxLoad;
	// the check is AutoLoad ≤ Slack·BestLoad.
	Best     string  `json:"best_engine"`
	BestLoad int     `json:"best_load"`
	Slack    float64 `json:"slack"`
	Ratio    float64 `json:"ratio"`
	OK       bool    `json:"ok"`
}

// planCases names the catalogue families the planner sweep runs on, one
// or two per query class, each at its canonical size.
var planCases = []string{"matmul-sparse", "matmul-dense", "line", "star", "star-like", "tree", "free-connex"}

// RunPlanner sweeps every planner case across cfg's cluster sizes. For
// each (instance, p) it executes the query auto-planned once and every legal
// candidate forced, and scores auto against the measured best. It also
// asserts the auto run's Stats are bit-identical to its chosen engine
// forced — the invariant that makes the comparison meaningful at all.
func RunPlanner(cfg Config) ([]PlanResult, error) {
	slack := PlannerSlack
	if cfg.Slack > 0 {
		slack = cfg.Slack
	}
	var out []PlanResult
	for _, name := range planCases {
		fam := workload.Named(name)
		q := fam.Query
		inst, meta := fam.Canonical(cfg.Quick)
		class := q.Classify()
		for _, p := range cfg.ps() {
			var plan planner.Plan
			_, st, err := core.Execute(intSR, q, inst, core.Options{
				Servers: p, Seed: cfg.Seed, PlanOut: &plan,
			})
			if err != nil {
				return nil, fmt.Errorf("planner-check: %s p=%d auto: %w", name, p, err)
			}
			r := PlanResult{
				Name: name, Class: class.String(), P: p, N: int64(meta.N),
				Chosen: plan.Chosen, Predicted: plan.PredictedLoad,
				AutoLoad: st.MaxLoad, Slack: slack,
			}
			for _, eng := range planner.Legal(class) {
				_, fst, err := core.Execute(intSR, q, inst, core.Options{
					Servers: p, Seed: cfg.Seed, Engine: eng,
				})
				if err != nil {
					return nil, fmt.Errorf("planner-check: %s p=%d engine=%s: %w", name, p, eng, err)
				}
				var pred float64
				for _, cand := range plan.Candidates {
					if cand.Engine == eng {
						pred = cand.PredictedLoad
					}
				}
				r.Candidates = append(r.Candidates, CandidateLoad{Engine: eng, MaxLoad: fst.MaxLoad, Predicted: pred})
				if r.Best == "" || fst.MaxLoad < r.BestLoad {
					r.Best, r.BestLoad = eng, fst.MaxLoad
				}
				if eng == plan.Chosen && fst != st {
					return nil, fmt.Errorf("planner-check: %s p=%d: auto Stats %+v != forced %s Stats %+v (auto/forced divergence)",
						name, p, st, eng, fst)
				}
			}
			limit := slack * float64(r.BestLoad)
			r.Ratio = float64(r.AutoLoad) / limit
			r.OK = float64(r.AutoLoad) <= limit
			out = append(out, r)
		}
	}
	return out, nil
}

// CheckPlanner returns a non-nil error listing every dominated-engine
// violation in results.
func CheckPlanner(results []PlanResult) error {
	var bad []string
	for _, r := range results {
		if !r.OK {
			bad = append(bad, fmt.Sprintf("%s p=%d: auto chose %s (load %d) but %s measured %d (> %.2f× tolerance)",
				r.Name, r.P, r.Chosen, r.AutoLoad, r.Best, r.BestLoad, r.Slack))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("planner-check: %d violation(s):\n  %s", len(bad), strings.Join(bad, "\n  "))
	}
	return nil
}
