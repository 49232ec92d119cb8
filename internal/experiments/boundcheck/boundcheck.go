// Package boundcheck is the Table 1 load-bound regression checker: it runs
// one controlled block workload per query class across a sweep of cluster
// sizes p and asserts the measured MaxLoad stays within a constant factor
// of the class's Table 1 formula (including the model's p² sample-sort
// term). A failure means an engine's load behavior regressed relative to
// the paper's bound — the experiments would still "work", just at the
// wrong asymptotics, which plain correctness tests cannot catch.
//
// The checker can also record each run's per-round load timeline
// (mpc.RoundTrace), so a bound violation in CI ships with the round that
// caused it. Tracing never changes loads, rounds or results.
package boundcheck

import (
	"fmt"
	"math"
	"strings"

	"mpcjoin/internal/core"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/planner"
	"mpcjoin/internal/semiring"
	"mpcjoin/internal/workload"
)

var intSR = semiring.IntSumProd{}

// Config selects the sweep.
type Config struct {
	// Quick shrinks instances for the CI short lane.
	Quick bool
	// Ps is the cluster sizes to sweep; nil means {4, 16, 64}.
	Ps []int
	// Slack overrides every class's default slack constant when positive.
	Slack float64
	// Seed drives hash partitioning (runs are reproducible per seed).
	Seed uint64
	// Trace records each run's per-round load timeline into Result.Trace.
	Trace bool
}

func (c Config) ps() []int {
	if len(c.Ps) == 0 {
		return []int{4, 16, 64}
	}
	return c.Ps
}

// Result is one (class, p) measurement against its Table 1 bound.
type Result struct {
	Class   string `json:"class"`
	P       int    `json:"p"`
	N       int64  `json:"N"`
	Out     int64  `json:"OUT"`
	MaxLoad int    `json:"maxLoad"`
	Rounds  int    `json:"rounds"`
	// Bound is the raw Table 1 formula value; the check is
	// MaxLoad ≤ Slack·Bound, and Ratio = MaxLoad/(Slack·Bound).
	Bound float64 `json:"bound"`
	Slack float64 `json:"slack"`
	Ratio float64 `json:"ratio"`
	OK    bool    `json:"ok"`
	// Trace is the run's per-round load timeline (Config.Trace only).
	Trace []mpc.RoundTrace `json:"trace,omitempty"`
}

// class is one checked row: a catalogue family at its canonical size, the
// engine forced on it, and the engine's Table 1 formula. The slack
// constants match the per-package loadbound tests.
type class struct {
	name   string
	slack  float64
	family string
	engine string
	bound  func(m workload.Meta, p int) float64
}

var classes = []class{
	// Theorem 1 linear branch on the OUT ≤ N/p regime: O((N+OUT)/p).
	{name: "matmul-linear", slack: 6, family: "matmul-fan2", engine: planner.EngineMatMulLinear,
		bound: func(m workload.Meta, p int) float64 {
			return 2*float64(m.N)/float64(p) + float64(m.Out)/float64(p) + float64(p*p)
		}},
	// Lemma 2 output-sensitive branch: (N1N2·OUT)^{1/3}/p^{2/3} + input + OUT terms.
	{name: "matmul-outsens", slack: 8, family: "matmul-fan4", engine: planner.EngineMatMulOutSens,
		bound: func(m workload.Meta, p int) float64 {
			n1 := int64(m.PerEdge["R1"])
			return planner.OutSensLoad(n1, n1, m.Out, p) +
				2*float64(n1)/float64(p) + float64(m.Out)/float64(p) + float64(p*p)
		}},
	// Theorem 5, 3-arm star, and Theorem 4, 3-relation line: the same
	// (N·OUT/p)^{2/3} + N√OUT/p per relation.
	{name: "star", slack: 8, family: "star", engine: planner.EngineStar, bound: threeRelBound},
	{name: "line", slack: 8, family: "line", engine: planner.EngineLine, bound: threeRelBound},
	// Theorem 6 on the Figure 3 twig: N·OUT^{2/3}/p + (N+OUT)/p.
	{name: "tree", slack: 8, family: "tree", engine: planner.EngineTree,
		bound: func(m workload.Meta, p int) float64 {
			nMax := 0
			for _, n := range m.PerEdge {
				if n > nMax {
					nMax = n
				}
			}
			out := float64(m.Out)
			return float64(nMax)*math.Pow(out, 2.0/3.0)/float64(p) +
				(float64(m.N)+out)/float64(p) + float64(p*p)
		}},
}

// threeRelBound is Theorems 4 and 5 on three relations of N/3 rows each.
func threeRelBound(m workload.Meta, p int) float64 {
	n, out := float64(m.N)/3, float64(m.Out)
	return math.Pow(n*out/float64(p), 2.0/3.0) + n*math.Sqrt(out)/float64(p) +
		(3*n+out)/float64(p) + float64(p*p)
}

// Run sweeps every class across cfg's cluster sizes and returns one Result
// per (class, p), with OK already evaluated.
func Run(cfg Config) ([]Result, error) {
	var out []Result
	for _, c := range classes {
		slack := c.slack
		if cfg.Slack > 0 {
			slack = cfg.Slack
		}
		fam := workload.Named(c.family)
		inst, meta := fam.Canonical(cfg.Quick)
		for _, p := range cfg.ps() {
			var tr *mpc.Tracer
			if cfg.Trace {
				tr = mpc.NewTracer()
			}
			_, st, err := core.Execute(intSR, fam.Query, inst, core.Options{
				Servers: p, Seed: cfg.Seed, Engine: c.engine, Tracer: tr,
			})
			if err != nil {
				return nil, fmt.Errorf("boundcheck: %s p=%d: %w", c.name, p, err)
			}
			bound := c.bound(meta, p)
			limit := slack * bound
			r := Result{
				Class: c.name, P: p, N: int64(meta.N), Out: meta.Out,
				MaxLoad: st.MaxLoad, Rounds: st.Rounds,
				Bound: bound, Slack: slack,
				Ratio: float64(st.MaxLoad) / limit,
				OK:    float64(st.MaxLoad) <= limit,
			}
			if tr != nil {
				r.Trace = tr.Rounds()
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// Check returns a non-nil error listing every bound violation in results.
func Check(results []Result) error {
	var bad []string
	for _, r := range results {
		if !r.OK {
			bad = append(bad, fmt.Sprintf("%s p=%d: load %d > %.0f (%.1f× Table-1 bound %.0f)",
				r.Class, r.P, r.MaxLoad, r.Slack*r.Bound, r.Slack, r.Bound))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("boundcheck: %d violation(s):\n  %s", len(bad), strings.Join(bad, "\n  "))
	}
	return nil
}
