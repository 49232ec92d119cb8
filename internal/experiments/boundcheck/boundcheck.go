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
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"mpcjoin/internal/db"
	"mpcjoin/internal/dist"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/linequery"
	"mpcjoin/internal/matmul"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/semiring"
	"mpcjoin/internal/starquery"
	"mpcjoin/internal/treequery"
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

func (c Config) scale(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
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

// measured is what one class run reports before the bound is applied.
type measured struct {
	n     int64 // total input size
	out   int64
	st    mpc.Stats
	bound float64
}

// class bundles a query class's workload, engine call and Table 1 formula.
// The slack constants match the per-package loadbound tests.
type class struct {
	name  string
	slack float64
	run   func(cfg Config, ex *mpc.Exec, p int) (measured, error)
}

var classes = []class{
	// Theorem 1 linear branch on the OUT ≤ N/p regime: O((N+OUT)/p).
	{name: "matmul-linear", slack: 6, run: func(cfg Config, ex *mpc.Exec, p int) (measured, error) {
		inst, meta := workload.MatMulBlocks(cfg.scale(512, 128), 2, 2)
		st, err := runMatMul(cfg, ex, inst, p, matmul.Linear)
		bound := 2*float64(meta.N)/float64(p) + float64(meta.Out)/float64(p) + float64(p*p)
		return measured{n: int64(meta.N), out: meta.Out, st: st, bound: bound}, err
	}},
	// Lemma 2 output-sensitive branch: (N1N2·OUT)^{1/3}/p^{2/3} + input + OUT terms.
	{name: "matmul-outsens", slack: 8, run: func(cfg Config, ex *mpc.Exec, p int) (measured, error) {
		inst, meta := workload.MatMulBlocks(cfg.scale(512, 128), 4, 4)
		st, err := runMatMul(cfg, ex, inst, p, matmul.OutputSensitive)
		n1 := float64(meta.PerEdge["R1"])
		bound := math.Cbrt(n1*n1*float64(meta.Out))/math.Pow(float64(p), 2.0/3.0) +
			2*n1/float64(p) + float64(meta.Out)/float64(p) + float64(p*p)
		return measured{n: int64(meta.N), out: meta.Out, st: st, bound: bound}, err
	}},
	// Theorem 5, 3-arm star: (N·OUT/p)^{2/3} + N√OUT/p per relation.
	{name: "star", slack: 8, run: func(cfg Config, ex *mpc.Exec, p int) (measured, error) {
		q := hypergraph.StarQuery(3)
		inst, meta := workload.Blocks(q, cfg.scale(256, 64), 4)
		res, err := runClass(cfg, ex, q, inst, p, func(rels map[string]dist.Rel[int64]) (mpc.Stats, error) {
			_, st, err := starquery.Compute(intSR, q, rels, starquery.Options{Seed: cfg.Seed})
			return st, err
		})
		n, out := float64(meta.N)/3, float64(meta.Out)
		bound := math.Pow(n*out/float64(p), 2.0/3.0) + n*math.Sqrt(out)/float64(p) +
			(3*n+out)/float64(p) + float64(p*p)
		return measured{n: int64(meta.N), out: meta.Out, st: res, bound: bound}, err
	}},
	// Theorem 4, 3-relation line: N√OUT/p + (N·OUT/p)^{2/3}.
	{name: "line", slack: 8, run: func(cfg Config, ex *mpc.Exec, p int) (measured, error) {
		q := hypergraph.LineQuery(3)
		inst, meta := workload.Blocks(q, cfg.scale(256, 64), 4)
		res, err := runClass(cfg, ex, q, inst, p, func(rels map[string]dist.Rel[int64]) (mpc.Stats, error) {
			_, st, err := linequery.Compute(intSR, q, rels, linequery.Options{Seed: cfg.Seed})
			return st, err
		})
		n, out := float64(meta.N)/3, float64(meta.Out)
		bound := n*math.Sqrt(out)/float64(p) + math.Pow(n*out/float64(p), 2.0/3.0) +
			(3*n+out)/float64(p) + float64(p*p)
		return measured{n: int64(meta.N), out: meta.Out, st: res, bound: bound}, err
	}},
	// Theorem 6 on the Figure 3 twig: N·OUT^{2/3}/p + (N+OUT)/p.
	{name: "tree", slack: 8, run: func(cfg Config, ex *mpc.Exec, p int) (measured, error) {
		q := hypergraph.Fig3Twig()
		inst, meta := workload.BlocksMulti(q, cfg.scale(64, 16), 2, 2)
		res, err := runClass(cfg, ex, q, inst, p, func(rels map[string]dist.Rel[int64]) (mpc.Stats, error) {
			_, st, err := treequery.Compute(intSR, q, rels, treequery.Options{Seed: cfg.Seed})
			return st, err
		})
		nMax := 0
		for _, n := range meta.PerEdge {
			if n > nMax {
				nMax = n
			}
		}
		out := float64(meta.Out)
		bound := float64(nMax)*math.Pow(out, 2.0/3.0)/float64(p) +
			(float64(meta.N)+out)/float64(p) + float64(p*p)
		return measured{n: int64(meta.N), out: meta.Out, st: res, bound: bound}, err
	}},
}

func runMatMul(cfg Config, ex *mpc.Exec, inst db.Instance[int64], p int, alg matmul.Algorithm) (mpc.Stats, error) {
	in := matmul.Input[int64]{
		R1: dist.FromRelationIn(ex, inst["R1"], p),
		R2: dist.FromRelationIn(ex, inst["R2"], p),
		B:  "B",
	}
	_, st, err := matmul.Compute(intSR, in, matmul.Options{Algorithm: alg, Seed: cfg.Seed})
	return st, err
}

func runClass(cfg Config, ex *mpc.Exec, q *hypergraph.Query, inst db.Instance[int64], p int,
	compute func(map[string]dist.Rel[int64]) (mpc.Stats, error)) (mpc.Stats, error) {
	rels := make(map[string]dist.Rel[int64], len(q.Edges))
	for _, e := range q.Edges {
		rels[e.Name] = dist.FromRelationIn(ex, inst[e.Name], p)
	}
	return compute(rels)
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
		for _, p := range cfg.ps() {
			ex := mpc.NewExec(context.Background(), 0)
			var tr *mpc.Tracer
			if cfg.Trace {
				tr = mpc.NewTracer()
				ex = ex.WithTracer(tr)
			}
			m, err := c.run(cfg, ex, p)
			if err != nil {
				return nil, fmt.Errorf("boundcheck: %s p=%d: %w", c.name, p, err)
			}
			limit := slack * m.bound
			r := Result{
				Class: c.name, P: p, N: m.n, Out: m.out,
				MaxLoad: m.st.MaxLoad, Rounds: m.st.Rounds,
				Bound: m.bound, Slack: slack,
				Ratio: float64(m.st.MaxLoad) / limit,
				OK:    float64(m.st.MaxLoad) <= limit,
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

// WriteJSON writes results as indented JSON (the CI artifact format).
func WriteJSON(w io.Writer, results []Result) error {
	if results == nil {
		results = []Result{} // marshal as [], not null
	}
	buf, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}
