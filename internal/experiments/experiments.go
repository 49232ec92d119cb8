// Package experiments regenerates the paper's results: one experiment per
// Table 1 row (per query class, plus the min{·,·} crossover, unequal sizes
// and p-scaling), the Theorem 2/3 lower-bound audits, the Figure 1–4
// decomposition reproductions, the §2.2 estimator accuracy check, and two
// ablations (locality, parallel packing). Each experiment returns text
// tables; cmd/mpcbench prints them and bench_test.go wraps them in
// testing.B benchmarks. EXPERIMENTS.md records expected vs measured shape.
package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	stdruntime "runtime"

	"mpcjoin/internal/core"
	"mpcjoin/internal/db"
	"mpcjoin/internal/dist"
	"mpcjoin/internal/estimate"
	"mpcjoin/internal/hypercube"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/lowerbound"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/planner"
	"mpcjoin/internal/refengine"
	"mpcjoin/internal/relation"
	"mpcjoin/internal/runtime"
	"mpcjoin/internal/semiring"
	"mpcjoin/internal/transport"
	"mpcjoin/internal/workload"
)

var intSR = semiring.IntSumProd{}

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Bench holds the machine-readable benchmark records backing the text
	// rows, for cmd/mpcbench -json. Experiments that don't time engine
	// runs leave it empty.
	Bench []BenchRow
}

// BenchRow is one machine-readable benchmark record: the experiment it
// came from, the instance shape, the metered cost of the new engine's run,
// and its wall-clock time under the configured worker count. Run stamps
// ID and Workers uniformly after an experiment returns.
type BenchRow struct {
	ID      string `json:"id"`
	P       int    `json:"p"`
	N       int64  `json:"N"`
	Out     int64  `json:"OUT"`
	MaxLoad int    `json:"maxLoad"`
	Rounds  int    `json:"rounds"`
	WallNs  int64  `json:"wallNs"`
	Workers int    `json:"workers"`
	// GoMaxProcs and Commit identify the machine parallelism and source
	// revision a wall-clock number was measured under, so rows from
	// different checkouts/hosts can be compared honestly.
	GoMaxProcs int    `json:"gomaxprocs"`
	Commit     string `json:"commit,omitempty"`
	// Trace is the per-round load timeline of the new engine's run,
	// recorded only under Config.Trace (mpcbench -trace).
	Trace []mpc.RoundTrace `json:"trace,omitempty"`
	// Faults is the fault plane's per-run accounting, recorded only
	// under Config.Faults (mpcbench -faults). The row's MaxLoad/Rounds
	// are the base metered cost and exclude fault overhead by design.
	Faults *mpc.FaultReport `json:"faults,omitempty"`
	// Transport names the exchange backend the benched run's rounds
	// travelled over ("inproc", "tcp"). Loads, rounds and tables are
	// identical for every backend; only wallNs changes.
	Transport string `json:"transport"`
	// Plan is the plan the benched run executed, recorded only under
	// Config.Explain (mpcbench -explain). Plan.Chosen always names the
	// engine the metered Stats came from; planner-routed runs also carry
	// the ranked candidates with their predicted loads, while experiments
	// that pin their section's engine record a forced plan.
	Plan *planner.Plan `json:"plan,omitempty"`
}

// addBench records one benchmark row (ID/Workers are stamped by Run).
func (t *Table) addBench(p int, n, out int64, rb bothRun) {
	t.Bench = append(t.Bench, BenchRow{
		P: p, N: n, Out: out,
		MaxLoad: rb.stNew.MaxLoad, Rounds: rb.stNew.Rounds, WallNs: rb.wall.Nanoseconds(),
		Trace: rb.trace, Faults: rb.faults, Plan: rb.plan,
	})
}

// Format renders a Table as aligned text.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Config scales experiment sizes.
type Config struct {
	// Quick shrinks instances for fast iteration (benchmarks use it).
	Quick bool
	// Seed makes runs reproducible.
	Seed uint64
	// Workers sizes the concurrent execution runtime for the experiment
	// (0 and 1 = serial, n > 1 = n OS workers, negative = GOMAXPROCS).
	// Loads and all table contents are identical for every setting; only
	// wallNs in Bench rows changes.
	Workers int
	// Trace records the per-round load timeline of every benched engine
	// run into BenchRow.Trace (mpcbench -trace -json). Tracing never
	// changes loads, rounds or results.
	Trace bool
	// Faults, when enabled, runs every benched (new-engine) execution
	// under a deterministic fault plane (mpcbench -faults). Absorbed
	// schedules leave tables, loads and verification identical to the
	// fault-free run — only wallNs and BenchRow.Faults change; a
	// schedule the retry budget cannot absorb fails the experiment.
	Faults mpc.FaultSpec
	// Transport, when set, carries every benched (new-engine) execution's
	// exchange rounds over the given backend (mpcbench -transport). The
	// verification baseline always runs in process, so each experiment's
	// "verified" column doubles as a cross-transport bit-identity check.
	// nil = in-process.
	Transport transport.Transport
	// Explain attaches the plan each benched run executed to its BenchRow
	// (mpcbench -explain -json): the chosen engine and, for
	// planner-routed runs, the ranked candidates with predicted loads.
	// Planning always happens; Explain only controls whether the plan is
	// recorded, so loads, rounds and tables are identical either way.
	Explain bool
}

// transportName resolves the backend label stamped into BenchRow rows.
func (c Config) transportName() string {
	if c.Transport == nil {
		return "inproc"
	}
	return c.Transport.Name()
}

// effectiveWorkers resolves Config.Workers to the pool size runs use.
func (c Config) effectiveWorkers() int {
	switch {
	case c.Workers > 0:
		return c.Workers
	case c.Workers < 0:
		return runtime.New(0).Workers()
	default:
		return 1
	}
}

func (c Config) scale(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

// exec returns a fresh per-experiment execution scope sized by
// c.Workers, for the two experiments that drive something other than a
// table engine on distributed relations: EST-OUT (the estimator alone)
// and ALT-fulljoin (hypercube). Everything else goes through forced.
func (c Config) exec() *mpc.Exec {
	return mpc.NewExec(context.Background(), c.Workers)
}

// faultPlane returns a fresh fault plane for one benched run (nil when
// c.Faults is disabled). Each run gets its own plane so BenchRow.Faults
// reports per-run accounting; the spec's seed defaults off c.Seed so
// -faults without an explicit seed is still reproducible.
func (c Config) faultPlane() *mpc.FaultPlane {
	if !c.Faults.Enabled() {
		return nil
	}
	spec := c.Faults
	if spec.Seed == 0 {
		spec.Seed = c.Seed + 1
	}
	return mpc.NewFaultPlane(spec)
}

// IDs lists all experiment identifiers in canonical order.
func IDs() []string {
	return []string{
		"T1-MM-load", "T1-MM-crossover", "T1-MM-unequal",
		"T1-Line-load", "T1-Star-load", "T1-Tree-load",
		"T1-scaling-p", "T1-rounds",
		"LB-Thm2", "LB-Thm3",
		"FIG1-starlike", "FIG2-twigs",
		"EST-OUT",
		"ABL-locality", "ABL-packing",
		"ALT-fulljoin",
		"GRAPH-iterload",
	}
}

// GraphIDs lists the iterated graph-analytics experiment identifiers —
// the subset of IDs the mpcbench -graph lane runs on its own.
func GraphIDs() []string {
	return []string{"GRAPH-iterload"}
}

// Run executes one experiment. cfg.Workers travels with each engine run's
// execution scope (core.Options.Workers / mpc.NewExec), so concurrent Run
// calls with different worker counts never interact — no process-global
// runtime is installed.
func Run(id string, cfg Config) (Table, error) {
	t, err := run(id, cfg)
	workers := cfg.effectiveWorkers()
	commit := buildCommit()
	procs := stdruntime.GOMAXPROCS(0)
	name := cfg.transportName()
	for i := range t.Bench {
		t.Bench[i].ID = t.ID
		t.Bench[i].Workers = workers
		t.Bench[i].GoMaxProcs = procs
		t.Bench[i].Commit = commit
		t.Bench[i].Transport = name
	}
	return t, err
}

// buildCommit reports the VCS revision the binary was built from (with a
// "-dirty" suffix for modified trees), or "" when build info carries no
// stamp (e.g. plain `go test` builds).
var buildCommit = sync.OnceValue(func() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, dirty string
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "-dirty"
			}
		}
	}
	if rev == "" {
		return ""
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	return rev + dirty
})

func run(id string, cfg Config) (Table, error) {
	switch id {
	case "T1-MM-load":
		return mmLoad(cfg), nil
	case "T1-MM-crossover":
		return mmCrossover(cfg), nil
	case "T1-MM-unequal":
		return mmUnequal(cfg), nil
	case "T1-Line-load":
		return classLoad(cfg, "T1-Line-load", hypergraph.LineQuery(3), planner.EngineLine), nil
	case "T1-Star-load":
		return classLoad(cfg, "T1-Star-load", hypergraph.StarQuery(3), planner.EngineStar), nil
	case "T1-Tree-load":
		return treeLoad(cfg), nil
	case "T1-scaling-p":
		return scalingP(cfg), nil
	case "T1-rounds":
		return roundsConstant(cfg), nil
	case "LB-Thm2":
		return lbThm2(cfg), nil
	case "LB-Thm3":
		return lbThm3(cfg), nil
	case "FIG1-starlike":
		return fig1(cfg), nil
	case "FIG2-twigs":
		return fig2(cfg), nil
	case "EST-OUT":
		return estOut(cfg), nil
	case "ABL-locality":
		return ablLocality(cfg), nil
	case "ABL-packing":
		return ablPacking(cfg), nil
	case "ALT-fulljoin":
		return altFullJoin(cfg), nil
	case "GRAPH-iterload":
		return graphIterLoad(cfg), nil
	}
	return Table{}, fmt.Errorf("experiments: unknown id %q", id)
}

// bothRun is runEngine's result: the full metered Stats of both engines, the
// new engine's wall-clock time on the current runtime, the chosen engine,
// whether the two answers agree, and (under Config.Trace) the new engine's
// per-round load timeline.
type bothRun struct {
	stNew, stY mpc.Stats
	wall       time.Duration
	engine     string
	verified   bool
	trace      []mpc.RoundTrace
	faults     *mpc.FaultReport
	plan       *planner.Plan
}

// runEngine executes the query under the given engine (empty = let the
// cost-based planner choose) and under the baseline, verifying they agree.
// Experiments that reproduce a section's algorithm force its engine so the
// figure measures that engine even when the planner would route the
// instance elsewhere. Under Config.Faults the benched run carries a fresh
// fault plane while the baseline stays fault-free, so verification doubles
// as a retry-transparency check: an absorbed schedule must still agree with
// the undisturbed baseline. Config.Transport likewise rides only the
// benched run; the baseline always exchanges in process.
func runEngine(cfg Config, q *hypergraph.Query, inst db.Instance[int64], p int, engine string) bothRun {
	var tr *mpc.Tracer
	if cfg.Trace {
		tr = mpc.NewTracer()
	}
	fp := cfg.faultPlane()
	var plan planner.Plan
	t0 := time.Now()
	resNew, stNew, err := core.Execute(intSR, q, inst, core.Options{Servers: p, Seed: cfg.Seed, Workers: cfg.Workers, Tracer: tr, Faults: fp, Transport: cfg.Transport, Engine: engine, PlanOut: &plan})
	wall := time.Since(t0)
	if err != nil {
		panic(err)
	}
	resY, stY := forced(cfg, intSR, q, inst, p, planner.EngineYannakakis)
	eq := relation.Equal[int64](intSR, func(a, b int64) bool { return a == b }, resNew, resY)
	rb := bothRun{stNew: stNew, stY: stY, wall: wall, engine: plan.Chosen, verified: eq}
	if cfg.Explain {
		rb.plan = &plan
	}
	if tr != nil {
		rb.trace = tr.Rounds()
	}
	if fp != nil {
		rep := fp.Report()
		rb.faults = &rep
	}
	return rb
}

// forced runs q over inst on p servers with the named engine forced, on
// the fault-free in-process path: the baselines and the branch-by-branch
// comparisons. Instances and engine names are the experiments' own, so a
// failure is a bug and panics.
func forced[W any](cfg Config, sr semiring.Semiring[W], q *hypergraph.Query, inst db.Instance[W], p int, engine string) (*relation.Relation[W], mpc.Stats) {
	res, st, err := core.Execute(sr, q, inst, core.Options{Servers: p, Seed: cfg.Seed, Workers: cfg.Workers, Engine: engine})
	if err != nil {
		panic(err)
	}
	return res, st
}

// ---------------------------------------------------------------------------
// T1-MM-*
// ---------------------------------------------------------------------------

// mmLoad sweeps OUT at (near-)fixed N on block instances and compares the
// Theorem 1 algorithm's load against distributed Yannakakis — Table 1 row 1.
func mmLoad(cfg Config) Table {
	q := hypergraph.MatMulQuery()
	n := cfg.scale(8192, 1024)
	p := cfg.scale(16, 8)
	t := Table{
		ID:     "T1-MM-load",
		Title:  "sparse matmul: load vs OUT (N per side ≈ const)",
		Header: []string{"fan", "N1=N2", "OUT", "L_new", "L_yann", "ratio", "bound_new", "bound_yann", "verified"},
		Notes: []string{
			"bound_new = min{√(N1N2/p), (N1N2·OUT)^{1/3}/p^{2/3}}; bound_yann = N·√OUT/p",
			"expected shape: L_new grows ~OUT^{1/3}, L_yann ~OUT^{1/2}; ratio widens with OUT",
		},
	}
	for _, fan := range []int{2, 4, 8, 16, 32} {
		blocks := n / fan
		inst, meta := workload.MatMulBlocks(blocks, fan, fan)
		n1 := int64(meta.PerEdge["R1"])
		rb := runEngine(cfg, q, inst, p, planner.EngineMatMul)
		lNew, lY, ok := rb.stNew.MaxLoad, rb.stY.MaxLoad, rb.verified
		t.addBench(p, int64(meta.N), meta.Out, rb)
		bn := math.Min(planner.WorstCaseLoad(n1, n1, p), planner.OutSensLoad(n1, n1, meta.Out, p))
		by := float64(n1) * math.Sqrt(float64(meta.Out)) / float64(p)
		t.Rows = append(t.Rows, []string{
			itoa(fan), i64(n1), i64(meta.Out), itoa(lNew), itoa(lY),
			f2(float64(lY) / float64(maxi(lNew, 1))), f0(bn), f0(by), tick(ok),
		})
	}
	return t
}

// mmCrossover forces both §3 branches across the min{·,·} boundary
// OUT ≈ N·√p and reports which one the dispatcher picks.
func mmCrossover(cfg Config) Table {
	n := cfg.scale(8192, 1024)
	p := cfg.scale(16, 8)
	t := Table{
		ID:     "T1-MM-crossover",
		Title:  "worst-case vs output-sensitive branch crossover (expected at OUT ≈ N·√p)",
		Header: []string{"OUT", "OUT/(N√p)", "L_wc", "L_os", "auto_picks", "verified"},
		Notes:  []string{"the dispatcher must pick the smaller branch on each side of the boundary"},
	}
	boundary := float64(n) * math.Sqrt(float64(p))
	q := hypergraph.MatMulQuery()
	for _, fan := range []int{2, 4, 8, 32, 128} {
		blocks := n / fan
		if blocks < 1 {
			blocks = 1
		}
		inst, meta := workload.MatMulBlocks(blocks, fan, fan)
		resWC, stWC := forced(cfg, intSR, q, inst, p, planner.EngineMatMulWorstCase)
		resOS, stOS := forced(cfg, intSR, q, inst, p, planner.EngineMatMulOutSens)
		ok := relation.Equal[int64](intSR, func(a, b int64) bool { return a == b }, resWC, resOS)
		pick := "worst-case"
		n1 := int64(meta.PerEdge["R1"])
		if planner.OutSensLoad(n1, n1, meta.Out, p) < planner.WorstCaseLoad(n1, n1, p) {
			pick = "output-sensitive"
		}
		t.Rows = append(t.Rows, []string{
			i64(meta.Out), f2(float64(meta.Out) / boundary),
			itoa(stWC.MaxLoad), itoa(stOS.MaxLoad), pick, tick(ok),
		})
	}
	return t
}

// mmUnequal sweeps N1/N2, exercising Theorem 1's unequal-size bound and
// the N1/N2 ∉ [1/p, p] fast path.
func mmUnequal(cfg Config) Table {
	q := hypergraph.MatMulQuery()
	p := cfg.scale(16, 8)
	n2 := cfg.scale(8192, 1024)
	t := Table{
		ID:     "T1-MM-unequal",
		Title:  "matmul with unequal input sizes",
		Header: []string{"N1", "N2", "OUT", "L_new", "L_yann", "bound_new", "verified"},
		Notes:  []string{"bound_new = (N1+N2)/p + min{√(N1N2)/p·√p, (N1N2·OUT)^{1/3}/p^{2/3}}"},
	}
	for _, ratio := range []int{1, 4, 16, 64, 16 * p} {
		n1 := n2 / ratio
		if n1 < 2 {
			n1 = 2
		}
		blocks := n1 / 2
		if blocks < 1 {
			blocks = 1
		}
		aPer := maxi(n1/blocks, 1)
		cPer := maxi(n2/blocks, 1)
		inst, meta := workload.MatMulBlocks(blocks, aPer, cPer)
		rn1, rn2 := int64(meta.PerEdge["R1"]), int64(meta.PerEdge["R2"])
		rb := runEngine(cfg, q, inst, p, planner.EngineMatMul)
		lNew, lY, ok := rb.stNew.MaxLoad, rb.stY.MaxLoad, rb.verified
		t.addBench(p, int64(meta.N), meta.Out, rb)
		bn := float64(rn1+rn2)/float64(p) + math.Min(planner.WorstCaseLoad(rn1, rn2, p), planner.OutSensLoad(rn1, rn2, meta.Out, p))
		t.Rows = append(t.Rows, []string{
			i64(rn1), i64(rn2), i64(meta.Out), itoa(lNew), itoa(lY), f0(bn), tick(ok),
		})
	}
	return t
}

// ---------------------------------------------------------------------------
// T1 line/star/tree
// ---------------------------------------------------------------------------

// classLoad sweeps OUT on block instances of a query class.
func classLoad(cfg Config, id string, q *hypergraph.Query, name string) Table {
	p := cfg.scale(16, 8)
	base := cfg.scale(2048, 256)
	t := Table{
		ID:     id,
		Title:  name + " query: load vs OUT (block instances)",
		Header: []string{"fan", "N", "OUT", "J", "L_new", "L_yann", "ratio", "verified"},
		Notes: []string{
			"Table 1: baseline load N·OUT^{1-1/n}/p (star) / N·OUT/p (line); new (N·OUT/p)^{2/3}+N·√OUT/p",
			"expected: ratio L_yann/L_new grows with OUT; the J > OUT regime is exercised by T1-Tree-load and ABL-locality",
		},
	}
	for _, fan := range []int{2, 4, 8, 16} {
		blocks := base / fan
		if blocks < 1 {
			blocks = 1
		}
		inst, meta := workload.Blocks(q, blocks, fan)
		j, _ := refengine.MaxIntermediateJoin[int64](intSR, q, inst)
		rb := runEngine(cfg, q, inst, p, name)
		lNew, lY, ok := rb.stNew.MaxLoad, rb.stY.MaxLoad, rb.verified
		t.addBench(p, int64(meta.N), meta.Out, rb)
		t.Rows = append(t.Rows, []string{
			itoa(fan), itoa(meta.N), i64(meta.Out), itoa(j), itoa(lNew), itoa(lY),
			f2(float64(lY) / float64(maxi(lNew, 1))), tick(ok),
		})
	}
	return t
}

// treeLoad sweeps OUT on the Figure 3 twig — the general-tree engine.
func treeLoad(cfg Config) Table {
	q := hypergraph.Fig3Twig()
	p := cfg.scale(16, 8)
	t := Table{
		ID:     "T1-Tree-load",
		Title:  "general tree query (Figure 3 twig): load vs OUT",
		Header: []string{"blocks", "fan/mult", "N", "OUT", "J", "L_new", "L_yann", "ratio", "verified"},
		Notes: []string{
			"Table 1: baseline N·OUT/p vs new N·OUT^{2/3}/p + (N+OUT)/p",
			"mult = per-block multiplicity of non-output attributes: J (the baseline's cost) grows with it, OUT does not",
		},
	}
	for _, sc := range []struct{ blocks, fan, mult int }{
		{cfg.scale(64, 8), 2, 1}, {cfg.scale(64, 8), 2, 2},
		{cfg.scale(32, 8), 2, 4}, {cfg.scale(32, 8), 2, 6},
	} {
		inst, meta := workload.BlocksMulti(q, sc.blocks, sc.fan, sc.mult)
		j, _ := refengine.MaxIntermediateJoin[int64](intSR, q, inst)
		rb := runEngine(cfg, q, inst, p, planner.EngineTree)
		lNew, lY, ok := rb.stNew.MaxLoad, rb.stY.MaxLoad, rb.verified
		t.addBench(p, int64(meta.N), meta.Out, rb)
		t.Rows = append(t.Rows, []string{
			itoa(sc.blocks), fmt.Sprintf("%d/%d", sc.fan, sc.mult), itoa(meta.N), i64(meta.Out),
			itoa(j), itoa(lNew), itoa(lY), f2(float64(lY) / float64(maxi(lNew, 1))), tick(ok),
		})
	}
	return t
}

// scalingP fixes an instance and sweeps p, forcing each §3 branch and the
// baseline separately and fitting their load exponents in p.
func scalingP(cfg Config) Table {
	n := cfg.scale(16384, 1024)
	fan := 2 // below √p for the whole sweep: output-sensitive regime
	inst, meta := workload.MatMulBlocks(n/fan, fan, fan)
	q := hypergraph.MatMulQuery()
	t := Table{
		ID:     "T1-scaling-p",
		Title:  "load vs p on a fixed matmul instance (branches forced)",
		Header: []string{"p", "L_os", "L_wc", "L_yann"},
		Notes: []string{
			"theory: L_os ∝ p^{-2/3}, L_wc ∝ p^{-1/2}, L_yann ∝ p^{-1}",
			"p capped so the sample-sort p² term stays below N/p (the model's N ≥ p^{1+ε} regime)",
		},
	}
	var ps, los, lwc, lys []float64
	for _, p := range []int{4, 8, 16, 32} {
		_, stOS := forced(cfg, intSR, q, inst, p, planner.EngineMatMulOutSens)
		_, stWC := forced(cfg, intSR, q, inst, p, planner.EngineMatMulWorstCase)
		_, stY := forced(cfg, intSR, q, inst, p, planner.EngineYannakakis)
		t.Rows = append(t.Rows, []string{itoa(p), itoa(stOS.MaxLoad), itoa(stWC.MaxLoad), itoa(stY.MaxLoad)})
		ps = append(ps, float64(p))
		los = append(los, float64(stOS.MaxLoad))
		lwc = append(lwc, float64(stWC.MaxLoad))
		lys = append(lys, float64(stY.MaxLoad))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("fitted exponents: L_os ∝ p^%.2f, L_wc ∝ p^%.2f, L_yann ∝ p^%.2f (N=%d, OUT=%d)",
			FitExponent(ps, los), FitExponent(ps, lwc), FitExponent(ps, lys), meta.N, meta.Out))
	return t
}

// roundsConstant checks the O(1)-round claim: for each query class, the
// round count of the new algorithm at N and at 16·N must be equal — the
// verified column reads MISMATCH otherwise.
func roundsConstant(cfg Config) Table {
	p := cfg.scale(16, 8)
	t := Table{
		ID:     "T1-rounds",
		Title:  "constant rounds: round count vs data size per query class",
		Header: []string{"class", "N_small", "rounds", "N_large", "rounds_large", "verified"},
		Notes: []string{
			"the model requires O(1) rounds; the simulator's counts are conservative upper bounds",
			"(conceptually parallel phases inside one subquery are partially serialized) but must not change with N",
		},
	}
	classes := []struct {
		name string
		q    *hypergraph.Query
	}{
		{planner.EngineMatMul, hypergraph.MatMulQuery()},
		{planner.EngineLine, hypergraph.LineQuery(3)},
		{planner.EngineStar, hypergraph.StarQuery(3)},
		{planner.EngineStarLike, hypergraph.Fig1StarLike()},
		{planner.EngineTree, hypergraph.Fig3Twig()},
	}
	small := cfg.scale(64, 16)
	large := 16 * small
	for _, c := range classes {
		// Each row pins its class engine (the row label IS the engine) so
		// the round counts keep describing that engine even where the
		// cost-based planner would route the instance elsewhere.
		instS, metaS := workload.Blocks(c.q, small, 2)
		instL, metaL := workload.Blocks(c.q, large, 2)
		_, stS := forced(cfg, intSR, c.q, instS, p, c.name)
		_, stL := forced(cfg, intSR, c.q, instL, p, c.name)
		t.Rows = append(t.Rows, []string{
			c.name, itoa(metaS.N), itoa(stS.Rounds), itoa(metaL.N), itoa(stL.Rounds), tick(stS.Rounds == stL.Rounds),
		})
	}
	return t
}

// ---------------------------------------------------------------------------
// Lower-bound audits
// ---------------------------------------------------------------------------

func lbThm2(cfg Config) Table {
	p := cfg.scale(16, 8)
	n := int64(cfg.scale(4096, 512))
	t := Table{
		ID:     "LB-Thm2",
		Title:  "Theorem 2 hard instance: measured load vs Ω((N1+N2)/p)",
		Header: []string{"N1", "N2", "OUT", "bound", "L_measured", "L/bound"},
		Notes:  []string{"idempotent (Boolean) semiring, as the theorem requires"},
	}
	q := hypergraph.MatMulQuery()
	for _, out := range []int64{n, 2 * n, 4 * n} {
		hard, err := lowerbound.Thm2(n, n, out)
		if err != nil {
			panic(err)
		}
		_, st := forced[bool](cfg, semiring.BoolOrAnd{}, q, hard.Inst, p, planner.EngineMatMul)
		bound := lowerbound.Thm2Bound(hard.N1, hard.N2, p)
		t.Rows = append(t.Rows, []string{
			i64(hard.N1), i64(hard.N2), i64(hard.Out), f0(bound),
			itoa(st.MaxLoad), f2(float64(st.MaxLoad) / bound),
		})
	}
	return t
}

func lbThm3(cfg Config) Table {
	p := cfg.scale(16, 8)
	n := int64(cfg.scale(4096, 512))
	t := Table{
		ID:     "LB-Thm3",
		Title:  "Theorem 3 hard instance: measured load vs Ω(min{√(N1N2/p), (N1N2·OUT)^{1/3}/p^{2/3}})",
		Header: []string{"N1", "N2", "OUT", "bound", "L_measured", "L/bound"},
		Notes:  []string{"constant-factor gap = optimality evidence (Theorem 1 matches Theorem 3)"},
	}
	q := hypergraph.MatMulQuery()
	for _, out := range []int64{4 * n, 64 * n, n * n / 4} {
		hard, err := lowerbound.Thm3(n, n, out)
		if err != nil {
			panic(err)
		}
		_, st := forced[bool](cfg, semiring.BoolOrAnd{}, q, hard.Inst, p, planner.EngineMatMul)
		bound := lowerbound.Thm3Bound(hard.N1, hard.N2, hard.Out, p)
		t.Rows = append(t.Rows, []string{
			i64(hard.N1), i64(hard.N2), i64(hard.Out), f0(bound),
			itoa(st.MaxLoad), f2(float64(st.MaxLoad) / bound),
		})
	}
	return t
}

// ---------------------------------------------------------------------------
// Figures
// ---------------------------------------------------------------------------

func fig1(cfg Config) Table {
	q := hypergraph.Fig1StarLike()
	p := cfg.scale(32, 8)
	t := Table{
		ID:     "FIG1-starlike",
		Title:  "Figure 1 star-like query (5 arms) through the §6 engine",
		Header: []string{"blocks", "fan", "OUT", "L_new", "L_yann", "verified"},
	}
	view, _ := q.StarLikeView()
	t.Notes = append(t.Notes, fmt.Sprintf("center=%s arms=%d (arm 2 inner chain: C21–C22, as in the figure)",
		view.Center, len(view.Arms)))
	for _, sc := range []struct{ blocks, fan int }{{cfg.scale(128, 16), 1}, {cfg.scale(64, 8), 2}} {
		inst, meta := workload.Blocks(q, sc.blocks, sc.fan)
		rb := runEngine(cfg, q, inst, p, planner.EngineStarLike)
		lNew, lY, ok := rb.stNew.MaxLoad, rb.stY.MaxLoad, rb.verified
		t.addBench(p, int64(meta.N), meta.Out, rb)
		if rb.engine != planner.EngineStarLike {
			panic("FIG1 must run the star-like engine, got " + rb.engine)
		}
		t.Rows = append(t.Rows, []string{
			itoa(sc.blocks), itoa(sc.fan), i64(meta.Out), itoa(lNew), itoa(lY), tick(ok),
		})
	}
	return t
}

func fig2(cfg Config) Table {
	q := hypergraph.Fig2Tree()
	p := cfg.scale(32, 8)
	t := Table{
		ID:     "FIG2-twigs",
		Title:  "Figure 2 tree: reduction + twig decomposition + execution",
		Header: []string{"blocks", "fan", "OUT", "L_new", "L_yann", "verified"},
	}
	reduced, steps := hypergraph.ReducePlan(q)
	twigs := hypergraph.Twigs(reduced)
	classes := map[string]int{}
	for _, tw := range twigs {
		if len(tw.Query.Edges) == 1 {
			classes["single"]++
			continue
		}
		classes[tw.Query.Classify().String()]++
	}
	t.Notes = append(t.Notes, fmt.Sprintf("reduction removes %d edges; %d twigs: %v (paper: 2 single, 2 matmul, 1 star-like, 1 general)",
		len(steps), len(twigs), fmtClasses(classes)))
	for _, sc := range []struct{ blocks, fan int }{{cfg.scale(64, 8), 1}, {cfg.scale(16, 4), 2}} {
		inst, meta := workload.Blocks(q, sc.blocks, sc.fan)
		rb := runEngine(cfg, q, inst, p, planner.EngineTree)
		lNew, lY, ok := rb.stNew.MaxLoad, rb.stY.MaxLoad, rb.verified
		t.addBench(p, int64(meta.N), meta.Out, rb)
		t.Rows = append(t.Rows, []string{
			itoa(sc.blocks), itoa(sc.fan), i64(meta.Out), itoa(lNew), itoa(lY), tick(ok),
		})
	}
	return t
}

func fmtClasses(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%d×%s", m[k], k))
	}
	return strings.Join(parts, ", ")
}

// ---------------------------------------------------------------------------
// Estimator and ablations
// ---------------------------------------------------------------------------

func estOut(cfg Config) Table {
	p := cfg.scale(16, 8)
	t := Table{
		ID:     "EST-OUT",
		Title:  "§2.2 output-size estimator accuracy (constant-factor claim)",
		Header: []string{"workload", "true_OUT", "estimate", "est/true", "L_est"},
	}
	rng := rand.New(rand.NewSource(int64(cfg.Seed) + 3))
	q := hypergraph.MatMulQuery()
	ex := cfg.exec()

	run := func(name string, inst db.Instance[int64]) {
		red := refengine.RemoveDangling(q, inst)
		trueOut, err := refengine.CountOutput[int64](intSR, q, red)
		if err != nil {
			panic(err)
		}
		r1 := dist.FromRelationIn(ex, red["R1"], p)
		r2 := dist.FromRelationIn(ex, red["R2"], p)
		_, est, st := estimate.LineOut([]dist.Rel[int64]{r1, r2},
			[][]dist.Attr{{"A"}, {"B"}, {"C"}}, estimate.Params{Seed: cfg.Seed + 9})
		ratio := float64(est) / float64(maxi(trueOut, 1))
		t.Rows = append(t.Rows, []string{name, itoa(trueOut), i64(est), f2(ratio), itoa(st.MaxLoad)})
	}

	inst1, _ := workload.MatMulBlocks(cfg.scale(256, 64), 8, 8)
	run("blocks fan=8", inst1)
	inst2, _, err := workload.MatMulZipf(cfg.scale(4096, 512), cfg.scale(256, 64), 1.5, rng)
	if err != nil {
		panic(err) // parameters are compile-time constants, always valid
	}
	run("zipf s=1.5", inst2)
	inst3, _ := workload.Uniform(q, cfg.scale(4096, 512), cfg.scale(512, 128), rng)
	run("uniform", inst3)
	return t
}

// ablLocality compares the §3.1 algorithm (elementary products aggregated
// where they are produced) against the baseline that shuffles all of them
// — the mechanism §1.5 credits for the improvement.
func ablLocality(cfg Config) Table {
	p := cfg.scale(16, 8)
	n := int64(cfg.scale(2048, 256))
	t := Table{
		ID:     "ABL-locality",
		Title:  "ablation: locality of aggregation (worst-case §3.1 vs shuffle-everything baseline)",
		Header: []string{"OUT", "elem_products", "L_local(§3.1)", "L_shuffle(yann)", "ratio"},
		Notes:  []string{"both compute the same N·√OUT-ish elementary products; only placement differs"},
	}
	boolEq := func(a, b int64) bool { return a == b }
	for _, out := range []int64{16 * n, 64 * n, n * n / 8} {
		hard, err := lowerbound.Thm3(n, n, out)
		if err != nil {
			panic(err)
		}
		inst := boolToInt(hard.Inst)
		q := hypergraph.MatMulQuery()
		j, _ := refengine.MaxIntermediateJoin[int64](intSR, q, inst)
		resNew, stNew := forced(cfg, intSR, q, inst, p, planner.EngineMatMul)
		resY, stY := forced(cfg, intSR, q, inst, p, planner.EngineYannakakis)
		if !relation.Equal[int64](intSR, boolEq, resNew, resY) {
			panic("ABL-locality: engines disagree")
		}
		t.Rows = append(t.Rows, []string{
			i64(hard.Out), itoa(j), itoa(stNew.MaxLoad), itoa(stY.MaxLoad),
			f2(float64(stY.MaxLoad) / float64(maxi(stNew.MaxLoad, 1))),
		})
	}
	return t
}

// ablPacking compares the skew-proof primitives (tie-broken sample sort /
// parallel packing) against naive hash partitioning under Zipf skew.
func ablPacking(cfg Config) Table {
	p := cfg.scale(32, 8)
	n := cfg.scale(1<<15, 1<<11)
	t := Table{
		ID:     "ABL-packing",
		Title:  "ablation: skew-proof aggregation vs naive hash partitioning (Zipf keys)",
		Header: []string{"zipf_s", "distinct", "max_key_deg", "L_sortbased", "L_hash", "ratio"},
		Notes:  []string{"sort-based reduce-by-key (§2.1 primitive) stays ~N/p; hash partitioning tracks the heaviest key"},
	}
	for _, s := range []float64{1.2, 1.7, 2.5} {
		rng := rand.New(rand.NewSource(int64(cfg.Seed) + int64(s*10)))
		z := rand.NewZipf(rng, s, 1, uint64(n-1))
		keys := make([]int64, n)
		deg := map[int64]int{}
		for i := range keys {
			keys[i] = int64(z.Uint64())
			deg[keys[i]]++
		}
		maxDeg := 0
		for _, d := range deg {
			if d > maxDeg {
				maxDeg = d
			}
		}
		pt := mpc.DistributeOwnedIn(nil, keys, p) // keys are not reused below
		_, stSort := mpc.CountByKey(pt, func(k int64) int64 { return k })
		// Naive: route by key hash, combine locally; load = max received.
		_, stHash := mpc.Route(pt, func(_ int, k int64) int {
			h := uint64(k) * 0x9e3779b97f4a7c15
			return int(h % uint64(p))
		})
		t.Rows = append(t.Rows, []string{
			f2(s), itoa(len(deg)), itoa(maxDeg), itoa(stSort.MaxLoad), itoa(stHash.MaxLoad),
			f2(float64(stHash.MaxLoad) / float64(maxi(stSort.MaxLoad, 1))),
		})
	}
	return t
}

// altFullJoin reproduces §1.4's closing observation: computing the full
// join worst-case optimally (HyperCube) and then aggregating is bottlenecked
// by the OUT_f/p aggregation, so it cannot beat Yannakakis — while the §3
// algorithm beats both.
func altFullJoin(cfg Config) Table {
	q := hypergraph.MatMulQuery()
	p := cfg.scale(16, 8)
	blocks := cfg.scale(256, 32)
	t := Table{
		ID:     "ALT-fulljoin",
		Title:  "§1.4 alternative: HyperCube full join + aggregate vs Yannakakis vs §3",
		Header: []string{"OUT", "OUT_f", "OUT_f/p", "L_hypercube", "L_yann", "L_new", "verified"},
		Notes: []string{
			"paper: \"the aggregation step will become the bottleneck with a load of O(OUT_f/p)\"",
			"OUT_f is the full join size (= mult·OUT on these instances)",
			"our ProjectAgg pre-combines locally, softening the OUT_f/p shuffle when OUT is small;",
			"the §3 algorithm still wins or ties on every row, as §1.4 concludes",
		},
	}
	ex := cfg.exec()
	for _, mult := range []int{1, 4, 16, 64} {
		inst, meta := workload.BlocksMulti(q, blocks, 4, mult)
		outf := meta.Out * int64(mult)
		rels := make(map[string]dist.Rel[int64], len(q.Edges))
		for _, e := range q.Edges {
			rels[e.Name] = dist.FromRelationIn(ex, inst[e.Name], p)
		}
		resHC, stHC := hypercube.JoinAggregate(intSR, q, rels, cfg.Seed)
		rb := runEngine(cfg, q, inst, p, planner.EngineMatMul)
		lNew, lY, ok := rb.stNew.MaxLoad, rb.stY.MaxLoad, rb.verified
		t.addBench(p, int64(meta.N), meta.Out, rb)
		resY, _ := forced(cfg, intSR, q, inst, p, planner.EngineYannakakis)
		ok = ok && relation.Equal[int64](intSR, func(a, b int64) bool { return a == b },
			dist.ToRelation(resHC), resY)
		t.Rows = append(t.Rows, []string{
			i64(meta.Out), i64(outf), i64(outf / int64(p)),
			itoa(stHC.MaxLoad), itoa(lY), itoa(lNew), tick(ok),
		})
	}
	return t
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

// FitExponent fits y ∝ x^k by least squares in log-log space.
func FitExponent(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

func boolToInt(inst db.Instance[bool]) db.Instance[int64] {
	out := make(db.Instance[int64], len(inst))
	for name, r := range inst {
		nr := relation.New[int64](r.Schema()...)
		for _, row := range r.Rows {
			nr.AppendRow(relation.Row[int64]{Vals: row.Vals, W: 1})
		}
		out[name] = nr
	}
	return out
}

func itoa(x int) string     { return fmt.Sprintf("%d", x) }
func i64toa(x int64) string { return fmt.Sprintf("%d", x) }
func i64(x int64) string    { return fmt.Sprintf("%d", x) }
func f0(x float64) string   { return fmt.Sprintf("%.0f", x) }
func f2(x float64) string   { return fmt.Sprintf("%.2f", x) }
func tick(ok bool) string {
	if ok {
		return "yes"
	}
	return "MISMATCH"
}
func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}
