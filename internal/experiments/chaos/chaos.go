// Package chaos is the fault-resilience sweep: it runs every engine
// (matmul, star, line, tree, yannakakis, hypercube) under a matrix of
// deterministic fault schedules — stragglers, crashes, message drops,
// mixtures, and one schedule built to exhaust the retry budget — and
// asserts the tentpole invariant of the fault plane: any retryable
// schedule is fully absorbed, leaving Rows and base Stats bit-identical
// to the fault-free run, while an unabsorbable schedule fails with the
// typed mpc.ErrFaultBudgetExceeded instead of wrong answers. A failure
// here means retry recovery changed results (or silently swallowed a
// fault) — correctness tests without injection cannot catch either.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"

	"mpcjoin/internal/core"
	"mpcjoin/internal/dist"
	"mpcjoin/internal/hypercube"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/planner"
	"mpcjoin/internal/relation"
	"mpcjoin/internal/semiring"
	"mpcjoin/internal/transport"
	"mpcjoin/internal/workload"
)

var intSR = semiring.IntSumProd{}

// Config selects the sweep.
type Config struct {
	// Quick shrinks instances for the CI short lane.
	Quick bool
	// P is the simulated cluster size (default 8).
	P int
	// Seed drives both the engines' hash partitioning and, offset per
	// scenario, the fault schedules; the whole sweep is reproducible.
	Seed uint64
	// Workers sizes each run's OS worker pool (0 = serial); results must
	// not depend on it.
	Workers int
	// Transport, when set, carries every *faulted* run's exchange rounds
	// over the given backend (chaos -transport tcp) while each engine's
	// fault-free baseline stays in-process. Faults then execute physically
	// — frames elided before the socket, inboxes discarded peer-side — and
	// the sweep's bit-identity judgement doubles as a cross-transport
	// equivalence check. nil = everything in-process.
	Transport transport.Transport
}

// transportName resolves the backend label stamped into Result rows.
func (c Config) transportName() string {
	if c.Transport == nil {
		return "inproc"
	}
	return c.Transport.Name()
}

func (c Config) p() int {
	if c.P <= 0 {
		return 8
	}
	return c.P
}

// options is one run's execution options: the cell's fault plane and — on
// faulted runs only, so every baseline stays in-process — the transport.
func (c Config) options(fp *mpc.FaultPlane) core.Options {
	o := core.Options{Servers: c.p(), Seed: c.Seed, Workers: c.Workers, Faults: fp}
	if fp != nil {
		o.Transport = c.Transport
	}
	return o
}

func (c Config) scale(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

// Scenario is one fault schedule of the matrix. WantBudgetErr marks the
// schedule built to exhaust the retry budget: every engine must fail it
// with mpc.ErrFaultBudgetExceeded rather than return anything.
type Scenario struct {
	Name string
	Spec mpc.FaultSpec
	// WantBudgetErr: the run must fail with ErrFaultBudgetExceeded.
	WantBudgetErr bool
}

// Scenarios returns the sweep's fault schedules. Retryable schedules use
// a generous budget so the seeded runs deterministically absorb them;
// the runs are reproducible, so "absorbed once" means "absorbed always".
func Scenarios() []Scenario {
	return []Scenario{
		{Name: "crash-round-1", Spec: mpc.FaultSpec{CrashRound: 1, MaxRetries: 4}},
		{Name: "crash-5pct", Spec: mpc.FaultSpec{CrashProb: 0.05, MaxRetries: 10}},
		{Name: "drop-20pct", Spec: mpc.FaultSpec{DropProb: 0.20, MaxRetries: 10}},
		{Name: "straggler-50pct", Spec: mpc.FaultSpec{StragglerProb: 0.5, StragglerDelay: 16}},
		{Name: "mixed", Spec: mpc.FaultSpec{CrashProb: 0.05, DropProb: 0.10, StragglerProb: 0.25, StragglerDelay: 8, MaxRetries: 12}},
		{Name: "budget-exhausted", Spec: mpc.FaultSpec{CrashProb: 1, MaxRetries: 2}, WantBudgetErr: true},
	}
}

// engine bundles a named engine with its workload and a runner that
// executes it under an optional fault plane.
type engine struct {
	name string
	run  func(cfg Config, fp *mpc.FaultPlane) (*relation.Relation[int64], mpc.Stats, error)
}

// Engines lists the swept engine names in order.
func Engines() []string {
	names := make([]string, len(engines))
	for i, e := range engines {
		names[i] = e.name
	}
	return names
}

// coreEngine runs a catalogue family, at this sweep's own (smaller) block
// counts, through core.Execute with the named engine forced ("" = the
// planner's choice), covering the selections the query service exposes.
func coreEngine(name, forced, family string, full, quick int) engine {
	return engine{name: name, run: func(cfg Config, fp *mpc.FaultPlane) (*relation.Relation[int64], mpc.Stats, error) {
		fam := workload.Named(family)
		inst, _ := fam.Gen(cfg.scale(full, quick))
		o := cfg.options(fp)
		o.Engine = forced
		return core.Execute(intSR, fam.Query, inst, o)
	}}
}

var engines = []engine{
	coreEngine("matmul", "", "matmul-fan2", 128, 32),
	coreEngine("star", "", "star", 64, 16),
	coreEngine("line", "", "line", 64, 16),
	coreEngine("tree", planner.EngineTree, "tree", 16, 8),
	coreEngine("yannakakis", planner.EngineYannakakis, "matmul-fan2", 128, 32),
	// The HyperCube full-join path (§1.4's alternative) bypasses the core
	// dispatcher, so it exercises the fault plane through a raw Exec scope
	// — and, returning no error, through mpc.Recover at this root.
	{name: "hypercube", run: func(cfg Config, fp *mpc.FaultPlane) (rel *relation.Relation[int64], st mpc.Stats, err error) {
		fam := workload.Named("matmul-mult2")
		q := fam.Query
		inst, _ := fam.Canonical(cfg.Quick)
		defer mpc.Recover(&err)
		ex, release, err := cfg.options(fp).NewScope(context.Background())
		if err != nil {
			return nil, mpc.Stats{}, err
		}
		defer release()
		rels := make(map[string]dist.Rel[int64], len(q.Edges))
		for _, e := range q.Edges {
			rels[e.Name] = dist.FromRelationIn(ex, inst[e.Name], cfg.p())
		}
		res, st := hypercube.JoinAggregate(intSR, q, rels, cfg.Seed)
		return dist.ToRelation(res), st, nil
	}},
}

// Result is one (engine, scenario) run judged against the fault-free
// baseline of the same engine.
type Result struct {
	Engine   string `json:"engine"`
	Scenario string `json:"scenario"`
	// Transport names the backend the faulted run's rounds travelled over
	// ("inproc", "tcp"); the baseline always runs in-process.
	Transport string `json:"transport"`
	// Rows / RowsHash fingerprint the sorted output relation; Stats is
	// the base metered cost. For a retryable scenario, OK means all three
	// match the baseline exactly; for the budget scenario, OK means the
	// run failed with ErrFaultBudgetExceeded.
	Rows     int       `json:"rows"`
	RowsHash uint64    `json:"rows_hash"`
	Stats    mpc.Stats `json:"stats"`
	// Fault-plane accounting of the run.
	Injected  int    `json:"injected"`
	Detected  int    `json:"detected"`
	Retried   int    `json:"retried"`
	Absorbed  int    `json:"absorbed"`
	DelayUnit int64  `json:"delay_units"`
	BudgetErr bool   `json:"budget_err"`
	OK        bool   `json:"ok"`
	Detail    string `json:"detail,omitempty"`
}

// fingerprint hashes the sorted rows (schema, values, annotations) so
// two runs can be compared for bit-identical output without retaining
// both relations.
func fingerprint(rel *relation.Relation[int64]) (int, uint64) {
	rel.SortRows()
	h := fnv.New64a()
	for _, a := range rel.Schema() {
		h.Write([]byte(a))
		h.Write([]byte{0})
	}
	var buf [8]byte
	put := func(v int64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, row := range rel.Rows {
		for _, v := range row.Vals {
			put(int64(v))
		}
		put(row.W)
	}
	return len(rel.Rows), h.Sum64()
}

// Run sweeps every engine through every scenario and judges each run
// against that engine's fault-free baseline.
func Run(cfg Config) ([]Result, error) {
	var out []Result
	for _, e := range engines {
		baseRel, baseStats, err := e.run(cfg, nil)
		if err != nil {
			return nil, fmt.Errorf("chaos: %s baseline: %w", e.name, err)
		}
		baseRows, baseHash := fingerprint(baseRel)

		for si, sc := range Scenarios() {
			spec := sc.Spec
			// Per-cell schedule seed: deterministic, distinct across the
			// scenarios of one engine, and shared by engines whose names
			// have equal length (star, line and tree run the same schedules).
			spec.Seed = cfg.Seed*1000003 + uint64(si)*257 + uint64(len(e.name))
			fp := mpc.NewFaultPlane(spec)
			rel, st, err := e.run(cfg, fp)
			rep := fp.Report()
			r := Result{
				Engine: e.name, Scenario: sc.Name, Transport: cfg.transportName(),
				Injected: rep.Injected, Detected: rep.Detected,
				Retried: rep.Retried, Absorbed: rep.Absorbed,
				DelayUnit: rep.DelayUnits + rep.BackoffUnits,
				BudgetErr: errors.Is(err, mpc.ErrFaultBudgetExceeded),
			}
			switch {
			case sc.WantBudgetErr:
				r.OK = r.BudgetErr
				if !r.OK {
					r.Detail = fmt.Sprintf("want ErrFaultBudgetExceeded, got err=%v", err)
				}
			case err != nil:
				r.Detail = fmt.Sprintf("run failed: %v", err)
			default:
				r.Rows, r.RowsHash = fingerprint(rel)
				r.Stats = st
				switch {
				case r.Rows != baseRows || r.RowsHash != baseHash:
					r.Detail = fmt.Sprintf("rows diverged from baseline (%d/%x vs %d/%x)", r.Rows, r.RowsHash, baseRows, baseHash)
				case st != baseStats:
					r.Detail = fmt.Sprintf("stats diverged from baseline (%+v vs %+v)", st, baseStats)
				default:
					r.OK = true
				}
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// Check returns a non-nil error listing every failed (engine, scenario).
func Check(results []Result) error {
	var bad []string
	for _, r := range results {
		if !r.OK {
			bad = append(bad, fmt.Sprintf("%s/%s: %s", r.Engine, r.Scenario, r.Detail))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("chaos: %d failure(s):\n  %s", len(bad), strings.Join(bad, "\n  "))
	}
	return nil
}
