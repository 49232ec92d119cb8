package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"mpcjoin/internal/db"
	"mpcjoin/internal/dist"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/planner"
	"mpcjoin/internal/refengine"
	"mpcjoin/internal/relation"
	"mpcjoin/internal/semiring"
)

var intSR = semiring.IntSumProd{}

func intEq(a, b int64) bool { return a == b }

func randomInstance(rng *rand.Rand, q *hypergraph.Query, n, dom int) db.Instance[int64] {
	inst := make(db.Instance[int64])
	for _, e := range q.Edges {
		r := relation.New[int64](e.Attrs...)
		for i := 0; i < n; i++ {
			vals := make([]relation.Value, len(e.Attrs))
			for j := range vals {
				vals[j] = relation.Value(rng.Intn(dom))
			}
			r.AppendRow(relation.Row[int64]{Vals: vals, W: int64(rng.Intn(4) + 1)})
		}
		inst[e.Name] = relation.Compact[int64](intSR, r)
	}
	return inst
}

// TestRunnersMatchEngineTable keeps the two halves of the engine table in
// step: every row of planner.Engines has a runner and nothing else does.
func TestRunnersMatchEngineTable(t *testing.T) {
	run := runners[int64]()
	for _, name := range planner.Names() {
		if run[name] == nil {
			t.Errorf("engine %q is in planner.Engines but has no runner", name)
		}
	}
	if len(run) != len(planner.Engines) {
		t.Errorf("%d runners for %d table rows: a runner names no engine", len(run), len(planner.Engines))
	}
}

// TestEveryLegalEngineRunsForced forces each class's legal engines by name
// and checks the executed plan reports exactly that engine and the
// reference answer comes back.
func TestEveryLegalEngineRunsForced(t *testing.T) {
	queries := []*hypergraph.Query{
		hypergraph.MatMulQuery(),
		hypergraph.LineQuery(3),
		hypergraph.StarQuery(3),
		hypergraph.Fig1StarLike(),
		hypergraph.Fig3Twig(),
		hypergraph.NewQuery([]hypergraph.Edge{
			hypergraph.Bin("R1", "A", "B"), hypergraph.Bin("R2", "B", "C"),
		}, "A", "B", "C"),
	}
	for qi, q := range queries {
		inst := randomInstance(rand.New(rand.NewSource(int64(qi))), q, 18, 5)
		want, err := refengine.Yannakakis[int64](intSR, q, inst)
		if err != nil {
			t.Fatal(err)
		}
		for _, engine := range planner.Legal(q.Classify()) {
			var plan planner.Plan
			got, _, err := Execute[int64](intSR, q, inst, Options{Servers: 5, Seed: uint64(qi), Engine: engine, PlanOut: &plan})
			if err != nil {
				t.Fatalf("query %d engine %s: %v", qi, engine, err)
			}
			if plan.Chosen != engine || len(plan.Candidates) != 0 {
				t.Fatalf("query %d: forced %s, plan %+v", qi, engine, plan)
			}
			if !relation.Equal[int64](intSR, intEq, got, want) {
				t.Fatalf("query %d engine %s: %v != %v", qi, engine, got, want)
			}
		}
	}
}

// TestUnknownOrIllegalEngineIsAnError pins that a name outside the engine
// table, or one the table does not allow for the query's class, fails the
// execution and the dry-run plan — it never falls through to some engine.
func TestUnknownOrIllegalEngineIsAnError(t *testing.T) {
	q := hypergraph.LineQuery(3)
	inst := randomInstance(rand.New(rand.NewSource(1)), q, 18, 5)
	for _, engine := range []string{"quantum", "Tree", "auto", planner.EngineStar, planner.EngineMatMul} {
		var plan planner.Plan
		res, st, err := Execute[int64](intSR, q, inst, Options{Servers: 5, Engine: engine, PlanOut: &plan})
		if err == nil || res != nil || st.Rounds != 0 || plan.Chosen != "" {
			t.Fatalf("Execute with engine %q: res %v, stats %+v, plan %+v, err %v", engine, res, st, plan, err)
		}
		if !strings.Contains(err.Error(), "not legal for class line") {
			t.Fatalf("engine %q: unhelpful error %v", engine, err)
		}
		if _, err := PlanInstance(context.Background(), q, inst, Options{Servers: 5, Engine: engine}); err == nil {
			t.Fatalf("PlanInstance accepted engine %q", engine)
		}
	}
}

func TestAllStrategiesAgree(t *testing.T) {
	queries := []*hypergraph.Query{
		hypergraph.MatMulQuery(),
		hypergraph.LineQuery(3),
		hypergraph.StarQuery(3),
		hypergraph.Fig1StarLike(),
		hypergraph.Fig3Twig(),
	}
	for qi, q := range queries {
		rng := rand.New(rand.NewSource(int64(qi)))
		inst := randomInstance(rng, q, 18, 5)
		want, err := refengine.Yannakakis[int64](intSR, q, inst)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []string{"", planner.EngineYannakakis, planner.EngineTree} {
			got, st, err := Execute[int64](intSR, q, inst, Options{Servers: 5, Engine: strat, Seed: uint64(qi)})
			if err != nil {
				t.Fatalf("query %d engine %q: %v", qi, strat, err)
			}
			if !relation.Equal[int64](intSR, intEq, got, want) {
				t.Fatalf("query %d engine %q: %v != %v", qi, strat, got, want)
			}
			if st.Rounds == 0 && want.Len() > 0 {
				t.Fatalf("query %d engine %q: no rounds metered", qi, strat)
			}
		}
	}
}

func TestExecuteValidates(t *testing.T) {
	q := hypergraph.MatMulQuery()
	if _, _, err := Execute[int64](intSR, q, db.Instance[int64]{}, Options{}); err == nil {
		t.Fatal("expected validation error")
	}
	bad := hypergraph.NewQuery([]hypergraph.Edge{hypergraph.Bin("R", "A", "A")}, "A")
	if _, _, err := Execute[int64](intSR, bad, db.Instance[int64]{}, Options{}); err == nil {
		t.Fatal("expected query validation error")
	}
}

func TestDefaultServers(t *testing.T) {
	q := hypergraph.MatMulQuery()
	rng := rand.New(rand.NewSource(1))
	inst := randomInstance(rng, q, 30, 5)
	got, _, err := Execute[int64](intSR, q, inst, Options{}) // Servers unset
	if err != nil {
		t.Fatal(err)
	}
	want, _ := refengine.Yannakakis[int64](intSR, q, inst)
	if !relation.Equal[int64](intSR, intEq, got, want) {
		t.Fatal("default-server execution mismatch")
	}
}

// TestSixteenArmStarNeverPanics pins the class-split limit end to end: the
// degree-permutation codec names at most dist.MaxPermArms arms, so on a
// well-formed 16-relation star the engines built on it are an error before
// any round — not a panic inside the execution — and auto prices them
// infeasible and answers through another engine.
func TestSixteenArmStarNeverPanics(t *testing.T) {
	q := hypergraph.StarQuery(dist.MaxPermArms + 1)
	inst := randomInstance(rand.New(rand.NewSource(16)), q, 6, 3)
	for _, engine := range []string{planner.EngineStar, planner.EngineTree} {
		tr := mpc.NewTracer()
		res, st, err := Execute[int64](intSR, q, inst, Options{Servers: 4, Engine: engine, Tracer: tr})
		if err == nil || res != nil || st.Rounds != 0 || len(tr.Rounds()) != 0 {
			t.Fatalf("forced %s: res %v, stats %+v, %d traced rounds, err %v", engine, res, st, len(tr.Rounds()), err)
		}
		if !strings.Contains(err.Error(), "at most 15") {
			t.Fatalf("forced %s: unhelpful error %v", engine, err)
		}
		if _, err := PlanInstance(context.Background(), q, inst, Options{Servers: 4, Engine: engine}); err == nil {
			t.Fatalf("PlanInstance accepted %s on a 16-arm star", engine)
		}
	}

	want, err := refengine.Yannakakis[int64](intSR, q, inst)
	if err != nil {
		t.Fatal(err)
	}
	var plan planner.Plan
	got, _, err := Execute[int64](intSR, q, inst, Options{Servers: 4, PlanOut: &plan})
	if err != nil {
		t.Fatalf("auto: %v", err)
	}
	if plan.Chosen != planner.EngineYannakakis || !relation.Equal[int64](intSR, intEq, got, want) {
		t.Fatalf("auto chose %s; rows match reference: %v", plan.Chosen, relation.Equal[int64](intSR, intEq, got, want))
	}
	for _, c := range plan.Candidates {
		if c.Engine != planner.EngineYannakakis && c.Feasible {
			t.Fatalf("auto priced %s feasible on a 16-arm star", c.Engine)
		}
	}
}
