package core

import (
	"math/rand"
	"testing"

	"mpcjoin/internal/db"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/planner"
	"mpcjoin/internal/relation"
)

// TestTraceDeterminism runs every engine once untraced and once traced and
// requires bit-identical results and Stats: tracing is observation only.
func TestTraceDeterminism(t *testing.T) {
	cases := []struct {
		name  string
		q     *hypergraph.Query
		strat string
	}{
		{"matmul", hypergraph.MatMulQuery(), ""},
		{"line", hypergraph.LineQuery(3), ""},
		{"star", hypergraph.StarQuery(3), ""},
		{"star-like", hypergraph.Fig1StarLike(), ""},
		{"tree", hypergraph.Fig3Twig(), planner.EngineTree},
		{"yannakakis", hypergraph.MatMulQuery(), planner.EngineYannakakis},
	}
	for qi, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(qi)))
			inst := randomInstance(rng, c.q, 24, 6)
			opts := Options{Servers: 5, Engine: c.strat, Seed: uint64(qi)}

			plain, plainSt, err := Execute[int64](intSR, c.q, inst, opts)
			if err != nil {
				t.Fatal(err)
			}

			tr := mpc.NewTracer()
			topts := opts
			topts.Tracer = tr
			traced, tracedSt, err := Execute[int64](intSR, c.q, inst, topts)
			if err != nil {
				t.Fatal(err)
			}

			if plainSt != tracedSt {
				t.Fatalf("stats differ: untraced %+v, traced %+v", plainSt, tracedSt)
			}
			if !relation.Equal[int64](intSR, intEq, plain, traced) {
				t.Fatalf("results differ between traced and untraced runs")
			}

			rounds := tr.Rounds()
			if len(rounds) == 0 {
				t.Fatal("traced run recorded no rounds")
			}
			// Physical exchanges can outnumber metered rounds (Par merges
			// disjoint sub-plans) but never undercount them.
			if len(rounds) < plainSt.Rounds {
				t.Fatalf("trace has %d rounds, stats meter %d", len(rounds), plainSt.Rounds)
			}
			maxTrace := 0
			for _, rt := range rounds {
				if rt.Op == "" {
					t.Fatalf("round %d has empty op", rt.Round)
				}
				if rt.Servers <= 0 || rt.Receivers > rt.Servers {
					t.Fatalf("round %d malformed: %+v", rt.Round, rt)
				}
				if rt.MaxLoad > maxTrace {
					maxTrace = rt.MaxLoad
				}
			}
			// Every exchange composes into Stats with max-of-MaxLoad, so the
			// worst traced round is at least the metered bottleneck.
			if maxTrace < plainSt.MaxLoad {
				t.Fatalf("trace max load %d < stats MaxLoad %d", maxTrace, plainSt.MaxLoad)
			}
		})
	}
}

// TestTracerReuseAcrossExecutions checks that one tracer observes two
// sequential executions after a Reset without mixing timelines.
func TestTracerReuseAcrossExecutions(t *testing.T) {
	q := hypergraph.MatMulQuery()
	rng := rand.New(rand.NewSource(7))
	inst := randomInstance(rng, q, 20, 5)
	tr := mpc.NewTracer()
	opts := Options{Servers: 4, Seed: 7, Tracer: tr}

	if _, _, err := Execute[int64](intSR, q, inst, opts); err != nil {
		t.Fatal(err)
	}
	first := tr.Rounds()
	tr.Reset()
	if _, _, err := Execute[int64](intSR, q, inst, opts); err != nil {
		t.Fatal(err)
	}
	second := tr.Rounds()

	if len(first) == 0 || len(first) != len(second) {
		t.Fatalf("round counts differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("round %d differs across identical executions:\n%+v\n%+v", i+1, first[i], second[i])
		}
	}
}

// TestEmptyResultsStayInTheExecution runs every legal engine on an
// all-dangling instance — each relation draws its values from its own
// range, so nothing joins — traced. An engine that finds its input empty
// returns an empty result on the execution's scope, so every round that
// follows (the twig projection, the final ⊕-merge) is traced, fault-injected
// and cancellable like any other; a result built outside the scope would
// meter rounds no tracer sees.
func TestEmptyResultsStayInTheExecution(t *testing.T) {
	queries := []*hypergraph.Query{
		hypergraph.MatMulQuery(),
		hypergraph.LineQuery(3),
		hypergraph.StarQuery(3),
		hypergraph.Fig1StarLike(),
		hypergraph.Fig3Twig(),
	}
	for _, q := range queries {
		inst := make(db.Instance[int64])
		for i, e := range q.Edges {
			r := relation.New[int64](e.Attrs...)
			for j := 0; j < 12; j++ {
				vals := make([]relation.Value, len(e.Attrs))
				for c := range vals {
					vals[c] = relation.Value(100*i + (j+c)%6)
				}
				r.AppendRow(relation.Row[int64]{Vals: vals, W: 1})
			}
			inst[e.Name] = relation.Compact[int64](intSR, r)
		}
		for _, engine := range planner.Legal(q.Classify()) {
			tr := mpc.NewTracer()
			res, st, err := Execute[int64](intSR, q, inst, Options{Servers: 4, Engine: engine, Tracer: tr})
			if err != nil {
				t.Fatalf("%s on %v: %v", engine, q.Classify(), err)
			}
			if res.Len() != 0 {
				t.Fatalf("%s on %v: %d rows from an all-dangling instance", engine, q.Classify(), res.Len())
			}
			if n := len(tr.Rounds()); n < st.Rounds {
				t.Fatalf("%s on %v: %d traced rounds, %d metered", engine, q.Classify(), n, st.Rounds)
			}
		}
	}
}
