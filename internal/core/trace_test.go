package core

import (
	"math/rand"
	"testing"

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
