package core

// semiring_engine_test.go runs the full engine across random tree queries
// under several semirings — including idempotent ones, where duplicated
// partial aggregation would go undetected by the counting semiring alone
// (a ⊕ a = a masks double-counting) and non-idempotent ones, where any
// tuple routed to two blocks would double-count. Passing under both
// classes pins down the "every elementary product exactly once" invariant.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mpcjoin/internal/db"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/planner"
	"mpcjoin/internal/refengine"
	"mpcjoin/internal/relation"
	"mpcjoin/internal/semiring"
)

// randomTreeQuery builds a random tree query over up to 6 attributes with
// a random output set.
func randomTreeQuery(rng *rand.Rand) *hypergraph.Query {
	nAttrs := rng.Intn(4) + 3
	attrs := make([]hypergraph.Attr, nAttrs)
	for i := range attrs {
		attrs[i] = hypergraph.Attr(rune('A' + i))
	}
	var edges []hypergraph.Edge
	for i := 1; i < nAttrs; i++ {
		parent := rng.Intn(i)
		edges = append(edges, hypergraph.Bin("R"+string(rune('0'+i)), attrs[parent], attrs[i]))
	}
	var out []hypergraph.Attr
	for _, a := range attrs {
		if rng.Intn(2) == 0 {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		out = attrs[:1]
	}
	return hypergraph.NewQuery(edges, out...)
}

func checkSemiring[W any](t *testing.T, name string, sr semiring.Semiring[W], eq func(a, b W) bool, genW func(*rand.Rand) W, maxCount int) {
	t.Helper()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := randomTreeQuery(rng)
		if err := q.Validate(); err != nil {
			return true
		}
		inst := make(db.Instance[W])
		for _, e := range q.Edges {
			r := relation.New[W](e.Attrs...)
			for i := 0; i < rng.Intn(14)+4; i++ {
				r.Append(genW(rng), relation.Value(rng.Intn(4)), relation.Value(rng.Intn(4)))
			}
			inst[e.Name] = r
		}
		want, err := refengine.Yannakakis[W](sr, q, inst)
		if err != nil {
			return false
		}
		for _, strat := range []string{"", planner.EngineTree} {
			got, _, err := Execute[W](sr, q, inst, Options{Servers: rng.Intn(5) + 2, Engine: strat, Seed: uint64(seed)})
			if err != nil {
				return false
			}
			if !relation.Equal[W](sr, eq, got, want) {
				t.Logf("%s: mismatch on %s (engine %q)", name, refengine.String(q), strat)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: maxCount}); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

func TestEngineUnderCountingSemiring(t *testing.T) {
	sr := semiring.IntSumProd{}
	checkSemiring[int64](t, "IntSumProd", sr, sr.Equal,
		func(rng *rand.Rand) int64 { return int64(rng.Intn(5) + 1) }, 20)
}

func TestEngineUnderBooleanSemiring(t *testing.T) {
	sr := semiring.BoolOrAnd{}
	checkSemiring[bool](t, "BoolOrAnd", sr, sr.Equal,
		func(rng *rand.Rand) bool { return true }, 15)
}

func TestEngineUnderMinPlus(t *testing.T) {
	sr := semiring.MinPlus{}
	checkSemiring[int64](t, "MinPlus", sr, sr.Equal,
		func(rng *rand.Rand) int64 { return int64(rng.Intn(100)) }, 15)
}

func TestEngineUnderMaxMin(t *testing.T) {
	sr := semiring.MaxMin{}
	checkSemiring[int64](t, "MaxMin", sr, sr.Equal,
		func(rng *rand.Rand) int64 { return int64(rng.Intn(100)) }, 15)
}

func TestEngineUnderProvenance(t *testing.T) {
	sr := semiring.WhyProvenance{}
	var next semiring.Witness
	checkSemiring[semiring.Provenance](t, "WhyProvenance", sr, sr.Equal,
		func(rng *rand.Rand) semiring.Provenance {
			next++
			return semiring.Why(next)
		}, 8)
}

// TestEngineDanglingInjection: adding join-less noise tuples must never
// change any engine's answer (they are removed by the reducers).
func TestEngineDanglingInjection(t *testing.T) {
	sr := semiring.IntSumProd{}
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := randomTreeQuery(rng)
		if err := q.Validate(); err != nil {
			continue
		}
		inst := make(db.Instance[int64])
		for _, e := range q.Edges {
			r := relation.New[int64](e.Attrs...)
			for i := 0; i < 12; i++ {
				r.Append(1, relation.Value(rng.Intn(4)), relation.Value(rng.Intn(4)))
			}
			inst[e.Name] = r
		}
		clean, _, err := Execute[int64](sr, q, inst, Options{Servers: 4, Seed: uint64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		// Inject tuples over fresh values into every relation.
		noisy := db.Clone(inst)
		fresh := relation.Value(1 << 20)
		for _, r := range noisy {
			for i := 0; i < 8; i++ {
				fresh += 2
				r.Append(99, fresh, fresh+1)
			}
		}
		got, _, err := Execute[int64](sr, q, noisy, Options{Servers: 4, Seed: uint64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		if !relation.Equal[int64](sr, sr.Equal, clean, got) {
			t.Fatalf("seed %d: dangling tuples changed the answer on %s", seed, refengine.String(q))
		}
	}
}
