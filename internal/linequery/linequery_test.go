package linequery

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mpcjoin/internal/db"
	"mpcjoin/internal/dist"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/mpc"
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
			r.Append(int64(rng.Intn(4)+1), relation.Value(rng.Intn(dom)), relation.Value(rng.Intn(dom)))
		}
		inst[e.Name] = relation.Compact[int64](intSR, r)
	}
	return inst
}

func distRels(q *hypergraph.Query, inst db.Instance[int64], p int) map[string]dist.Rel[int64] {
	rels := make(map[string]dist.Rel[int64])
	for _, e := range q.Edges {
		rels[e.Name] = dist.FromRelationIn(nil, inst[e.Name], p)
	}
	return rels
}

// compute binds a plain line query and runs it, as core's runner does; a
// query of another class is an error.
func compute[W any](sr semiring.Semiring[W], q *hypergraph.Query, rels map[string]dist.Rel[W], seed uint64) (dist.Rel[W], mpc.Stats, error) {
	chain, path, ok := Bind(q, rels, dist.Single)
	if !ok {
		return dist.Rel[W]{}, mpc.Stats{}, fmt.Errorf("not a line query")
	}
	res, st := Run(sr, chain, path, seed)
	return res, st, nil
}

func check(t *testing.T, q *hypergraph.Query, inst db.Instance[int64], p int, seed uint64) {
	t.Helper()
	got, _, err := compute[int64](intSR, q, distRels(q, inst, p), seed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refengine.Yannakakis[int64](intSR, q, inst)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal[int64](intSR, intEq, dist.ToRelation(got), want) {
		t.Fatalf("line mismatch: got %v want %v", dist.ToRelation(got), want)
	}
}

func TestLine3AgainstReference(t *testing.T) {
	q := hypergraph.LineQuery(3)
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(rng, q, 60, 10)
		check(t, q, inst, rng.Intn(8)+2, uint64(seed))
	}
}

func TestLine4And5AgainstReference(t *testing.T) {
	for _, n := range []int{4, 5} {
		q := hypergraph.LineQuery(n)
		for seed := int64(0); seed < 5; seed++ {
			rng := rand.New(rand.NewSource(seed + 100))
			inst := randomInstance(rng, q, 40, 9)
			check(t, q, inst, rng.Intn(6)+2, uint64(seed))
		}
	}
}

func TestQuickRandomLines(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(3) + 2
		q := hypergraph.LineQuery(n)
		inst := randomInstance(rng, q, rng.Intn(60)+5, rng.Intn(8)+3)
		p := rng.Intn(8) + 2
		got, _, err := compute[int64](intSR, q, distRels(q, inst, p), uint64(seed))
		if err != nil {
			return false
		}
		want, err := refengine.Yannakakis[int64](intSR, q, inst)
		if err != nil {
			return false
		}
		return relation.Equal[int64](intSR, intEq, dist.ToRelation(got), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestHeavySkewChain(t *testing.T) {
	// One A2 value of huge degree forces the heavy path; disjoint light
	// values exercise the light recursion, both in one instance.
	q := hypergraph.LineQuery(3)
	inst := make(db.Instance[int64])
	r1 := relation.New[int64]("A1", "A2")
	r2 := relation.New[int64]("A2", "A3")
	r3 := relation.New[int64]("A3", "A4")
	for i := 0; i < 200; i++ {
		r1.Append(1, relation.Value(i), 0) // heavy a2 = 0
	}
	r2.Append(1, 0, 0)
	r3.Append(1, 0, 0)
	for i := 1; i <= 50; i++ {
		r1.Append(1, relation.Value(1000+i), relation.Value(i))
		r2.Append(1, relation.Value(i), relation.Value(i))
		r3.Append(1, relation.Value(i), relation.Value(i))
	}
	inst["R1"], inst["R2"], inst["R3"] = r1, r2, r3
	check(t, q, inst, 6, 0)
}

func TestEmptyChain(t *testing.T) {
	q := hypergraph.LineQuery(3)
	inst := make(db.Instance[int64])
	r1 := relation.New[int64]("A1", "A2")
	r1.Append(1, 1, 1)
	r2 := relation.New[int64]("A2", "A3")
	r2.Append(1, 99, 1) // breaks the chain
	r3 := relation.New[int64]("A3", "A4")
	r3.Append(1, 1, 1)
	inst["R1"], inst["R2"], inst["R3"] = r1, r2, r3
	got, _, err := compute[int64](intSR, q, distRels(q, inst, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 0 {
		t.Fatalf("expected empty, got %v", dist.ToRelation(got))
	}
}

func TestCompositeEndpoint(t *testing.T) {
	// First endpoint is a combined attribute (as in the star-like
	// reduction): R(X1 X2, A2) ⋈ R2(A2, A3) ⋈ R3(A3, A4).
	rng := rand.New(rand.NewSource(7))
	r1 := relation.New[int64]("X1", "X2", "A2")
	for i := 0; i < 80; i++ {
		r1.Append(1, relation.Value(rng.Intn(5)), relation.Value(rng.Intn(5)), relation.Value(rng.Intn(8)))
	}
	r1 = relation.Compact[int64](intSR, r1)
	r2raw := relation.New[int64]("A2", "A3")
	r3raw := relation.New[int64]("A3", "A4")
	for i := 0; i < 60; i++ {
		r2raw.Append(1, relation.Value(rng.Intn(8)), relation.Value(rng.Intn(8)))
		r3raw.Append(1, relation.Value(rng.Intn(8)), relation.Value(rng.Intn(8)))
	}
	r2 := relation.Compact[int64](intSR, r2raw)
	r3 := relation.Compact[int64](intSR, r3raw)

	const p = 5
	rels := []dist.Rel[int64]{
		dist.FromRelationIn(nil, r1, p), dist.FromRelationIn(nil, r2, p), dist.FromRelationIn(nil, r3, p),
	}
	path := [][]dist.Attr{{"X1", "X2"}, {"A2"}, {"A3"}, {"A4"}}
	got, _ := Run[int64](intSR, rels, path, 0)

	want := relation.ProjectAgg[int64](intSR,
		relation.Join[int64](intSR, relation.Join[int64](intSR, r1, r2), r3),
		"X1", "X2", "A4")
	if !relation.Equal[int64](intSR, intEq, dist.ToRelation(got), want) {
		t.Fatalf("composite endpoint mismatch: %v vs %v", dist.ToRelation(got), want)
	}
}

func TestTropicalShortestPath(t *testing.T) {
	mp := semiring.MinPlus{}
	q := hypergraph.LineQuery(3)
	inst := make(db.Instance[int64])
	rng := rand.New(rand.NewSource(11))
	for _, e := range q.Edges {
		r := relation.New[int64](e.Attrs...)
		for i := 0; i < 40; i++ {
			r.Append(int64(rng.Intn(100)), relation.Value(rng.Intn(6)), relation.Value(rng.Intn(6)))
		}
		inst[e.Name] = relation.Compact[int64](mp, r)
	}
	rels := make(map[string]dist.Rel[int64])
	for _, e := range q.Edges {
		rels[e.Name] = dist.FromRelationIn(nil, inst[e.Name], 4)
	}
	got, _, err := compute[int64](mp, q, rels, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refengine.Yannakakis[int64](mp, q, inst)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal[int64](mp, mp.Equal, dist.ToRelation(got), want) {
		t.Fatal("tropical line mismatch")
	}
}

func TestRejectNonLine(t *testing.T) {
	q := hypergraph.StarQuery(3)
	if _, _, ok := Bind[int64](q, nil, dist.Single); ok {
		t.Fatal("Bind accepted a star query")
	}
}

func TestConstantRoundsInN(t *testing.T) {
	q := hypergraph.LineQuery(3)
	rounds := map[int]bool{}
	for _, n := range []int{100, 400, 1600} {
		rng := rand.New(rand.NewSource(9))
		inst := randomInstance(rng, q, n, n/6)
		got, st, err := compute[int64](intSR, q, distRels(q, inst, 8), 0)
		if err != nil {
			t.Fatal(err)
		}
		_ = got
		rounds[st.Rounds] = true
	}
	// The recursion depth is fixed by n (=3), not by data size; rounds may
	// vary slightly with which branches are non-empty but must stay within
	// a small constant band.
	if len(rounds) > 3 {
		t.Fatalf("rounds vary wildly with N: %v", rounds)
	}
}

// TestIsqrtContract: isqrt(x) is the smallest r ≥ 1 with r·r ≥ x (0 for
// negative x) and answers in constant time for every int64 x — x is the
// §2.2 OUT estimate, and the counting loop it replaces never returned near
// math.MaxInt64 (r·r wrapped negative).
func TestIsqrtContract(t *testing.T) {
	want := map[int64]int64{
		-5: 0, 0: 1, 1: 1, 2: 2, 15: 4, 16: 4, 17: 5,
		1e12: 1e6, 1e12 + 1: 1e6 + 1, 1 << 62: 1 << 31, math.MaxInt64: 3037000500,
	}
	got := make(chan map[int64]int64, 1)
	go func() {
		res := make(map[int64]int64, len(want))
		for x := range want {
			res[x] = isqrt(x)
		}
		got <- res
	}()
	select {
	case res := <-got:
		for x, w := range want {
			if res[x] != w {
				t.Errorf("isqrt(%d) = %d, want %d", x, res[x], w)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("isqrt did not return within the deadline")
	}
}
