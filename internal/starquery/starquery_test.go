package starquery

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"mpcjoin/internal/db"
	"mpcjoin/internal/dist"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/refengine"
	"mpcjoin/internal/relation"
	"mpcjoin/internal/semiring"
	"mpcjoin/internal/workload"
)

var intSR = semiring.IntSumProd{}

func intEq(a, b int64) bool { return a == b }

func randomInstance(rng *rand.Rand, q *hypergraph.Query, n, domA, domB int) db.Instance[int64] {
	inst := make(db.Instance[int64])
	for _, e := range q.Edges {
		r := relation.New[int64](e.Attrs...)
		for i := 0; i < n; i++ {
			r.Append(int64(rng.Intn(4)+1), relation.Value(rng.Intn(domA)), relation.Value(rng.Intn(domB)))
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

// compute binds a plain star query and runs it, as core's runner does; a
// query of another class is an error.
func compute[W any](sr semiring.Semiring[W], q *hypergraph.Query, rels map[string]dist.Rel[W], seed uint64) (dist.Rel[W], mpc.Stats, error) {
	arms, leaves, center, ok := Bind(q, rels, dist.Single)
	if !ok {
		return dist.Rel[W]{}, mpc.Stats{}, fmt.Errorf("not a star query")
	}
	res, st := Run(sr, arms, leaves, center, seed)
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
		t.Fatalf("star mismatch: got %v want %v", dist.ToRelation(got), want)
	}
}

func TestStar3AgainstReference(t *testing.T) {
	q := hypergraph.StarQuery(3)
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(rng, q, 50, 10, 8)
		check(t, q, inst, rng.Intn(8)+2, uint64(seed))
	}
}

func TestStar4And5AgainstReference(t *testing.T) {
	for _, n := range []int{4, 5} {
		q := hypergraph.StarQuery(n)
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed + 31))
			inst := randomInstance(rng, q, 25, 6, 6)
			check(t, q, inst, rng.Intn(6)+2, uint64(seed))
		}
	}
}

func TestQuickRandomStars(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(3) + 2
		q := hypergraph.StarQuery(n)
		inst := randomInstance(rng, q, rng.Intn(40)+5, rng.Intn(8)+2, rng.Intn(6)+2)
		p := rng.Intn(6) + 2
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
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMixedDegreePermutations(t *testing.T) {
	// Construct b values with deliberately different degree orderings so
	// several permutation classes occur simultaneously.
	q := hypergraph.StarQuery(3)
	inst := make(db.Instance[int64])
	r := [3]*relation.Relation[int64]{}
	for i := range r {
		r[i] = relation.New[int64](q.Edges[i].Attrs...)
	}
	// b=1: degrees (1, 5, 10); b=2: degrees (10, 1, 5); b=3: (5, 10, 1).
	degPattern := [3][3]int{{1, 5, 10}, {10, 1, 5}, {5, 10, 1}}
	for b := 0; b < 3; b++ {
		for arm := 0; arm < 3; arm++ {
			for k := 0; k < degPattern[b][arm]; k++ {
				r[arm].Append(1, relation.Value(100*b+k), relation.Value(b+1))
			}
		}
	}
	inst["R1"], inst["R2"], inst["R3"] = r[0], r[1], r[2]
	check(t, q, inst, 5, 0)
}

func TestSkewedCenter(t *testing.T) {
	// One b with huge degrees everywhere (dense block) plus sparse rest.
	q := hypergraph.StarQuery(3)
	inst := make(db.Instance[int64])
	for ei, e := range q.Edges {
		r := relation.New[int64](e.Attrs...)
		for i := 0; i < 30; i++ {
			r.Append(1, relation.Value(i), 0)
		}
		for i := 0; i < 40; i++ {
			r.Append(1, relation.Value(1000+i), relation.Value(1+(i+ei)%7))
		}
		inst[e.Name] = r
	}
	check(t, q, inst, 6, 0)
}

func TestEmptyIntersection(t *testing.T) {
	q := hypergraph.StarQuery(3)
	inst := make(db.Instance[int64])
	for ei, e := range q.Edges {
		r := relation.New[int64](e.Attrs...)
		r.Append(1, 1, relation.Value(ei)) // disjoint b values
		inst[e.Name] = r
	}
	got, _, err := compute[int64](intSR, q, distRels(q, inst, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 0 {
		t.Fatalf("expected empty, got %v", dist.ToRelation(got))
	}
}

func TestCompositeLeaves(t *testing.T) {
	// Arms with multi-attribute leaves, as in the tree-query reduction.
	rng := rand.New(rand.NewSource(4))
	arm1 := relation.New[int64]("X1", "X2", "B")
	arm2 := relation.New[int64]("Y1", "B")
	arm3 := relation.New[int64]("Z1", "Z2", "B")
	for i := 0; i < 60; i++ {
		arm1.Append(1, relation.Value(rng.Intn(4)), relation.Value(rng.Intn(4)), relation.Value(rng.Intn(5)))
		arm2.Append(1, relation.Value(rng.Intn(6)), relation.Value(rng.Intn(5)))
		arm3.Append(1, relation.Value(rng.Intn(4)), relation.Value(rng.Intn(4)), relation.Value(rng.Intn(5)))
	}
	a1 := relation.Compact[int64](intSR, arm1)
	a2 := relation.Compact[int64](intSR, arm2)
	a3 := relation.Compact[int64](intSR, arm3)

	const p = 4
	got, _ := Run[int64](intSR,
		[]dist.Rel[int64]{dist.FromRelationIn(nil, a1, p), dist.FromRelationIn(nil, a2, p), dist.FromRelationIn(nil, a3, p)},
		[][]dist.Attr{{"X1", "X2"}, {"Y1"}, {"Z1", "Z2"}}, "B", 0)

	want := relation.ProjectAgg[int64](intSR,
		relation.Join[int64](intSR, relation.Join[int64](intSR, a1, a2), a3),
		"X1", "X2", "Y1", "Z1", "Z2")
	if !relation.Equal[int64](intSR, intEq, dist.ToRelation(got), want) {
		t.Fatalf("composite leaves mismatch")
	}
}

// TestPermCodec round-trips the class id of §5 — the bare permutation —
// through the one codec, at every arm count it admits.
func TestPermCodec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(dist.MaxPermArms-1) + 2
		order := rng.Perm(n)
		got := dist.DecodePerm(dist.EncodePerm(order, n), n)
		for i := range order {
			if got[i] != order[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRejectNonStar(t *testing.T) {
	q := hypergraph.LineQuery(3)
	if _, _, _, ok := Bind[int64](q, nil, dist.Single); ok {
		t.Fatal("Bind accepted a line query")
	}
}

func TestStarWithMultiplicity(t *testing.T) {
	// The shared center B carries multiplicity: per-b degrees grow
	// uniformly, exercising the dense permutation classes.
	q := hypergraph.StarQuery(3)
	for _, mult := range []int{2, 4} {
		inst, _ := workload.BlocksMulti(q, 8, 2, mult)
		check(t, q, inst, 4, uint64(mult))
	}
}
