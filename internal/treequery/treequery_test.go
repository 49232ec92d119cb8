package treequery

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mpcjoin/internal/db"
	"mpcjoin/internal/dist"
	"mpcjoin/internal/hypergraph"
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

func distRels(q *hypergraph.Query, inst db.Instance[int64], p int) map[string]dist.Rel[int64] {
	rels := make(map[string]dist.Rel[int64])
	for _, e := range q.Edges {
		rels[e.Name] = dist.FromRelationIn(nil, inst[e.Name], p)
	}
	return rels
}

func check(t *testing.T, q *hypergraph.Query, inst db.Instance[int64], p int, seed uint64) {
	t.Helper()
	got, _ := Compute[int64](intSR, q, distRels(q, inst, p), seed)
	want, err := refengine.Yannakakis[int64](intSR, q, inst)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal[int64](intSR, intEq, dist.ToRelation(got), want) {
		t.Fatalf("tree mismatch on %s:\ngot  %v\nwant %v", refengine.String(q), dist.ToRelation(got), want)
	}
}

func TestFig3TwigAgainstReference(t *testing.T) {
	q := hypergraph.Fig3Twig()
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(rng, q, 14, 6)
		check(t, q, inst, rng.Intn(5)+2, uint64(seed))
	}
}

func TestFig2FullTreeAgainstReference(t *testing.T) {
	q := hypergraph.Fig2Tree()
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed + 7))
		inst := randomInstance(rng, q, 10, 8)
		check(t, q, inst, rng.Intn(4)+2, uint64(seed))
	}
}

func TestSimpleShapesViaTreeEngine(t *testing.T) {
	// The tree engine must handle every specialized shape through its twig
	// dispatch.
	queries := []*hypergraph.Query{
		hypergraph.MatMulQuery(),
		hypergraph.LineQuery(3),
		hypergraph.StarQuery(3),
		hypergraph.Fig1StarLike(),
		hypergraph.NewQuery([]hypergraph.Edge{hypergraph.Bin("R", "A", "B")}, "A", "B"),
	}
	for qi, q := range queries {
		rng := rand.New(rand.NewSource(int64(qi) * 13))
		inst := randomInstance(rng, q, 25, 6)
		check(t, q, inst, 4, uint64(qi))
	}
}

func TestFreeConnexViaTreeEngine(t *testing.T) {
	q := hypergraph.NewQuery([]hypergraph.Edge{
		hypergraph.Bin("R1", "A", "B"), hypergraph.Bin("R2", "B", "C"),
	}, "A", "B", "C")
	rng := rand.New(rand.NewSource(2))
	inst := randomInstance(rng, q, 30, 5)
	check(t, q, inst, 4, 0)
}

func TestScalarAggregateViaTreeEngine(t *testing.T) {
	q := hypergraph.NewQuery([]hypergraph.Edge{
		hypergraph.Bin("R1", "A", "B"), hypergraph.Bin("R2", "B", "C"),
	})
	rng := rand.New(rand.NewSource(3))
	inst := randomInstance(rng, q, 30, 5)
	check(t, q, inst, 4, 0)
}

func TestUnaryAndPendantReduction(t *testing.T) {
	// Unary edge and private non-output pendants must reduce correctly.
	q := hypergraph.NewQuery([]hypergraph.Edge{
		hypergraph.Bin("R1", "A", "B"), hypergraph.Bin("R2", "B", "C"),
		hypergraph.Un("U", "B"), hypergraph.Bin("P", "C", "Z"),
	}, "A", "C")
	rng := rand.New(rand.NewSource(4))
	inst := randomInstance(rng, q, 20, 5)
	// Unary edge relation.
	u := relation.New[int64]("B")
	for i := 0; i < 5; i++ {
		u.Append(int64(i+1), relation.Value(i))
	}
	inst["U"] = u
	check(t, q, inst, 4, 0)
}

func TestDoubleBranchTwig(t *testing.T) {
	// Two branch vertices joined directly — the minimal general twig.
	q := hypergraph.NewQuery([]hypergraph.Edge{
		hypergraph.Bin("Rm", "B1", "B2"),
		hypergraph.Bin("R1a", "B1", "A1"), hypergraph.Bin("R1b", "B1", "A2"),
		hypergraph.Bin("R2a", "B2", "A3"), hypergraph.Bin("R2b", "B2", "A4"),
	}, "A1", "A2", "A3", "A4")
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed + 20))
		inst := randomInstance(rng, q, 12, 5)
		check(t, q, inst, 4, uint64(seed))
	}
}

func TestThreeBranchChain(t *testing.T) {
	// Three branch vertices in a row: two recursion levels may be needed.
	q := hypergraph.NewQuery([]hypergraph.Edge{
		hypergraph.Bin("Rm1", "B1", "B2"), hypergraph.Bin("Rm2", "B2", "B3"),
		hypergraph.Bin("R1a", "B1", "A1"), hypergraph.Bin("R1b", "B1", "A2"),
		hypergraph.Bin("R2a", "B2", "A3"),
		hypergraph.Bin("R3a", "B3", "A4"), hypergraph.Bin("R3b", "B3", "A5"),
	}, "A1", "A2", "A3", "A4", "A5")
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed + 40))
		inst := randomInstance(rng, q, 10, 4)
		check(t, q, inst, 4, uint64(seed))
	}
}

func TestPendantWithLongArm(t *testing.T) {
	// Pendant subtrees with multi-relation arms (inner non-output attrs).
	q := hypergraph.NewQuery([]hypergraph.Edge{
		hypergraph.Bin("Rm", "B1", "B2"),
		hypergraph.Bin("R1a", "B1", "C1"), hypergraph.Bin("R1b", "C1", "A1"),
		hypergraph.Bin("R1c", "B1", "A2"),
		hypergraph.Bin("R2a", "B2", "A3"), hypergraph.Bin("R2b", "B2", "A4"),
	}, "A1", "A2", "A3", "A4")
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed + 60))
		inst := randomInstance(rng, q, 10, 4)
		check(t, q, inst, 4, uint64(seed))
	}
}

func TestEmptyAnswerTree(t *testing.T) {
	q := hypergraph.Fig3Twig()
	inst := make(db.Instance[int64])
	for _, e := range q.Edges {
		r := relation.New[int64](e.Attrs...)
		r.Append(1, 1, 1)
		inst[e.Name] = r
	}
	// Break one edge.
	broken := relation.New[int64](q.Edges[0].Attrs...)
	broken.Append(1, 42, 43)
	inst[q.Edges[0].Name] = broken
	got, _ := Compute[int64](intSR, q, distRels(q, inst, 3), 0)
	if got.N() != 0 {
		t.Fatalf("expected empty, got %v", dist.ToRelation(got))
	}
}

func TestQuickRandomTrees(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nAttrs := rng.Intn(5) + 3
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
		q := hypergraph.NewQuery(edges, out...)
		if err := q.Validate(); err != nil {
			return true
		}
		inst := randomInstance(rng, q, 12, 4)
		p := rng.Intn(5) + 2
		got, _ := Compute[int64](intSR, q, distRels(q, inst, p), uint64(seed))
		want, err := refengine.Yannakakis[int64](intSR, q, inst)
		if err != nil {
			return false
		}
		return relation.Equal[int64](intSR, intEq, dist.ToRelation(got), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBooleanSemiringTree(t *testing.T) {
	boolSR := semiring.BoolOrAnd{}
	q := hypergraph.Fig3Twig()
	rng := rand.New(rand.NewSource(91))
	inst := make(db.Instance[bool])
	rels := make(map[string]dist.Rel[bool])
	for _, e := range q.Edges {
		r := relation.New[bool](e.Attrs...)
		for i := 0; i < 14; i++ {
			r.Append(true, relation.Value(rng.Intn(5)), relation.Value(rng.Intn(5)))
		}
		inst[e.Name] = r
		rels[e.Name] = dist.FromRelationIn(nil, r, 4)
	}
	got, _ := Compute[bool](boolSR, q, rels, 0)
	want, err := refengine.Yannakakis[bool](boolSR, q, inst)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal[bool](boolSR, boolSR.Equal, dist.ToRelation(got), want) {
		t.Fatal("boolean tree mismatch")
	}
}
