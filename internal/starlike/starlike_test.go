package starlike

import (
	"fmt"
	"math/rand"
	"slices"
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

// compute binds a plain star-like query and runs it, as core's runner
// does; a query of another class is an error.
func compute[W any](sr semiring.Semiring[W], q *hypergraph.Query, rels map[string]dist.Rel[W], seed uint64) (dist.Rel[W], mpc.Stats, error) {
	arms, center, ok := Bind(q, rels, dist.Single)
	if !ok {
		return dist.Rel[W]{}, mpc.Stats{}, fmt.Errorf("not a star-like query")
	}
	res, st := Run(sr, arms, center, seed)
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
		t.Fatalf("star-like mismatch: got %v want %v", dist.ToRelation(got), want)
	}
}

// smallStarLike: 3 arms — A1–B, A2–C21–B, A3–C31–B.
func smallStarLike() *hypergraph.Query {
	return hypergraph.NewQuery([]hypergraph.Edge{
		hypergraph.Bin("R1", "A1", "B"),
		hypergraph.Bin("R21", "A2", "C21"), hypergraph.Bin("R22", "C21", "B"),
		hypergraph.Bin("R31", "A3", "C31"), hypergraph.Bin("R32", "C31", "B"),
	}, "A1", "A2", "A3")
}

func TestSmallStarLikeAgainstReference(t *testing.T) {
	q := smallStarLike()
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(rng, q, 30, 7)
		check(t, q, inst, rng.Intn(6)+2, uint64(seed))
	}
}

func TestFig1StarLikeAgainstReference(t *testing.T) {
	q := hypergraph.Fig1StarLike()
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed + 50))
		inst := randomInstance(rng, q, 20, 6)
		check(t, q, inst, rng.Intn(5)+2, uint64(seed))
	}
}

func TestQuickRandomStarLike(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random star-like query: 3–4 arms of length 1–2.
		nArms := rng.Intn(2) + 3
		var edges []hypergraph.Edge
		var out []hypergraph.Attr
		for i := 0; i < nArms; i++ {
			leaf := hypergraph.Attr(rune('P' + i))
			out = append(out, leaf)
			if rng.Intn(2) == 0 {
				edges = append(edges, hypergraph.Bin("R"+string(rune('0'+i)), leaf, "B"))
			} else {
				mid := hypergraph.Attr("C" + string(rune('0'+i)))
				edges = append(edges,
					hypergraph.Bin("R"+string(rune('0'+i))+"a", leaf, mid),
					hypergraph.Bin("R"+string(rune('0'+i))+"b", mid, "B"))
			}
		}
		q := hypergraph.NewQuery(edges, out...)
		if err := q.Validate(); err != nil {
			return false
		}
		inst := randomInstance(rng, q, rng.Intn(25)+5, rng.Intn(5)+3)
		p := rng.Intn(5) + 2
		got, _, err := compute[int64](intSR, q, distRels(q, inst, p), uint64(seed))
		if err != nil {
			// Pure star queries (all arms single relations) are still
			// star-like by our view; errors are real failures.
			return false
		}
		want, err := refengine.Yannakakis[int64](intSR, q, inst)
		if err != nil {
			return false
		}
		return relation.Equal[int64](intSR, intEq, dist.ToRelation(got), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeClassPath(t *testing.T) {
	// Force large classes: b values where the product of the n−1 smallest
	// arm degrees exceeds the largest (all arms same moderate degree).
	q := smallStarLike()
	inst := make(db.Instance[int64])
	r1 := relation.New[int64]("A1", "B")
	r21 := relation.New[int64]("A2", "C21")
	r22 := relation.New[int64]("C21", "B")
	r31 := relation.New[int64]("A3", "C31")
	r32 := relation.New[int64]("C31", "B")
	// b = 0 joined with 6 values on every arm: 6·6 > 6 → large class.
	for i := 0; i < 6; i++ {
		r1.Append(1, relation.Value(i), 0)
		r21.Append(1, relation.Value(i), relation.Value(i%3))
		r22.Append(1, relation.Value(i%3), 0)
		r31.Append(1, relation.Value(i), relation.Value(i%2))
		r32.Append(1, relation.Value(i%2), 0)
	}
	inst["R1"] = relation.Compact[int64](intSR, r1)
	inst["R21"] = relation.Compact[int64](intSR, r21)
	inst["R22"] = relation.Compact[int64](intSR, r22)
	inst["R31"] = relation.Compact[int64](intSR, r31)
	inst["R32"] = relation.Compact[int64](intSR, r32)
	check(t, q, inst, 4, 0)
}

func TestSmallClassPath(t *testing.T) {
	// Force small classes: one dominant arm (degree 50), others degree 1.
	q := smallStarLike()
	inst := make(db.Instance[int64])
	r1 := relation.New[int64]("A1", "B")
	r21 := relation.New[int64]("A2", "C21")
	r22 := relation.New[int64]("C21", "B")
	r31 := relation.New[int64]("A3", "C31")
	r32 := relation.New[int64]("C31", "B")
	for i := 0; i < 50; i++ {
		r1.Append(1, relation.Value(i), 0)
	}
	r21.Append(1, 7, 3)
	r22.Append(1, 3, 0)
	r31.Append(1, 9, 4)
	r32.Append(1, 4, 0)
	inst["R1"] = r1
	inst["R21"] = r21
	inst["R22"] = r22
	inst["R31"] = r31
	inst["R32"] = r32
	check(t, q, inst, 4, 0)
}

func TestEmptyAfterDangling(t *testing.T) {
	q := smallStarLike()
	inst := make(db.Instance[int64])
	for _, e := range q.Edges {
		r := relation.New[int64](e.Attrs...)
		inst[e.Name] = r
	}
	inst["R1"].Append(1, 1, 1)
	inst["R21"].Append(1, 1, 1)
	inst["R22"].Append(1, 1, 2) // b = 2 ≠ 1: empty intersection
	inst["R31"].Append(1, 1, 1)
	inst["R32"].Append(1, 1, 1)
	got, _, err := compute[int64](intSR, q, distRels(q, inst, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 0 {
		t.Fatalf("expected empty, got %v", dist.ToRelation(got))
	}
}

func TestRunTwoArmsDegeneratesToLine(t *testing.T) {
	// Two arms of length 2 each: equivalent to the 4-relation line query.
	rng := rand.New(rand.NewSource(3))
	mk := func(a1, a2 hypergraph.Attr) *relation.Relation[int64] {
		r := relation.New[int64](a1, a2)
		for i := 0; i < 40; i++ {
			r.Append(1, relation.Value(rng.Intn(6)), relation.Value(rng.Intn(6)))
		}
		return relation.Compact[int64](intSR, r)
	}
	ra1 := mk("X", "C1")
	ra0 := mk("C1", "B")
	rb0 := mk("B", "C2")
	rb1 := mk("C2", "Y")
	const p = 4
	arms := []Arm[int64]{
		{Rels: []dist.Rel[int64]{dist.FromRelationIn(nil, ra0, p), dist.FromRelationIn(nil, ra1, p)},
			Path: [][]dist.Attr{{"B"}, {"C1"}, {"X"}}},
		{Rels: []dist.Rel[int64]{dist.FromRelationIn(nil, rb0, p), dist.FromRelationIn(nil, rb1, p)},
			Path: [][]dist.Attr{{"B"}, {"C2"}, {"Y"}}},
	}
	got, _ := Run[int64](intSR, arms, "B", 0)
	joined := relation.Join[int64](intSR, relation.Join[int64](intSR, relation.Join[int64](intSR, ra1, ra0), rb0), rb1)
	want := relation.ProjectAgg[int64](intSR, joined, "X", "Y")
	if !relation.Equal[int64](intSR, intEq, dist.ToRelation(got), want) {
		t.Fatalf("two-arm mismatch: %v vs %v", dist.ToRelation(got), want)
	}
}

// TestPermCodecRoundtrip round-trips the class id of §6 — permutation·2 +
// small-bit — through the one codec, at every arm count it admits: the flag
// bit must survive next to the widest permutation without overflow.
func TestPermCodecRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(dist.MaxPermArms-1) + 2
		order := rng.Perm(n)
		small := int64(rng.Intn(2))
		cid := dist.EncodePerm(order, n)*2 + small
		if cid < 0 || cid%2 != small {
			return false
		}
		return slices.Equal(dist.DecodePerm(cid/2, n), order)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRejectNonStarLike(t *testing.T) {
	q := hypergraph.LineQuery(3)
	if _, _, ok := Bind[int64](q, nil, dist.Single); ok {
		t.Fatal("Bind accepted a line query")
	}
}

func TestFig1WithMultiplicity(t *testing.T) {
	// Inner (non-output) attributes carry multiplicity: arm folds must
	// ⊕-combine duplicate derivations correctly (annotations multiply).
	q := hypergraph.Fig1StarLike()
	for _, mult := range []int{2, 3} {
		inst, _ := workload.BlocksMulti(q, 6, 2, mult)
		check(t, q, inst, 4, uint64(mult))
	}
}

func TestDanglingInjectionStarLike(t *testing.T) {
	q := hypergraph.Fig1StarLike()
	inst, _ := workload.Blocks(q, 8, 2)
	noisy := workload.InjectDangling(inst, int64(1), 0.5)
	check(t, q, noisy, 4, 0)
}
