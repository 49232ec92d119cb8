package hypercube

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
	"mpcjoin/internal/workload"
)

var intSR = semiring.IntSumProd{}

func intEq(a, b int64) bool { return a == b }

func distRels(q *hypergraph.Query, inst db.Instance[int64], p int) map[string]dist.Rel[int64] {
	rels := make(map[string]dist.Rel[int64])
	for _, e := range q.Edges {
		rels[e.Name] = dist.FromRelationIn(nil, inst[e.Name], p)
	}
	return rels
}

func TestOptimalSharesProductBound(t *testing.T) {
	q := hypergraph.LineQuery(3)
	sizes := map[string]int{"R1": 100, "R2": 100, "R3": 100}
	for _, p := range []int{1, 4, 16, 64} {
		s := OptimalShares(q, sizes, p)
		if s.P() > p {
			t.Fatalf("p=%d: shares %v exceed budget", p, s)
		}
		if len(s.Dims) != 4 {
			t.Fatalf("dims = %v", s.Dims)
		}
	}
}

func TestOptimalSharesPrefersSkewedSizes(t *testing.T) {
	// Matmul with a huge R1: the B and A dimensions should get the shares.
	q := hypergraph.MatMulQuery()
	s := OptimalShares(q, map[string]int{"R1": 100000, "R2": 100}, 16)
	// Predicted load must beat the trivial (all ones) assignment.
	trivial := 100000.0 + 100.0
	got := 0.0
	for _, e := range q.Edges {
		den := 1.0
		for _, a := range e.Attrs {
			den *= float64(s.Dims[idxOf(s.Attrs, a)])
		}
		got += float64(map[string]int{"R1": 100000, "R2": 100}[e.Name]) / den
	}
	if got >= trivial {
		t.Fatalf("shares %v do not improve on trivial", s)
	}
}

func TestFullJoinMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var q *hypergraph.Query
		switch rng.Intn(3) {
		case 0:
			q = hypergraph.MatMulQuery()
		case 1:
			q = hypergraph.LineQuery(3)
		default:
			q = hypergraph.StarQuery(3)
		}
		// Full query: all attributes are output.
		full := hypergraph.NewQuery(q.Edges, q.Attrs()...)
		inst := make(db.Instance[int64])
		for _, e := range full.Edges {
			r := relation.New[int64](e.Attrs...)
			for i := 0; i < rng.Intn(40)+5; i++ {
				r.Append(int64(rng.Intn(4)+1), relation.Value(rng.Intn(6)), relation.Value(rng.Intn(6)))
			}
			inst[e.Name] = relation.Compact[int64](intSR, r)
		}
		p := rng.Intn(14) + 2
		got, _ := FullJoin(intSR, full, distRels(full, inst, p), uint64(seed))
		want, err := refengine.BruteForce[int64](intSR, full, inst)
		if err != nil {
			return false
		}
		return relation.Equal[int64](intSR, intEq, dist.ToRelation(got), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFullJoinNoDuplicates(t *testing.T) {
	// Each join result must be emitted by exactly one server.
	q := hypergraph.MatMulQuery()
	full := hypergraph.NewQuery(q.Edges, "A", "B", "C")
	inst, _ := workload.Blocks(full, 6, 2)
	got, _ := FullJoin(intSR, full, distRels(full, inst, 9), 3)
	seen := map[string]bool{}
	idx := []int{0, 1, 2}
	for _, shard := range got.Part.Shards {
		for _, row := range shard {
			k := relation.EncodeKey(row.Vals, idx)
			if seen[k] {
				t.Fatalf("duplicate full-join result %v", row.Vals)
			}
			seen[k] = true
		}
	}
}

func TestJoinAggregateMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := hypergraph.MatMulQuery()
		inst := make(db.Instance[int64])
		for _, e := range q.Edges {
			r := relation.New[int64](e.Attrs...)
			for i := 0; i < 50; i++ {
				r.Append(int64(rng.Intn(3)+1), relation.Value(rng.Intn(8)), relation.Value(rng.Intn(8)))
			}
			inst[e.Name] = relation.Compact[int64](intSR, r)
		}
		got, _ := JoinAggregate(intSR, q, distRels(q, inst, 6), uint64(seed))
		want, err := refengine.Yannakakis[int64](intSR, q, inst)
		if err != nil {
			t.Fatal(err)
		}
		if !relation.Equal[int64](intSR, intEq, dist.ToRelation(got), want) {
			t.Fatalf("seed %d: hypercube join-aggregate mismatch", seed)
		}
	}
}

func TestAggregationIsTheBottleneck(t *testing.T) {
	// §1.4's claim: computing the full join first makes the OUT_f/p
	// aggregation dominate. On a dense-B instance OUT_f = mult·OUT; the
	// hypercube route must pay ≥ OUT_f/p while the §3 algorithm does not.
	q := hypergraph.MatMulQuery()
	const p = 8
	inst, meta := workload.BlocksMulti(q, 64, 4, 8) // OUT_f = 8·OUT
	outf := meta.Out * 8
	_, st := JoinAggregate(intSR, q, distRels(q, inst, p), 1)
	if int64(st.MaxLoad) < outf/int64(p)/4 {
		t.Fatalf("hypercube route load %d suspiciously below OUT_f/p = %d", st.MaxLoad, outf/int64(p))
	}
}

func TestForEachCell(t *testing.T) {
	radix := []int{2, 3, 2}
	var cells []int
	forEachCell(radix, []int{-1, 2, -1}, func(c int) { cells = append(cells, c) })
	if len(cells) != 4 { // 2·1·2 free combinations
		t.Fatalf("cells = %v", cells)
	}
	// All cells must decode to coordinate 2 on dimension 1.
	for _, c := range cells {
		d2 := c % 2
		d1 := (c / 2) % 3
		if d1 != 2 {
			t.Fatalf("cell %d has dim1 = %d (dims %d %d)", c, d1, d1, d2)
		}
	}
}
