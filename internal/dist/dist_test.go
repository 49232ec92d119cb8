package dist

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/refengine"
	"mpcjoin/internal/relation"
	"mpcjoin/internal/semiring"

	"mpcjoin/internal/db"
)

var intSR = semiring.IntSumProd{}

func intEq(a, b int64) bool { return a == b }

func randomRel(rng *rand.Rand, schema []Attr, n, dom int) *relation.Relation[int64] {
	r := relation.New[int64](schema...)
	for i := 0; i < n; i++ {
		vals := make([]relation.Value, len(schema))
		for j := range vals {
			vals[j] = relation.Value(rng.Intn(dom))
		}
		r.AppendRow(relation.Row[int64]{Vals: vals, W: int64(rng.Intn(5) + 1)})
	}
	return r
}

func TestFromToRelationRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := randomRel(rng, []Attr{"A", "B"}, 100, 10)
	d := FromRelationIn(nil, r, 8)
	if d.N() != 100 || d.P() != 8 {
		t.Fatalf("N=%d P=%d", d.N(), d.P())
	}
	back := ToRelation(d)
	if !relation.Equal[int64](intSR, intEq, r, back) {
		t.Fatal("roundtrip lost data")
	}
}

func TestProjectAggMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := rng.Intn(10) + 2
		r := randomRel(rng, []Attr{"A", "B", "C"}, rng.Intn(300)+1, 6)
		d := FromRelationIn(nil, r, p)
		got, _ := ProjectAgg[int64](intSR, d, "A", "C")
		want := relation.ProjectAgg[int64](intSR, r, "A", "C")
		return relation.Equal[int64](intSR, intEq, ToRelation(got), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestProjectAggKeysUnique(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := randomRel(rng, []Attr{"A", "B"}, 500, 3) // heavy duplication
	d := FromRelationIn(nil, r, 8)
	got, _ := ProjectAgg[int64](intSR, d, "A")
	seen := map[relation.Value]bool{}
	for _, shard := range got.Part.Shards {
		for _, row := range shard {
			if seen[row.Vals[0]] {
				t.Fatalf("duplicate key %v in ProjectAgg output", row.Vals[0])
			}
			seen[row.Vals[0]] = true
		}
	}
	if len(seen) != 3 {
		t.Fatalf("expected 3 keys, got %d", len(seen))
	}
}

func TestSemijoinMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := rng.Intn(8) + 2
		r := randomRel(rng, []Attr{"A", "B"}, rng.Intn(200)+1, 8)
		s := randomRel(rng, []Attr{"B", "C"}, rng.Intn(200), 8)
		dr, ds := FromRelationIn(nil, r, p), FromRelationIn(nil, s, p)
		got, _ := Semijoin(dr, ds)
		want := relation.Semijoin(r, s)
		return relation.Equal[int64](intSR, intEq, ToRelation(got), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestDegrees(t *testing.T) {
	r := relation.New[int64]("A", "B")
	for i := 0; i < 7; i++ {
		r.Append(1, 1, relation.Value(i))
	}
	for i := 0; i < 3; i++ {
		r.Append(1, 2, relation.Value(i))
	}
	d := FromRelationIn(nil, r, 4)
	deg, _ := Degrees(d, "A")
	got := map[int64]int64{}
	for _, kc := range mpc.Collect(deg) {
		got[kc.Key] = kc.Count
	}
	if got[1] != 7 || got[2] != 3 {
		t.Fatalf("degrees = %v", got)
	}
}

func TestBroadcastRel(t *testing.T) {
	r := relation.New[int64]("A", "B")
	r.Append(1, 5, 6)
	d := FromRelationIn(nil, r, 5)
	b, st := Broadcast(d)
	for s := range b.Part.Shards {
		if len(b.Part.Shards[s]) != 1 {
			t.Fatalf("server %d missing broadcast row", s)
		}
	}
	if st.MaxLoad != 1 {
		t.Fatalf("broadcast load = %d", st.MaxLoad)
	}
}

func TestGroupByColocation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r := randomRel(rng, []Attr{"A", "B"}, 300, 10)
	d := FromRelationIn(nil, r, 8)
	g, _ := GroupBy(d, "B")
	owner := map[relation.Value]int{}
	for s, shard := range g.Part.Shards {
		for _, row := range shard {
			b := row.Vals[1]
			if o, ok := owner[b]; ok && o != s {
				t.Fatalf("value %v split across servers %d and %d", b, o, s)
			}
			owner[b] = s
		}
	}
	if g.N() != 300 {
		t.Fatal("GroupBy lost rows")
	}
}

func TestAttachAgg(t *testing.T) {
	// r(A,B) joined with agg(B): annotations multiply; unmatched rows drop.
	r := relation.New[int64]("A", "B")
	r.Append(2, 1, 10)
	r.Append(3, 2, 10)
	r.Append(5, 3, 11)
	r.Append(7, 4, 99) // no matching agg row
	agg := relation.New[int64]("B")
	agg.Append(100, 10)
	agg.Append(1000, 11)

	got, _ := AttachAgg[int64](intSR, FromRelationIn(nil, r, 3), FromRelationIn(nil, agg, 3), []Attr{"B"})
	want := relation.New[int64]("A", "B")
	want.Append(200, 1, 10)
	want.Append(300, 2, 10)
	want.Append(5000, 3, 11)
	if !relation.Equal[int64](intSR, intEq, ToRelation(got), want) {
		t.Fatalf("AttachAgg = %v, want %v", ToRelation(got), want)
	}
}

func TestUnionAgg(t *testing.T) {
	a := relation.New[int64]("A")
	a.Append(1, 5)
	b := relation.New[int64]("A")
	b.Append(2, 5)
	b.Append(3, 6)
	got, _ := UnionAgg[int64](intSR, FromRelationIn(nil, a, 4), FromRelationIn(nil, b, 6))
	want := relation.New[int64]("A")
	want.Append(3, 5)
	want.Append(3, 6)
	if !relation.Equal[int64](intSR, intEq, ToRelation(got), want) {
		t.Fatalf("UnionAgg = %v", ToRelation(got))
	}
}

func TestReorderProjectFilter(t *testing.T) {
	r := relation.New[int64]("A", "B")
	r.Append(1, 1, 2)
	d := FromRelationIn(nil, r, 2)
	ro := Reorder(d, []Attr{"B", "A"})
	row := mpc.Collect(ro.Part)[0]
	if row.Vals[0] != 2 || row.Vals[1] != 1 {
		t.Fatalf("reorder wrong: %v", row)
	}
	fl := Filter(d, func(row relation.Row[int64]) bool { return false })
	if fl.N() != 0 {
		t.Fatal("filter wrong")
	}
}

func TestRemoveDanglingMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := rng.Intn(8) + 2
		q := hypergraph.LineQuery(3)
		inst := make(db.Instance[int64])
		rels := make(map[string]Rel[int64])
		for _, e := range q.Edges {
			r := randomRel(rng, e.Attrs, rng.Intn(60)+1, 6)
			inst[e.Name] = r
			rels[e.Name] = FromRelationIn(nil, r, p)
		}
		reduced, _ := RemoveDangling(q, rels)
		want := refengine.RemoveDangling(q, inst)
		for _, e := range q.Edges {
			if !relation.Equal[int64](intSR, intEq, ToRelation(reduced[e.Name]), want[e.Name]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveDanglingLoadLinear(t *testing.T) {
	// Load must stay O(N/p) regardless of skew.
	const n, p = 4000, 16
	q := hypergraph.MatMulQuery()
	r1 := relation.New[int64]("A", "B")
	r2 := relation.New[int64]("B", "C")
	for i := 0; i < n; i++ {
		r1.Append(1, relation.Value(i), 0) // all share b=0
		r2.Append(1, 0, relation.Value(i))
	}
	rels := map[string]Rel[int64]{
		"R1": FromRelationIn(nil, r1, p),
		"R2": FromRelationIn(nil, r2, p),
	}
	_, st := RemoveDangling(q, rels)
	if st.MaxLoad > 4*(2*n)/p+p*p {
		t.Fatalf("dangling removal load %d not linear (N/p = %d)", st.MaxLoad, 2*n/p)
	}
}

func TestShardRelAndKey(t *testing.T) {
	r := relation.New[int64]("A", "B")
	r.Append(1, 7, 8)
	d := FromRelationIn(nil, r, 2)
	k := d.Key("B")
	if k(relation.Row[int64]{Vals: []relation.Value{7, 8}}) != k(relation.Row[int64]{Vals: []relation.Value{9, 8}}) {
		t.Fatal("key must depend only on projected attrs")
	}
}

func TestEncodeKeyOrderPreserving(t *testing.T) {
	idx := []int{0}
	lo := relation.EncodeKey([]relation.Value{-5}, idx)
	mid := relation.EncodeKey([]relation.Value{0}, idx)
	hi := relation.EncodeKey([]relation.Value{3}, idx)
	if !(lo < mid && mid < hi) {
		t.Fatal("EncodeKey does not preserve signed order")
	}
}
