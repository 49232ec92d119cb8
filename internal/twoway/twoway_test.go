package twoway

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mpcjoin/internal/dist"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/relation"
	"mpcjoin/internal/semiring"
)

var intSR = semiring.IntSumProd{}

func intEq(a, b int64) bool { return a == b }

func randomRel(rng *rand.Rand, schema []relation.Attr, n, dom int) *relation.Relation[int64] {
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

func TestJoinMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := rng.Intn(10) + 2
		r := randomRel(rng, []relation.Attr{"A", "B"}, rng.Intn(150)+1, 8)
		s := randomRel(rng, []relation.Attr{"B", "C"}, rng.Intn(150)+1, 8)
		got, outf, _ := Join[int64](intSR, dist.FromRelationIn(nil, r, p), dist.FromRelationIn(nil, s, p))
		want := relation.Join[int64](intSR, r, s)
		if int(outf) != want.Len() {
			return false
		}
		return relation.Equal[int64](intSR, intEq, dist.ToRelation(got), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestJoinAggMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := rng.Intn(8) + 2
		r := randomRel(rng, []relation.Attr{"A", "B"}, rng.Intn(120)+1, 6)
		s := randomRel(rng, []relation.Attr{"B", "C"}, rng.Intn(120)+1, 6)
		got, _ := JoinAgg[int64](intSR, dist.FromRelationIn(nil, r, p), dist.FromRelationIn(nil, s, p), "A", "C")
		want := relation.ProjectAgg[int64](intSR, relation.Join[int64](intSR, r, s), "A", "C")
		return relation.Equal[int64](intSR, intEq, dist.ToRelation(got), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestJoinEmptySides(t *testing.T) {
	r := relation.New[int64]("A", "B")
	s := relation.New[int64]("B", "C")
	s.Append(1, 1, 2)
	got, outf, _ := Join[int64](intSR, dist.FromRelationIn(nil, r, 4), dist.FromRelationIn(nil, s, 4))
	if got.N() != 0 || outf != 0 {
		t.Fatalf("empty join produced %d rows (outf %d)", got.N(), outf)
	}
}

func TestJoinSingleHotKeyLoad(t *testing.T) {
	// All tuples share one join key: OUT_f = n², so the optimal load is
	// Θ(√(n²/p)) = n/√p, far below the naive n (one server gets everything)
	// and below the output-shuffle bound n²/p for small p.
	const n, p = 2000, 16
	r := relation.New[int64]("A", "B")
	s := relation.New[int64]("B", "C")
	for i := 0; i < n; i++ {
		r.Append(1, relation.Value(i), 0)
		s.Append(1, 0, relation.Value(i))
	}
	got, outf, st := Join[int64](intSR, dist.FromRelationIn(nil, r, p), dist.FromRelationIn(nil, s, p))
	if outf != int64(n)*int64(n) {
		t.Fatalf("outf = %d", outf)
	}
	if got.N() != n*n {
		t.Fatalf("result rows = %d", got.N())
	}
	bound := 6 * int(math.Sqrt(float64(n)*float64(n)/float64(p)))
	if st.MaxLoad > bound {
		t.Fatalf("hot-key join load %d exceeds ~6·√(OUT_f/p) = %d", st.MaxLoad, bound)
	}
}

func TestJoinSkewMixture(t *testing.T) {
	// A mix of one heavy key and many light keys must stay correct.
	rng := rand.New(rand.NewSource(9))
	r := relation.New[int64]("A", "B")
	s := relation.New[int64]("B", "C")
	for i := 0; i < 500; i++ {
		r.Append(int64(rng.Intn(3)+1), relation.Value(i), 0) // heavy b=0
		s.Append(int64(rng.Intn(3)+1), 0, relation.Value(i))
	}
	for i := 0; i < 500; i++ {
		b := relation.Value(rng.Intn(200) + 1)
		r.Append(1, relation.Value(i+1000), b)
		s.Append(1, b, relation.Value(i+1000))
	}
	const p = 8
	got, _, _ := Join[int64](intSR, dist.FromRelationIn(nil, r, p), dist.FromRelationIn(nil, s, p))
	want := relation.Join[int64](intSR, r, s)
	if !relation.Equal[int64](intSR, intEq, dist.ToRelation(got), want) {
		t.Fatal("skew mixture join mismatch")
	}
}

func TestJoinLinearLoadOnLightData(t *testing.T) {
	// Uniform light data: load should be O(N/p).
	rng := rand.New(rand.NewSource(10))
	const n, p = 8000, 16
	r := relation.New[int64]("A", "B")
	s := relation.New[int64]("B", "C")
	for i := 0; i < n; i++ {
		r.Append(1, relation.Value(rng.Intn(n)), relation.Value(rng.Intn(n)))
		s.Append(1, relation.Value(rng.Intn(n)), relation.Value(rng.Intn(n)))
	}
	_, _, st := Join[int64](intSR, dist.FromRelationIn(nil, r, p), dist.FromRelationIn(nil, s, p))
	if st.MaxLoad > 8*(2*n)/p+p*p {
		t.Fatalf("light join load %d not O(N/p) (N/p = %d)", st.MaxLoad, 2*n/p)
	}
}

func TestJoinConstantRounds(t *testing.T) {
	// Rounds must not depend on data size.
	rounds := map[int]int{}
	for _, n := range []int{100, 1000, 4000} {
		rng := rand.New(rand.NewSource(11))
		r := randomRel(rng, []relation.Attr{"A", "B"}, n, 50)
		s := randomRel(rng, []relation.Attr{"B", "C"}, n, 50)
		_, _, st := Join[int64](intSR, dist.FromRelationIn(nil, r, 8), dist.FromRelationIn(nil, s, 8))
		rounds[st.Rounds] = n
	}
	if len(rounds) != 1 {
		t.Fatalf("rounds vary with data size: %v", rounds)
	}
}

// threeSortDegrees is the statistics step as three sample sorts — one
// count per side, then a lookup pairing the two counts — the reference the
// one reduce-by-key of degrees must reproduce element for element.
func threeSortDegrees(r, s dist.Rel[int64], rKey, sKey func(relation.Row[int64]) string) (mpc.Part[keyStat], mpc.Stats) {
	dr, st1 := mpc.CountByKey(r.Part, rKey)
	ds, st2 := mpc.CountByKey(s.Part, sKey)
	stats, st3 := mpc.Lookup(dr, ds,
		func(kc mpc.KeyCount[string]) string { return kc.Key },
		func(kc mpc.KeyCount[string]) string { return kc.Key },
		func(x, y mpc.KeyCount[string], found bool) (keyStat, bool) {
			return keyStat{Key: x.Key, L: x.Count, R: y.Count}, found
		})
	return stats, mpc.Seq(st1, st2, st3)
}

// TestTwowayStatisticsSortedOnce pins the statistics' cost and shows it
// moved nothing else: on an instance with a grid-heavy key, light keys and
// keys present on one side only, Join runs 10 rounds (the three-sort
// statistics would make it 14), and the routed shards and the result rows, in
// order, are those the three-sort statistics produce.
func TestTwowayStatisticsSortedOnce(t *testing.T) {
	const p = 8
	r := relation.New[int64]("A", "B")
	s := relation.New[int64]("B", "C")
	for i := 0; i < 200; i++ { // b = 0: heavy on both sides
		r.Append(int64(i%3+1), relation.Value(i), 0)
		s.Append(int64(i%5+1), 0, relation.Value(i))
	}
	for b := 1; b <= 50; b++ { // light keys
		for j := 0; j < 2; j++ {
			r.Append(1, relation.Value(1000+2*b+j), relation.Value(b))
			s.Append(2, relation.Value(b), relation.Value(1000+2*b+j))
		}
	}
	for b := 0; b < 20; b++ { // one-sided keys
		r.Append(1, relation.Value(b), relation.Value(100+b))
		s.Append(1, relation.Value(200+b), relation.Value(b))
	}
	rd, sd := dist.FromRelationIn(nil, r, p), dist.FromRelationIn(nil, s, p)
	rKey, sKey := rd.Key("B"), sd.Key("B")

	got, outf, st := Join[int64](intSR, rd, sd)
	if st.Rounds != 10 {
		t.Errorf("Join ran %d rounds, want 10", st.Rounds)
	}
	one, stOne := degrees(rd, sd, rKey, sKey)
	three, stThree := threeSortDegrees(rd, sd, rKey, sKey)
	if stOne.Rounds != 2 || stThree.Rounds != 6 {
		t.Errorf("statistics rounds: one reduce-by-key %d (want 2), three sorts %d (want 6)", stOne.Rounds, stThree.Rounds)
	}
	if !reflect.DeepEqual(mpc.Collect(one), mpc.Collect(three)) {
		t.Fatal("the reduce-by-key's (d_R, d_S) differ from the three sorts'")
	}
	heavy := 0
	for _, ks := range mpc.Collect(one) {
		if ks.L > 80 {
			heavy++
		}
	}
	if n := one.Len(); n != 51 || heavy != 1 {
		t.Fatalf("%d keys on both sides, %d heavy; want 51 and 1 (one-sided keys dropped)", n, heavy)
	}

	routedOne, outfOne, _ := route(rd, sd, rKey, sKey, one)
	routedThree, outfThree, _ := route(rd, sd, rKey, sKey, three)
	if outf != outfOne || outfOne != outfThree || outf != 200*200+50*4 {
		t.Fatalf("OUT_f %d / %d / %d, want %d", outf, outfOne, outfThree, 200*200+50*4)
	}
	// A routed shard interleaves the two sides in source order, and the
	// sources hold different slices of the bin lookups' output; each side's
	// rows, in order, are what every server receives and joins.
	if len(routedOne.Shards) != len(routedThree.Shards) {
		t.Fatalf("%d routed shards, want %d", len(routedOne.Shards), len(routedThree.Shards))
	}
	var want []relation.Row[int64]
	for d := range routedThree.Shards {
		l1, r1 := relation.Unzip(routedOne.Shards[d], rd.Schema, sd.Schema)
		l3, r3 := relation.Unzip(routedThree.Shards[d], rd.Schema, sd.Schema)
		if !reflect.DeepEqual(l1.Rows, l3.Rows) || !reflect.DeepEqual(r1.Rows, r3.Rows) {
			t.Fatalf("shard %d: routed rows differ from the three-sort statistics' routing", d)
		}
		want = append(want, relation.Join[int64](intSR, l3, r3).Rows...)
	}
	if !reflect.DeepEqual(mpc.Collect(got.Part), want) {
		t.Fatal("result rows differ, in order, from the three-sort statistics' join")
	}
}
