package estimate

import (
	"math"
	"math/rand"
	"testing"

	"mpcjoin/internal/db"
	"mpcjoin/internal/dist"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/refengine"
	"mpcjoin/internal/relation"
	"mpcjoin/internal/semiring"
)

var intSR = semiring.IntSumProd{}

// matmulPath is the two-edge path A–B–C of R1(A,B) ⋈ R2(B,C).
var matmulPath = [][]dist.Attr{{"A"}, {"B"}, {"C"}}

func TestVecMedianBoost(t *testing.T) {
	p := Params{k: 32, reps: 9, Seed: 7}
	v := NewVec(p)
	for i := uint64(0); i < 5000; i++ {
		v = v.Insert(i)
	}
	est := v.Estimate()
	if est < 2500 || est > 10000 {
		t.Fatalf("median estimate %v too far from 5000", est)
	}
}

func TestMergeVecEqualsUnion(t *testing.T) {
	p := Params{k: 16, reps: 5, Seed: 3}
	a, b, u := NewVec(p), NewVec(p), NewVec(p)
	for i := uint64(0); i < 300; i++ {
		if i%2 == 0 {
			a = a.Insert(i)
		} else {
			b = b.Insert(i)
		}
		u = u.Insert(i)
	}
	m := MergeVec(a, b)
	if m.Estimate() != u.Estimate() {
		t.Fatalf("merge estimate %v != union estimate %v", m.Estimate(), u.Estimate())
	}
}

// buildMatMul creates R1(A,B), R2(B,C) where each a joins exactly fan
// distinct c values (disjoint across a's), so OUT = nA·fan exactly.
func buildMatMul(nA, fan int) (db.Instance[int64], *hypergraph.Query) {
	q := hypergraph.MatMulQuery()
	r1 := relation.New[int64]("A", "B")
	r2 := relation.New[int64]("B", "C")
	for a := 0; a < nA; a++ {
		r1.Append(1, relation.Value(a), relation.Value(a))
		for f := 0; f < fan; f++ {
			r2.Append(1, relation.Value(a), relation.Value(a*fan+f))
		}
	}
	return db.Instance[int64]{"R1": r1, "R2": r2}, q
}

func TestMatMulOutAccuracy(t *testing.T) {
	inst, q := buildMatMul(50, 40) // OUT = 2000
	_ = q
	const p = 8
	r1 := dist.FromRelationIn(nil, inst["R1"], p)
	r2 := dist.FromRelationIn(nil, inst["R2"], p)
	ests, total, st := LineOut([]dist.Rel[int64]{r1, r2}, matmulPath, Params{Seed: 11})
	if total < 1000 || total > 4000 {
		t.Fatalf("OUT estimate %d too far from 2000", total)
	}
	// Per-a estimates: each a joins exactly 40 c's.
	nVals := 0
	for _, kc := range mpc.Collect(ests) {
		nVals++
		if kc.Count < 15 || kc.Count > 120 {
			t.Fatalf("OUT_a estimate %d for a=%v too far from 40", kc.Count, relation.DecodeKey(kc.Key))
		}
	}
	if nVals != 50 {
		t.Fatalf("estimates for %d values, want 50", nVals)
	}
	if st.Rounds == 0 {
		t.Fatal("estimator must consume rounds")
	}
}

func TestMatMulOutSharedColumns(t *testing.T) {
	// All a's join the SAME set of c's: per-a fanout small, total OUT large.
	q := hypergraph.MatMulQuery()
	r1 := relation.New[int64]("A", "B")
	r2 := relation.New[int64]("B", "C")
	const nA, nC = 60, 30
	for a := 0; a < nA; a++ {
		r1.Append(1, relation.Value(a), 0)
	}
	for c := 0; c < nC; c++ {
		r2.Append(1, 0, relation.Value(c))
	}
	inst := db.Instance[int64]{"R1": r1, "R2": r2}
	wantOut, err := refengine.CountOutput[int64](intSR, q, inst)
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	rels := []dist.Rel[int64]{dist.FromRelationIn(nil, r1, p), dist.FromRelationIn(nil, r2, p)}
	_, total, _ := LineOut(rels, matmulPath, Params{Seed: 5})
	if float64(total) < 0.5*float64(wantOut) || float64(total) > 2*float64(wantOut) {
		t.Fatalf("OUT estimate %d vs true %d", total, wantOut)
	}
}

func TestLineOutLongerPath(t *testing.T) {
	// 3-hop path where each a reaches a known set of endpoints.
	q := hypergraph.LineQuery(3)
	rng := rand.New(rand.NewSource(21))
	inst := make(db.Instance[int64])
	for _, e := range q.Edges {
		r := relation.New[int64](e.Attrs...)
		for i := 0; i < 150; i++ {
			r.Append(1, relation.Value(rng.Intn(25)), relation.Value(rng.Intn(25)))
		}
		inst[e.Name] = r
	}
	// Remove dangling first (the estimator's precondition).
	red := refengine.RemoveDangling(q, inst)
	wantOut, err := refengine.CountOutput[int64](intSR, q, red)
	if err != nil {
		t.Fatal(err)
	}
	if wantOut == 0 {
		t.Skip("degenerate instance")
	}
	const p = 6
	rels := []dist.Rel[int64]{
		dist.FromRelationIn(nil, red["R1"], p),
		dist.FromRelationIn(nil, red["R2"], p),
		dist.FromRelationIn(nil, red["R3"], p),
	}
	_, total, _ := LineOut(rels, [][]dist.Attr{{"A1"}, {"A2"}, {"A3"}, {"A4"}}, Params{Seed: 9})
	ratio := float64(total) / float64(wantOut)
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("OUT estimate %d vs true %d (ratio %.2f)", total, wantOut, ratio)
	}
}

func TestLineOutLinearLoad(t *testing.T) {
	// The estimator must not exceed ~N/p load (in sketch units).
	const n, p = 6000, 12
	r1 := relation.New[int64]("A", "B")
	r2 := relation.New[int64]("B", "C")
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		r1.Append(1, relation.Value(rng.Intn(n)), relation.Value(rng.Intn(200)))
		r2.Append(1, relation.Value(rng.Intn(200)), relation.Value(rng.Intn(n)))
	}
	rels := []dist.Rel[int64]{dist.FromRelationIn(nil, r1, p), dist.FromRelationIn(nil, r2, p)}
	_, _, st := LineOut(rels, matmulPath, Params{Seed: 2})
	if st.MaxLoad > 8*(2*n)/p {
		t.Fatalf("estimator load %d not linear (N/p = %d)", st.MaxLoad, 2*n/p)
	}
}

func TestParamsDefaults(t *testing.T) {
	p := (Params{}).withDefaults(1000)
	if p.k != defaultK {
		t.Fatalf("k = %d", p.k)
	}
	if p.reps < 5 || p.reps%2 == 0 {
		t.Fatalf("reps = %d", p.reps)
	}
	even := Params{reps: 6}
	if got := even.withDefaults(10); got.reps != 7 {
		t.Fatalf("even reps not bumped: %d", got.reps)
	}
}

func TestEstimateExactBelowK(t *testing.T) {
	// Fewer distinct items than K: estimates must be exact, so LineOut is
	// deterministic on tiny instances.
	inst, _ := buildMatMul(10, 3) // per-a fanout 3 < K
	const p = 4
	rels := []dist.Rel[int64]{dist.FromRelationIn(nil, inst["R1"], p), dist.FromRelationIn(nil, inst["R2"], p)}
	ests, total, _ := LineOut(rels, matmulPath, Params{Seed: 1})
	if total != 30 {
		t.Fatalf("exact regime estimate %d, want 30", total)
	}
	for _, kc := range mpc.Collect(ests) {
		if kc.Count != 3 {
			t.Fatalf("exact per-a estimate %d, want 3", kc.Count)
		}
	}
	_ = math.Pi
}
