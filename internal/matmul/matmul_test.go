package matmul

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mpcjoin/internal/dist"
	"mpcjoin/internal/planner"
	"mpcjoin/internal/relation"
	"mpcjoin/internal/semiring"
)

var intSR = semiring.IntSumProd{}

func intEq(a, b int64) bool { return a == b }

func mkInput(r1, r2 *relation.Relation[int64], p int) Input[int64] {
	return Input[int64]{
		R1: dist.FromRelationIn(nil, r1, p),
		R2: dist.FromRelationIn(nil, r2, p),
		B:  "B",
	}
}

// seqMatMul is the sequential ground truth.
func seqMatMul(r1, r2 *relation.Relation[int64]) *relation.Relation[int64] {
	return relation.ProjectAgg[int64](intSR, relation.Join[int64](intSR, r1, r2), outAttrsOf(r1, r2)...)
}

func outAttrsOf(r1, r2 *relation.Relation[int64]) []relation.Attr {
	var out []relation.Attr
	for _, a := range r1.Schema() {
		if a != "B" {
			out = append(out, a)
		}
	}
	for _, a := range r2.Schema() {
		if a != "B" {
			out = append(out, a)
		}
	}
	return out
}

func randMatrices(rng *rand.Rand, n1, n2, domA, domB, domC int) (*relation.Relation[int64], *relation.Relation[int64]) {
	r1 := relation.New[int64]("A", "B")
	r2 := relation.New[int64]("B", "C")
	for i := 0; i < n1; i++ {
		r1.Append(int64(rng.Intn(5)+1), relation.Value(rng.Intn(domA)), relation.Value(rng.Intn(domB)))
	}
	for i := 0; i < n2; i++ {
		r2.Append(int64(rng.Intn(5)+1), relation.Value(rng.Intn(domB)), relation.Value(rng.Intn(domC)))
	}
	return relation.Compact[int64](intSR, r1), relation.Compact[int64](intSR, r2)
}

func checkAlgorithm(t *testing.T, engine string, seeds int) {
	t.Helper()
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		n1 := rng.Intn(150) + 2
		n2 := rng.Intn(150) + 2
		r1, r2 := randMatrices(rng, n1, n2, 12, 8, 12)
		p := rng.Intn(10) + 2
		got, _, err := Compute[int64](intSR, mkInput(r1, r2, p), Options{Engine: engine, Seed: uint64(seed)})
		if err != nil {
			t.Fatalf("engine %q seed %d: %v", engine, seed, err)
		}
		want := seqMatMul(r1, r2)
		if !relation.Equal[int64](intSR, intEq, dist.ToRelation(got), want) {
			t.Fatalf("engine %q seed %d p %d: got %v want %v", engine, seed, p,
				dist.ToRelation(got), want)
		}
	}
}

func TestWorstCaseCorrect(t *testing.T)       { checkAlgorithm(t, planner.EngineMatMulWorstCase, 12) }
func TestOutputSensitiveCorrect(t *testing.T) { checkAlgorithm(t, planner.EngineMatMulOutSens, 12) }
func TestLinearCorrect(t *testing.T)          { checkAlgorithm(t, planner.EngineMatMulLinear, 12) }
func TestBroadcastCorrect(t *testing.T)       { checkAlgorithm(t, planner.EngineMatMulBroadcast, 8) }
func TestUnequalCorrect(t *testing.T)         { checkAlgorithm(t, planner.EngineMatMulUnequal, 8) }
func TestAutoCorrect(t *testing.T)            { checkAlgorithm(t, "", 12) }

func TestQuickAutoMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r1, r2 := randMatrices(rng, rng.Intn(80)+1, rng.Intn(80)+1,
			rng.Intn(10)+1, rng.Intn(6)+1, rng.Intn(10)+1)
		if r1.Len() == 0 || r2.Len() == 0 {
			return true
		}
		p := rng.Intn(8) + 2
		got, _, err := Compute[int64](intSR, mkInput(r1, r2, p), Options{Seed: uint64(seed)})
		if err != nil {
			return false
		}
		return relation.Equal[int64](intSR, intEq, dist.ToRelation(got), seqMatMul(r1, r2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyInputs(t *testing.T) {
	r1 := relation.New[int64]("A", "B")
	r2 := relation.New[int64]("B", "C")
	r2.Append(1, 1, 2)
	got, _, err := Compute[int64](intSR, mkInput(r1, r2, 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 0 {
		t.Fatalf("empty input gave %d rows", got.N())
	}
}

func TestSingleTupleSides(t *testing.T) {
	r1 := relation.New[int64]("A", "B")
	r1.Append(3, 7, 1)
	r2 := relation.New[int64]("B", "C")
	for c := 0; c < 50; c++ {
		r2.Append(int64(c+1), 1, relation.Value(c))
	}
	got, st, err := Compute[int64](intSR, mkInput(r1, r2, 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := seqMatMul(r1, r2)
	if !relation.Equal[int64](intSR, intEq, dist.ToRelation(got), want) {
		t.Fatalf("N1=1 mismatch: %v vs %v", dist.ToRelation(got), want)
	}
	if st.MaxLoad > 60 {
		t.Fatalf("broadcast path load %d too high", st.MaxLoad)
	}
}

func TestNoDanglingSurvives(t *testing.T) {
	// Tuples with non-matching B must not affect results.
	r1 := relation.New[int64]("A", "B")
	r1.Append(1, 1, 10)
	r1.Append(1, 2, 99) // dangling
	r2 := relation.New[int64]("B", "C")
	r2.Append(1, 10, 5)
	r2.Append(1, 88, 6) // dangling
	for _, engine := range []string{planner.EngineMatMulWorstCase, planner.EngineMatMulOutSens, planner.EngineMatMulLinear, ""} {
		got, _, err := Compute[int64](intSR, mkInput(r1, r2, 3), Options{Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		want := relation.New[int64]("A", "C")
		want.Append(1, 1, 5)
		if !relation.Equal[int64](intSR, intEq, dist.ToRelation(got), want) {
			t.Fatalf("engine %q: %v", engine, dist.ToRelation(got))
		}
	}
}

func TestCompositeAttributes(t *testing.T) {
	// A side has two attributes (a combined attribute), as produced by the
	// star-query reduction.
	rng := rand.New(rand.NewSource(5))
	r1 := relation.New[int64]("A1", "A2", "B")
	r2 := relation.New[int64]("B", "C1", "C2")
	for i := 0; i < 120; i++ {
		r1.Append(int64(rng.Intn(3)+1), relation.Value(rng.Intn(5)), relation.Value(rng.Intn(5)), relation.Value(rng.Intn(6)))
		r2.Append(int64(rng.Intn(3)+1), relation.Value(rng.Intn(6)), relation.Value(rng.Intn(5)), relation.Value(rng.Intn(5)))
	}
	r1 = relation.Compact[int64](intSR, r1)
	r2 = relation.Compact[int64](intSR, r2)
	for _, engine := range []string{planner.EngineMatMulWorstCase, planner.EngineMatMulOutSens, planner.EngineMatMulLinear, ""} {
		in := Input[int64]{R1: dist.FromRelationIn(nil, r1, 5), R2: dist.FromRelationIn(nil, r2, 5), B: "B"}
		got, _, err := Compute[int64](intSR, in, Options{Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		want := relation.ProjectAgg[int64](intSR, relation.Join[int64](intSR, r1, r2), "A1", "A2", "C1", "C2")
		if !relation.Equal[int64](intSR, intEq, dist.ToRelation(got), want) {
			t.Fatalf("engine %q: composite mismatch", engine)
		}
	}
}

func TestIdempotentSemiring(t *testing.T) {
	boolSR := semiring.BoolOrAnd{}
	rng := rand.New(rand.NewSource(8))
	r1 := relation.New[bool]("A", "B")
	r2 := relation.New[bool]("B", "C")
	for i := 0; i < 100; i++ {
		r1.Append(true, relation.Value(rng.Intn(10)), relation.Value(rng.Intn(6)))
		r2.Append(true, relation.Value(rng.Intn(6)), relation.Value(rng.Intn(10)))
	}
	in := Input[bool]{R1: dist.FromRelationIn(nil, r1, 4), R2: dist.FromRelationIn(nil, r2, 4), B: "B"}
	got, _, err := Compute[bool](boolSR, in, Options{Engine: planner.EngineMatMulWorstCase})
	if err != nil {
		t.Fatal(err)
	}
	want := relation.ProjectAgg[bool](boolSR, relation.Join[bool](boolSR, r1, r2), "A", "C")
	if !relation.Equal[bool](boolSR, boolSR.Equal, dist.ToRelation(got), want) {
		t.Fatal("boolean mismatch")
	}
}

// --- Load-shape tests ---

// denseBlock builds the Theorem 3 style instance: dom(A)×dom(B) and
// dom(B)×dom(C) complete bipartite relations.
func denseBlock(nA, nB, nC int) (*relation.Relation[int64], *relation.Relation[int64]) {
	r1 := relation.New[int64]("A", "B")
	r2 := relation.New[int64]("B", "C")
	for a := 0; a < nA; a++ {
		for b := 0; b < nB; b++ {
			r1.Append(1, relation.Value(a), relation.Value(b))
		}
	}
	for b := 0; b < nB; b++ {
		for c := 0; c < nC; c++ {
			r2.Append(1, relation.Value(b), relation.Value(c))
		}
	}
	return r1, r2
}

func TestWorstCaseLoadBound(t *testing.T) {
	// Dense single-block instance: N1 = N2 = 2048, OUT = N1·N2/|B|².
	r1, r2 := denseBlock(64, 32, 64)
	const p = 16
	n := float64(r1.Len())
	_, st, err := Compute[int64](intSR, mkInput(r1, r2, p), Options{Engine: planner.EngineMatMulWorstCase})
	if err != nil {
		t.Fatal(err)
	}
	bound := 8 * math.Sqrt(n*n/float64(p))
	if float64(st.MaxLoad) > bound {
		t.Fatalf("worst-case load %d exceeds 8√(N1N2/p) = %.0f", st.MaxLoad, bound)
	}
}

func TestOutputSensitiveBeatsYannakakisShape(t *testing.T) {
	// Moderate-output instance: the output-sensitive load must be well
	// below the N·√OUT/p Yannakakis bound shape and below worst-case.
	rng := rand.New(rand.NewSource(42))
	const n, p = 4096, 16
	r1 := relation.New[int64]("A", "B")
	r2 := relation.New[int64]("B", "C")
	// Each a joins ~16 c's through a shared pool of b's: OUT ≈ 16N.
	for i := 0; i < n; i++ {
		a := relation.Value(i)
		b := relation.Value(rng.Intn(n / 16))
		r1.Append(1, a, b)
		r2.Append(1, relation.Value(i%(n/16)), relation.Value(rng.Intn(n)))
	}
	in := mkInput(r1, r2, p)
	_, stOS, err := Compute[int64](intSR, in, Options{Engine: planner.EngineMatMulOutSens})
	if err != nil {
		t.Fatal(err)
	}
	_, stWC, err := Compute[int64](intSR, mkInput(r1, r2, p), Options{Engine: planner.EngineMatMulWorstCase})
	if err != nil {
		t.Fatal(err)
	}
	if stOS.MaxLoad > 4*stWC.MaxLoad {
		t.Fatalf("output-sensitive load %d vastly above worst-case %d on sparse-output data",
			stOS.MaxLoad, stWC.MaxLoad)
	}
}

func TestConstantRounds(t *testing.T) {
	for _, engine := range []string{planner.EngineMatMulWorstCase, planner.EngineMatMulLinear} {
		rounds := map[int]bool{}
		for _, n := range []int{200, 800, 3200} {
			rng := rand.New(rand.NewSource(13))
			r1, r2 := randMatrices(rng, n, n, n/4, n/8, n/4)
			_, st, err := Compute[int64](intSR, mkInput(r1, r2, 8), Options{Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			rounds[st.Rounds] = true
		}
		if len(rounds) > 2 {
			t.Fatalf("engine %q: round count varies with N: %v", engine, rounds)
		}
	}
}

func TestDispatcherChoosesLinearForTinyOut(t *testing.T) {
	// OUT « N/p: identity-like matrices.
	r1 := relation.New[int64]("A", "B")
	r2 := relation.New[int64]("B", "C")
	const n, p = 4000, 8
	for i := 0; i < n; i++ {
		r1.Append(1, relation.Value(i%(n/(4*p))), relation.Value(i%(n/(4*p))))
		r2.Append(1, relation.Value(i%(n/(4*p))), relation.Value(i%(n/(4*p))))
	}
	r1c := relation.Compact[int64](intSR, r1)
	r2c := relation.Compact[int64](intSR, r2)
	got, st, err := Compute[int64](intSR, mkInput(r1c, r2c, p), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := seqMatMul(r1c, r2c)
	if !relation.Equal[int64](intSR, intEq, dist.ToRelation(got), want) {
		t.Fatal("tiny-out mismatch")
	}
	// Linear path must be near-linear load.
	if st.MaxLoad > 8*(r1c.Len()+r2c.Len())/p+p*p {
		t.Fatalf("tiny-out load %d not linear", st.MaxLoad)
	}
}

func TestUnequalRatioPath(t *testing.T) {
	// N1 « N2/p triggers the unequal fast path with linear load.
	rng := rand.New(rand.NewSource(3))
	const p = 8
	r1 := relation.New[int64]("A", "B")
	for i := 0; i < 12; i++ {
		r1.Append(1, relation.Value(i), relation.Value(i%4))
	}
	r2 := relation.New[int64]("B", "C")
	for i := 0; i < 4000; i++ {
		r2.Append(1, relation.Value(rng.Intn(4)), relation.Value(i))
	}
	got, st, err := Compute[int64](intSR, mkInput(r1, r2, p), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := seqMatMul(r1, r2)
	if !relation.Equal[int64](intSR, intEq, dist.ToRelation(got), want) {
		t.Fatal("unequal path mismatch")
	}
	// Loads: grouping R2 by C dominates — O(N2/p); broadcasting R1 adds N1.
	if st.MaxLoad > 8*4000/p+200 {
		t.Fatalf("unequal path load %d not linear", st.MaxLoad)
	}
}

// TestOutOracleAccepted: the §3.2 branch on exact OUT_a and OUT.
func TestOutOracleAccepted(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	r1, r2 := randMatrices(rng, 100, 100, 10, 6, 10)
	want := seqMatMul(r1, r2)
	outA := map[string]int64{}
	for _, row := range want.Rows {
		outA[relation.EncodeKey(row.Vals, []int{0})]++
	}
	got := outSensWith(r1, r2, 4, int64(want.Len()), func(a string) int64 { return outA[a] }, 0)
	if !relation.Equal[int64](intSR, intEq, got, want) {
		t.Fatal("exact-estimate run mismatch")
	}
}

func TestValidateErrors(t *testing.T) {
	r1 := relation.New[int64]("A", "X")
	r2 := relation.New[int64]("B", "C")
	in := Input[int64]{R1: dist.FromRelationIn(nil, r1, 2), R2: dist.FromRelationIn(nil, r2, 2), B: "B"}
	if _, _, err := Compute[int64](intSR, in, Options{}); err == nil {
		t.Fatal("expected schema error")
	}
	dup1 := relation.New[int64]("A", "B")
	dup2 := relation.New[int64]("B", "A")
	in2 := Input[int64]{R1: dist.FromRelationIn(nil, dup1, 2), R2: dist.FromRelationIn(nil, dup2, 2), B: "B"}
	if _, _, err := Compute[int64](intSR, in2, Options{}); err == nil {
		t.Fatal("expected duplicate side attribute error")
	}
	r1, r2 = denseBlock(2, 2, 2)
	if _, _, err := Compute[int64](intSR, mkInput(r1, r2, 2), Options{Engine: planner.EngineYannakakis}); err == nil {
		t.Fatal("expected an error for a name that is no matmul branch")
	}
}

func TestTropicalMinPlus(t *testing.T) {
	// Min-plus matmul = shortest 2-hop paths.
	mp := semiring.MinPlus{}
	r1 := relation.New[int64]("A", "B")
	r1.Append(3, 0, 1)
	r1.Append(8, 0, 2)
	r2 := relation.New[int64]("B", "C")
	r2.Append(4, 1, 9)
	r2.Append(1, 2, 9)
	in := Input[int64]{R1: dist.FromRelationIn(nil, r1, 3), R2: dist.FromRelationIn(nil, r2, 3), B: "B"}
	got, _, err := Compute[int64](mp, in, Options{Engine: planner.EngineMatMulWorstCase})
	if err != nil {
		t.Fatal(err)
	}
	want := relation.New[int64]("A", "C")
	want.Append(7, 0, 9) // min(3+4, 8+1)
	if !relation.Equal[int64](mp, mp.Equal, dist.ToRelation(got), want) {
		t.Fatalf("tropical: %v", dist.ToRelation(got))
	}
}

var benchSink int

func BenchmarkWorstCase(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	r1, r2 := randMatrices(rng, 2000, 2000, 300, 100, 300)
	in := mkInput(r1, r2, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, _ := Compute[int64](intSR, in, Options{Engine: planner.EngineMatMulWorstCase})
		benchSink = res.N()
	}
}
