package matmul

// robustness_test.go verifies the separation the §3.2 design relies on:
// output-size estimates steer only the partitioning, so arbitrarily bad
// estimates may degrade load but can never corrupt results. The tests hand
// outputSensitive fabricated per-value estimates OUT_a and totals OUT.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mpcjoin/internal/dist"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/planner"
	"mpcjoin/internal/relation"
	"mpcjoin/internal/semiring"
)

// outSensWith runs the §3.2 branch on R1 ⋈ R2 after Compute's dangling
// removal, with est(a) as every A value's OUT_a estimate (keyed by the
// value's encoding) and out as the OUT estimate.
func outSensWith(r1, r2 *relation.Relation[int64], p int, out int64, est func(aKey string) int64, seed uint64) *relation.Relation[int64] {
	in := mkInput(r1, r2, p)
	in.R1, _ = dist.Semijoin(in.R1, in.R2)
	in.R2, _ = dist.Semijoin(in.R2, in.R1)
	aKey := in.R1.Key(in.ASide()...)
	seen := map[string]bool{}
	var ests []mpc.KeyCount[string]
	for _, r := range mpc.Collect(in.R1.Part) {
		if k := aKey(r); !seen[k] {
			seen[k] = true
			ests = append(ests, mpc.KeyCount[string]{Key: k, Count: est(k)})
		}
	}
	res, _ := outputSensitive(intSR, in, int64(in.R1.N()), int64(in.R2.N()), out, mpc.DistributeIn(nil, ests, p), seed)
	return dist.ToRelation(res)
}

func TestOutputSensitiveWithTinySketches(t *testing.T) {
	// Estimates as noisy as a 2-value sketch gives: random OUT_a and OUT.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r1, r2 := randMatrices(rng, rng.Intn(120)+2, rng.Intn(120)+2, 10, 6, 10)
		want := seqMatMul(r1, r2)
		if want.Len() == 0 {
			return true
		}
		p := rng.Intn(6) + 2
		got := outSensWith(r1, r2, p, rng.Int63n(4000)+1, func(string) int64 { return rng.Int63n(200) + 1 }, uint64(seed))
		return relation.Equal[int64](intSR, intEq, got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestOutputSensitiveWithLyingOracle(t *testing.T) {
	// Wildly wrong OUT and OUT_a — every value heavy, every value light, and
	// the mixes — must not affect answers.
	rng := rand.New(rand.NewSource(4))
	r1, r2 := randMatrices(rng, 120, 120, 12, 6, 12)
	want := seqMatMul(r1, r2)
	huge := int64(want.Len()) * 1000
	for _, out := range []int64{1, 5, huge} {
		for _, perA := range []int64{1, huge} {
			got := outSensWith(r1, r2, 4, out, func(string) int64 { return perA }, 9)
			if !relation.Equal[int64](intSR, intEq, got, want) {
				t.Fatalf("OUT %d, OUT_a %d corrupted the answer", out, perA)
			}
		}
	}
}

func TestAllAlgorithmsOnZipfSkew(t *testing.T) {
	// Heavy Zipf skew on B: every strategy must still agree with the
	// sequential reference.
	rng := rand.New(rand.NewSource(11))
	z := rand.NewZipf(rng, 1.3, 1, 63)
	r1 := relation.New[int64]("A", "B")
	r2 := relation.New[int64]("B", "C")
	for i := 0; i < 400; i++ {
		r1.Append(1, relation.Value(i), relation.Value(z.Uint64()))
		r2.Append(1, relation.Value(z.Uint64()), relation.Value(i))
	}
	r1 = relation.Compact[int64](intSR, r1)
	r2 = relation.Compact[int64](intSR, r2)
	want := seqMatMul(r1, r2)
	for _, engine := range []string{"", planner.EngineMatMulWorstCase, planner.EngineMatMulOutSens, planner.EngineMatMulLinear} {
		got, _, err := Compute[int64](intSR, mkInput(r1, r2, 8), Options{Engine: engine, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if !relation.Equal[int64](intSR, intEq, dist.ToRelation(got), want) {
			t.Fatalf("engine %q wrong under Zipf skew", engine)
		}
	}
}

func TestProvenanceThroughWorstCase(t *testing.T) {
	// The heaviest-weight semiring (sets of witness sets) must survive the
	// grid partitioning: annotations are routed and combined opaquely.
	why := semiring.WhyProvenance{}
	r1 := relation.New[semiring.Provenance]("A", "B")
	r2 := relation.New[semiring.Provenance]("B", "C")
	w := semiring.Witness(0)
	tag := func() semiring.Provenance { w++; return semiring.Why(w) }
	for a := 0; a < 6; a++ {
		for b := 0; b < 4; b++ {
			r1.AppendRow(relation.Row[semiring.Provenance]{
				Vals: []relation.Value{relation.Value(a), relation.Value(b)}, W: tag()})
		}
	}
	for b := 0; b < 4; b++ {
		for c := 0; c < 6; c++ {
			r2.AppendRow(relation.Row[semiring.Provenance]{
				Vals: []relation.Value{relation.Value(b), relation.Value(c)}, W: tag()})
		}
	}
	in := Input[semiring.Provenance]{
		R1: dist.FromRelationIn(nil, r1, 4),
		R2: dist.FromRelationIn(nil, r2, 4),
		B:  "B",
	}
	got, _, err := Compute[semiring.Provenance](why, in, Options{Engine: planner.EngineMatMulWorstCase, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := relation.ProjectAgg[semiring.Provenance](why,
		relation.Join[semiring.Provenance](why, r1, r2), "A", "C")
	if !relation.Equal[semiring.Provenance](why, why.Equal, dist.ToRelation(got), want) {
		t.Fatal("provenance corrupted by grid partitioning")
	}
	// Every (a,c) pair joins through all 4 b's: 4 witness sets each.
	for _, row := range want.Rows {
		if len(row.W) != 4 {
			t.Fatalf("expected 4 derivations, got %d", len(row.W))
		}
	}
}

func TestForcedBranchesAgreeOnLowerBoundShapes(t *testing.T) {
	// Dense single-block (Theorem 3 shape at OUT = N²): the nastiest case
	// for the output-sensitive grouping.
	r1, r2 := denseBlock(24, 16, 24)
	want := seqMatMul(r1, r2)
	for _, engine := range []string{planner.EngineMatMulWorstCase, planner.EngineMatMulOutSens, planner.EngineMatMulLinear} {
		got, _, err := Compute[int64](intSR, mkInput(r1, r2, 6), Options{Engine: engine, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !relation.Equal[int64](intSR, intEq, dist.ToRelation(got), want) {
			t.Fatalf("engine %q wrong on dense block", engine)
		}
	}
}

func TestSeedDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r1, r2 := randMatrices(rng, 200, 200, 20, 10, 20)
	in := mkInput(r1, r2, 8)
	_, st1, err := Compute[int64](intSR, in, Options{Engine: planner.EngineMatMulOutSens, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	_, st2, err := Compute[int64](intSR, mkInput(r1, r2, 8), Options{Engine: planner.EngineMatMulOutSens, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st2 {
		t.Fatalf("same seed, different stats: %+v vs %+v", st1, st2)
	}
}
