package workload

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"mpcjoin/internal/db"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/refengine"
	"mpcjoin/internal/semiring"
)

var intSR = semiring.IntSumProd{}

func TestBlocksOutExactMatMul(t *testing.T) {
	inst, meta := MatMulBlocks(8, 3, 5)
	q := hypergraph.MatMulQuery()
	if err := db.Validate(q, inst); err != nil {
		t.Fatal(err)
	}
	out, err := refengine.CountOutput[int64](intSR, q, inst)
	if err != nil {
		t.Fatal(err)
	}
	if int64(out) != meta.Out || meta.Out != 8*3*5 {
		t.Fatalf("OUT = %d, meta %d, want %d", out, meta.Out, 8*3*5)
	}
	if meta.PerEdge["R1"] != 8*3 || meta.PerEdge["R2"] != 8*5 {
		t.Fatalf("sizes = %v", meta.PerEdge)
	}
}

func TestBlocksOutExactAcrossShapes(t *testing.T) {
	queries := []*hypergraph.Query{
		hypergraph.LineQuery(3),
		hypergraph.StarQuery(3),
		hypergraph.Fig3Twig(),
	}
	for _, q := range queries {
		inst, meta := Blocks(q, 4, 2)
		out, err := refengine.CountOutput[int64](intSR, q, inst)
		if err != nil {
			t.Fatal(err)
		}
		if int64(out) != meta.Out {
			t.Fatalf("%v: OUT = %d, meta %d", q.Output, out, meta.Out)
		}
		want := int64(4)
		for range q.Output {
			want *= 2
		}
		if meta.Out != want {
			t.Fatalf("%v: meta.Out = %d, want %d", q.Output, meta.Out, want)
		}
	}
}

func TestUniformAndZipf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := hypergraph.LineQuery(3)
	inst, meta := Uniform(q, 200, 50, rng)
	if meta.N == 0 || meta.Out != -1 {
		t.Fatalf("meta = %+v", meta)
	}
	if err := db.Validate(q, inst); err != nil {
		t.Fatal(err)
	}

	zinst, zmeta, err := Zipf(q, 500, 100, 1.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Validate(q, zinst); err != nil {
		t.Fatal(err)
	}
	// Zipf must produce at least one genuinely heavy value.
	deg := map[int64]int{}
	for _, row := range zinst["R1"].Rows {
		deg[int64(row.Vals[1])] += int(row.W)
	}
	max := 0
	for _, d := range deg {
		if d > max {
			max = d
		}
	}
	if max < 50 {
		t.Fatalf("Zipf skew too weak: max degree %d", max)
	}
	_ = zmeta
}

func TestMatMulZipfAndUnequal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	q := hypergraph.MatMulQuery()
	inst, _, err := MatMulZipf(300, 50, 1.8, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Validate(q, inst); err != nil {
		t.Fatal(err)
	}
	inst2, meta2 := MatMulUnequal(10, 1000, 5, rng)
	if err := db.Validate(q, inst2); err != nil {
		t.Fatal(err)
	}
	if meta2.PerEdge["R1"] >= meta2.PerEdge["R2"] {
		t.Fatalf("unequal sizes wrong: %v", meta2.PerEdge)
	}
}

func TestInjectDanglingPreservesAnswer(t *testing.T) {
	q := hypergraph.MatMulQuery()
	inst, _ := MatMulBlocks(5, 2, 3)
	noisy := InjectDangling(inst, int64(1), 0.5)
	if db.InputSize(noisy) <= db.InputSize(inst) {
		t.Fatal("no dangling injected")
	}
	a, _ := refengine.BruteForce[int64](intSR, q, inst)
	b, _ := refengine.BruteForce[int64](intSR, q, noisy)
	if a.Len() != b.Len() {
		t.Fatalf("dangling changed answer: %d vs %d", a.Len(), b.Len())
	}
}

// TestInjectDanglingIsDeterministic: relations draw their fresh values in
// name order, so every call builds the same rows in the same order — the
// instance an execution's rounds and loads are pinned on.
func TestInjectDanglingIsDeterministic(t *testing.T) {
	first, _ := Named("matmul-sparse").Canonical(true)
	for i := 0; i < 20; i++ {
		again, _ := Named("matmul-sparse").Canonical(true)
		for name, r := range first {
			if !reflect.DeepEqual(again[name].Rows, r.Rows) {
				t.Fatalf("call %d: %s's rows differ from the first call's", i, name)
			}
		}
	}
}

func TestZipfParamValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := hypergraph.MatMulQuery()
	// These used to panic inside rand.NewZipf; now they are typed errors.
	if _, _, err := Zipf(q, 10, 50, 1.0, rng); !errors.Is(err, ErrInvalidParam) {
		t.Fatalf("Zipf s=1.0: err = %v, want ErrInvalidParam", err)
	}
	if _, _, err := Zipf(q, 10, 0, 1.5, rng); !errors.Is(err, ErrInvalidParam) {
		t.Fatalf("Zipf dom=0: err = %v, want ErrInvalidParam", err)
	}
	if _, _, err := MatMulZipf(10, 50, 0.3, rng); !errors.Is(err, ErrInvalidParam) {
		t.Fatalf("MatMulZipf s=0.3: err = %v, want ErrInvalidParam", err)
	}
	if _, _, err := MatMulZipf(10, 1, 1.5, rng); !errors.Is(err, ErrInvalidParam) {
		t.Fatalf("MatMulZipf dom=1: err = %v, want ErrInvalidParam", err)
	}
}

func TestPowerLawGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	inst, meta, err := PowerLawGraph(500, 6, 1.3, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	q := GraphQuery()
	if err := db.Validate(q, inst); err != nil {
		t.Fatal(err)
	}
	r := inst["E"]
	if meta.N != r.Len() || meta.N < 499 {
		t.Fatalf("meta.N = %d over %d edges", meta.N, r.Len())
	}
	// Connectivity: the tree backbone reaches every vertex from 0.
	adj := map[int64][]int64{}
	outdeg := map[int64]int{}
	for _, row := range r.Rows {
		s, d := int64(row.Vals[0]), int64(row.Vals[1])
		if s == d {
			t.Fatalf("self-loop %d", s)
		}
		if row.W < 1 || row.W > 100 {
			t.Fatalf("weight %d outside [1, 100]", row.W)
		}
		adj[s] = append(adj[s], d)
		outdeg[s]++
	}
	reached := map[int64]bool{0: true}
	stack := []int64{0}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !reached[w] {
				reached[w] = true
				stack = append(stack, w)
			}
		}
	}
	if len(reached) != 500 {
		t.Fatalf("only %d/500 vertices reachable from 0", len(reached))
	}
	// Power-law skew: the heaviest hub's degree dwarfs the average.
	max := 0
	for _, d := range outdeg {
		if d > max {
			max = d
		}
	}
	if max < 3*meta.N/500 {
		t.Fatalf("skew too weak: max out-degree %d, %d edges over 500 vertices", max, meta.N)
	}

	// Parameter validation mirrors the Zipf generators.
	for _, bad := range []func() error{
		func() error { _, _, err := PowerLawGraph(1, 6, 1.3, 100, rng); return err },
		func() error { _, _, err := PowerLawGraph(500, 0.5, 1.3, 100, rng); return err },
		func() error { _, _, err := PowerLawGraph(500, 6, 0.9, 100, rng); return err },
		func() error { _, _, err := PowerLawGraph(500, 6, 1.3, 0, rng); return err },
	} {
		if err := bad(); !errors.Is(err, ErrInvalidParam) {
			t.Fatalf("bad params: err = %v, want ErrInvalidParam", err)
		}
	}
}
