package lowerbound

import (
	"testing"

	"mpcjoin/internal/dist"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/matmul"
	"mpcjoin/internal/refengine"
	"mpcjoin/internal/semiring"
)

var boolSR = semiring.BoolOrAnd{}

func TestThm2InstanceShape(t *testing.T) {
	inst, err := Thm2(100, 200, 500)
	if err != nil {
		t.Fatal(err)
	}
	// Realized sizes within a small constant of the targets.
	if inst.N1 < 100 || inst.N1 > 600 || inst.N2 < 200 || inst.N2 > 1200 {
		t.Fatalf("sizes N1=%d N2=%d", inst.N1, inst.N2)
	}
	q := hypergraph.MatMulQuery()
	out, err := refengine.CountOutput[bool](boolSR, q, inst.Inst)
	if err != nil {
		t.Fatal(err)
	}
	if int64(out) != inst.Out {
		t.Fatalf("OUT = %d, certified %d", out, inst.Out)
	}
	if out < 250 || out > 1000 {
		t.Fatalf("OUT = %d not Θ(500)", out)
	}
}

func TestThm2Rejections(t *testing.T) {
	if _, err := Thm2(1, 10, 10); err == nil {
		t.Fatal("n1 < 2 must fail")
	}
	if _, err := Thm2(10, 10, 5); err == nil {
		t.Fatal("OUT < max must fail")
	}
	if _, err := Thm2(10, 10, 1000); err == nil {
		t.Fatal("OUT > N1·N2 must fail")
	}
}

func TestThm3InstanceShape(t *testing.T) {
	inst, err := Thm3(1024, 1024, 16384)
	if err != nil {
		t.Fatal(err)
	}
	q := hypergraph.MatMulQuery()
	out, err := refengine.CountOutput[bool](boolSR, q, inst.Inst)
	if err != nil {
		t.Fatal(err)
	}
	if int64(out) != inst.Out {
		t.Fatalf("OUT = %d, certified %d", out, inst.Out)
	}
	ratio := float64(out) / 16384
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("OUT = %d not Θ(16384)", out)
	}
	if float64(inst.N1) < 512 || float64(inst.N1) > 2048 {
		t.Fatalf("N1 = %d not Θ(1024)", inst.N1)
	}
}

// TestOptimalityOnThm3 is the optimality audit: the Theorem 1 algorithm's
// measured load on the Theorem 3 hard instance must sit within a constant
// factor of the proved lower bound — evidence that both the algorithm and
// the bound are tight.
func TestOptimalityOnThm3(t *testing.T) {
	const p = 16
	for _, tc := range []struct{ n1, n2, out int64 }{
		{4096, 4096, 65536},   // output-sensitive regime
		{4096, 4096, 4194304}, // OUT = N²/4: worst-case regime
	} {
		inst, err := Thm3(tc.n1, tc.n2, tc.out)
		if err != nil {
			t.Fatal(err)
		}
		in := matmul.Input[bool]{
			R1: dist.FromRelationIn(nil, inst.Inst["R1"], p),
			R2: dist.FromRelationIn(nil, inst.Inst["R2"], p),
			B:  "B",
		}
		_, st, err := matmul.Compute[bool](boolSR, in, matmul.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		bound := Thm3Bound(inst.N1, inst.N2, inst.Out, p)
		ratio := float64(st.MaxLoad) / bound
		if ratio < 0.05 {
			t.Fatalf("load %d suspiciously below the lower bound %.0f — meter broken?", st.MaxLoad, bound)
		}
		if ratio > 60 {
			t.Fatalf("load %d is %.1f× the lower bound %.0f — not within constants", st.MaxLoad, ratio, bound)
		}
	}
}

func TestThm2AuditLinearLoad(t *testing.T) {
	const p = 8
	inst, err := Thm2(500, 1000, 1500)
	if err != nil {
		t.Fatal(err)
	}
	in := matmul.Input[bool]{
		R1: dist.FromRelationIn(nil, inst.Inst["R1"], p),
		R2: dist.FromRelationIn(nil, inst.Inst["R2"], p),
		B:  "B",
	}
	_, st, err := matmul.Compute[bool](boolSR, in, matmul.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	bound := Thm2Bound(inst.N1, inst.N2, p)
	ratio := float64(st.MaxLoad) / bound
	if ratio < 0.05 || ratio > 60 {
		t.Fatalf("load %d vs Thm2 bound %.0f (ratio %.2f) outside constants", st.MaxLoad, bound, ratio)
	}
}

func TestBoundsMonotone(t *testing.T) {
	if Thm3Bound(1000, 1000, 100000, 16) > Thm3Bound(1000, 1000, 1000000, 16) {
		t.Fatal("Thm3 bound must grow with OUT")
	}
	if Thm3Bound(1000, 1000, 1000*1000, 16) != Thm3Bound(1000, 1000, 1000*999, 16) {
		// At OUT = N², the min must be the worst-case branch.
		wc := Thm3Bound(1000, 1000, 1000*1000, 16)
		if wc > 250000 {
			t.Fatalf("worst-case branch wrong: %f", wc)
		}
	}
	if Thm2Bound(100, 100, 4) != 50 {
		t.Fatal("Thm2 bound arithmetic wrong")
	}
}
