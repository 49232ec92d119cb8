package matmul

// loadbound_test.go pins the measured loads of both §3 branches to their
// Lemma 1 / Lemma 2 bounds on controlled workloads.

import (
	"math"
	"testing"

	"mpcjoin/internal/planner"
	"mpcjoin/internal/workload"
)

func TestOutputSensitiveWithinLemma2Bound(t *testing.T) {
	const p = 16
	for _, fan := range []int{2, 4, 8} {
		blocks := 2048 / fan
		inst, meta := workload.MatMulBlocks(blocks, fan, fan)
		in := mkInput(inst["R1"], inst["R2"], p)
		_, st, err := Compute[int64](intSR, in, Options{Engine: planner.EngineMatMulOutSens, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		n1 := float64(meta.PerEdge["R1"])
		bound := math.Cbrt(n1*n1*float64(meta.Out))/math.Pow(p, 2.0/3.0) +
			2*n1/p + float64(meta.Out)/p + p*p
		if float64(st.MaxLoad) > 8*bound {
			t.Fatalf("fan %d: OS load %d exceeds 8× Lemma 2 bound %.0f", fan, st.MaxLoad, bound)
		}
	}
}

func TestWorstCaseWithinLemma1BoundOnBlocks(t *testing.T) {
	const p = 16
	for _, fan := range []int{4, 16} {
		blocks := 2048 / fan
		inst, meta := workload.MatMulBlocks(blocks, fan, fan)
		in := mkInput(inst["R1"], inst["R2"], p)
		_, st, err := Compute[int64](intSR, in, Options{Engine: planner.EngineMatMulWorstCase, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		n1 := float64(meta.PerEdge["R1"])
		bound := 2*n1/p + math.Sqrt(n1*n1/p) + p*p
		if float64(st.MaxLoad) > 6*bound {
			t.Fatalf("fan %d: WC load %d exceeds 6× Lemma 1 bound %.0f", fan, st.MaxLoad, bound)
		}
	}
}

func TestLinearWithinLinearBound(t *testing.T) {
	// OUT ≤ N/p regime: LinearSparseMM must be O(N/p).
	const p = 16
	inst, meta := workload.MatMulBlocks(512, 2, 2) // OUT = 2048, N = 2048
	in := mkInput(inst["R1"], inst["R2"], p)
	_, st, err := Compute[int64](intSR, in, Options{Engine: planner.EngineMatMulLinear, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	bound := 2*float64(meta.N)/p + float64(meta.Out)/p + p*p
	if float64(st.MaxLoad) > 6*bound {
		t.Fatalf("linear load %d exceeds 6× linear bound %.0f", st.MaxLoad, bound)
	}
}
