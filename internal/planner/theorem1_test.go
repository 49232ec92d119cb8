package planner

import (
	"math"
	"testing"
)

// theorem1Reference is the branch switch matmul.Compute ran before Theorem
// 1's arithmetic moved into this package, copied literally: the integer
// linear gate and the two loads spelled inline.
func theorem1Reference(n1, n2, out int64, p int) string {
	switch {
	case n1 <= 1 || n2 <= 1:
		return EngineMatMulBroadcast
	case n1*int64(p) < n2 || n2*int64(p) < n1:
		return EngineMatMulUnequal
	}
	switch {
	case out <= (n1+n2)/int64(p):
		return EngineMatMulLinear
	case math.Sqrt(float64(n1)*float64(n2)/float64(p)) <=
		math.Cbrt(float64(n1)*float64(n2)*float64(out))/math.Pow(float64(p), 2.0/3.0):
		return EngineMatMulWorstCase
	}
	return EngineMatMulOutSens
}

// TestTheorem1MatchesReference sweeps sizes around every power of two up
// to 2¹⁴, OUT at the linear gate, across the worst-case/output-sensitive
// boundary √(N1·N2·p) and over powers of two, and p including non-powers:
// the fast paths plus the rule must pick the reference's branch
// everywhere, exact load ties included.
func TestTheorem1MatchesReference(t *testing.T) {
	var sizes []int64
	for k := 0; k <= 14; k++ {
		sizes = append(sizes, int64(1)<<k-1, int64(1)<<k, int64(1)<<k+1)
	}
	ties := 0
	for _, p := range []int{1, 2, 3, 4, 5, 8, 16, 64} {
		for _, n1 := range sizes {
			for _, n2 := range sizes {
				gate := (n1 + n2) / int64(p)
				cross := int64(math.Sqrt(float64(n1) * float64(n2) * float64(p)))
				outs := []int64{1, gate, gate + 1, cross - 1, cross, cross + 1}
				for k := 0; k <= 42; k++ {
					outs = append(outs, int64(1)<<k)
				}
				for _, out := range outs {
					got := MatMulFastPath(n1, n2, p)
					if got == "" {
						got = MatMulBranch(n1, n2, out, p)
						if !LinearGate(n1, n2, out, p) && WorstCaseLoad(n1, n2, p) == OutSensLoad(n1, n2, out, p) {
							ties++
						}
					}
					if want := theorem1Reference(n1, n2, out, p); got != want {
						t.Fatalf("N1=%d N2=%d OUT=%d p=%d: got %s, reference %s", n1, n2, out, p, got, want)
					}
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("the sweep hit no exact worst-case/output-sensitive load tie")
	}
}
