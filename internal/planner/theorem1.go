package planner

import "math"

// Theorem 1 of the paper, written once: its two size-only fast paths, the
// linear branch's gate, the two §3 loads and the rule over them. The
// composite matmul engine (matmul.Compute with no branch forced) takes
// these decisions on every nested matmul; the table's matmul rows price the
// same branches by their sorted collections instead, which is the
// top-level choice (DESIGN §4.19 says why the two differ).

// The two fast-path branches. They name branches of the composite matmul
// engine (matmul.Options.Engine), not table rows, so ParseEngine rejects
// them.
const (
	EngineMatMulBroadcast = "matmul-broadcast"
	EngineMatMulUnequal   = "matmul-unequal"
)

// MatMulFastPath returns the branch the sizes alone decide —
// EngineMatMulBroadcast when a side has at most one tuple,
// EngineMatMulUnequal when N1/N2 ∉ [1/p, p] — or "" when the choice
// needs OUT.
func MatMulFastPath(n1, n2 int64, p int) string {
	switch {
	case n1 <= 1 || n2 <= 1:
		return EngineMatMulBroadcast
	case n1*int64(p) < n2 || n2*int64(p) < n1:
		return EngineMatMulUnequal
	}
	return ""
}

// LinearGate is the linear branch's precondition OUT ≤ (N1+N2)/p.
func LinearGate(n1, n2, out int64, p int) bool {
	return float64(out) <= (float64(n1)+float64(n2))/math.Max(float64(p), 1)
}

// WorstCaseLoad is the §3.1 load √(N1·N2/p).
func WorstCaseLoad(n1, n2 int64, p int) float64 {
	return math.Sqrt(float64(n1) * float64(n2) / float64(p))
}

// OutSensLoad is the §3.2 load (N1·N2·OUT)^{1/3}/p^{2/3}.
func OutSensLoad(n1, n2, out int64, p int) float64 {
	return math.Cbrt(float64(n1)*float64(n2)*float64(out)) / math.Pow(float64(p), 2.0/3.0)
}

// MatMulBranch is Theorem 1's rule once no fast path applies: the linear
// branch when gated in, else worst-case when its load is no larger, else
// output-sensitive.
func MatMulBranch(n1, n2, out int64, p int) string {
	switch {
	case LinearGate(n1, n2, out, p):
		return EngineMatMulLinear
	case WorstCaseLoad(n1, n2, p) <= OutSensLoad(n1, n2, out, p):
		return EngineMatMulWorstCase
	}
	return EngineMatMulOutSens
}
