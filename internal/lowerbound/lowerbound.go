// Package lowerbound constructs the hard instances of Theorems 2 and 3 of
// Hu–Yi PODS'20 and audits the matrix multiplication algorithm against the
// proved bounds. The theorems hold in the idempotent semiring MPC model,
// so the audits run under the Boolean semiring.
//
// Theorem 2: an instance with two B values shared by all of dom(C) forces
// any constant-round algorithm to move Ω((N1+N2)/p) units.
//
// Theorem 3: the complete bipartite instance dom(A) × dom(B) × dom(C) with
// |A| = √(N1·OUT/N2), |B| = √(N1·N2/OUT), |C| = √(N2·OUT/N1) forces load
// Ω(min{√(N1·N2/p), (N1·N2·OUT)^{1/3}/p^{2/3}}).
//
// Together with Theorem 1's matching upper bound, measuring our
// algorithm's load on these instances within a constant of the bound is
// the optimality evidence the experiments report.
package lowerbound

import (
	"fmt"
	"math"

	"mpcjoin/internal/db"
	"mpcjoin/internal/planner"
	"mpcjoin/internal/relation"
)

// Instance is a generated hard instance plus its certified parameters.
type Instance struct {
	Inst db.Instance[bool]
	// N1, N2 are the realized input sizes; Out the realized output size.
	N1, N2, Out int64
}

// Thm2 builds the Theorem 2 instance for target sizes n1, n2 ≥ 2 and
// max{n1,n2} ≤ out ≤ n1·n2: R1 = {a} × {b_1..b_{n1}}, R2 = {b_1, b_2} ×
// dom(C) with |C| = n2/2, padded with disjoint unit triples up to the
// target output size. Realized sizes are Θ(n1), Θ(n2), Θ(out).
func Thm2(n1, n2, out int64) (Instance, error) {
	if n1 < 2 || n2 < 2 {
		return Instance{}, fmt.Errorf("lowerbound: Thm2 needs n1, n2 ≥ 2")
	}
	if out < maxI(n1, n2) || out > n1*n2 {
		return Instance{}, fmt.Errorf("lowerbound: Thm2 needs max{N1,N2} ≤ OUT ≤ N1·N2")
	}
	r1 := relation.New[bool]("A", "B")
	r2 := relation.New[bool]("B", "C")
	const a = 0
	for i := int64(0); i < n1; i++ {
		r1.Append(true, a, relation.Value(i))
	}
	nc := n2 / 2
	for j := int64(0); j < nc; j++ {
		r2.Append(true, 0, relation.Value(j))
		r2.Append(true, 1, relation.Value(j))
	}
	outSoFar := nc // {a} × dom(C)
	// Disjoint padding triples (a_i, b_i, c_i), one output each.
	pad := out - outSoFar
	base := relation.Value(1 << 30)
	for i := int64(0); i < pad; i++ {
		r1.Append(true, base+relation.Value(i), base+relation.Value(i))
		r2.Append(true, base+relation.Value(i), base+relation.Value(i))
	}
	return Instance{
		Inst: db.Instance[bool]{"R1": r1, "R2": r2},
		N1:   int64(r1.Len()), N2: int64(r2.Len()), Out: outSoFar + pad,
	}, nil
}

// Thm2Bound is the Theorem 2 load lower bound Ω((N1+N2)/p) (constant 1/2
// in the proof; reported without the constant).
func Thm2Bound(n1, n2 int64, p int) float64 {
	return float64(n1+n2) / float64(p)
}

// Thm3 builds the Theorem 3 dense-block instance for target sizes
// n1, n2 ≥ 2 with 1/OUT ≤ N1/N2 ≤ OUT: complete bipartite relations over
// |A| = √(n1·out/n2), |B| = √(n1·n2/out), |C| = √(n2·out/n1). Realized
// sizes are Θ of the targets (rounding).
func Thm3(n1, n2, out int64) (Instance, error) {
	if n1 < 2 || n2 < 2 {
		return Instance{}, fmt.Errorf("lowerbound: Thm3 needs n1, n2 ≥ 2")
	}
	if out < maxI(n1, n2) || out > n1*n2 {
		return Instance{}, fmt.Errorf("lowerbound: Thm3 needs max{N1,N2} ≤ OUT ≤ N1·N2")
	}
	da := int64(math.Round(math.Sqrt(float64(n1) * float64(out) / float64(n2))))
	dbv := int64(math.Round(math.Sqrt(float64(n1) * float64(n2) / float64(out))))
	dc := int64(math.Round(math.Sqrt(float64(n2) * float64(out) / float64(n1))))
	if da < 1 {
		da = 1
	}
	if dbv < 1 {
		dbv = 1
	}
	if dc < 1 {
		dc = 1
	}
	r1 := relation.New[bool]("A", "B")
	r2 := relation.New[bool]("B", "C")
	for i := int64(0); i < da; i++ {
		for j := int64(0); j < dbv; j++ {
			r1.Append(true, relation.Value(i), relation.Value(j))
		}
	}
	for j := int64(0); j < dbv; j++ {
		for k := int64(0); k < dc; k++ {
			r2.Append(true, relation.Value(j), relation.Value(k))
		}
	}
	return Instance{
		Inst: db.Instance[bool]{"R1": r1, "R2": r2},
		N1:   da * dbv, N2: dbv * dc, Out: da * dc,
	}, nil
}

// Thm3Bound is the Theorem 3 load lower bound
// Ω(min{√(N1·N2/p), (N1·N2·OUT)^{1/3}/p^{2/3}}).
func Thm3Bound(n1, n2, out int64, p int) float64 {
	return math.Min(planner.WorstCaseLoad(n1, n2, p), planner.OutSensLoad(n1, n2, out, p))
}

func maxI(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
