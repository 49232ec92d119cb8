package linequery

// loadbound_test.go pins the measured load of the §4 algorithm to its
// Theorem 4 bound on controlled block workloads, with generous constants —
// a regression net for the load behavior the experiments report.

import (
	"math"
	"testing"

	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/workload"
)

func TestLoadWithinTheorem4Bound(t *testing.T) {
	q := hypergraph.LineQuery(3)
	const p = 16
	for _, fan := range []int{2, 4, 8, 16} {
		blocks := 1024 / fan
		inst, meta := workload.Blocks(q, blocks, fan)
		rels := distRels(q, inst, p)
		_, st, err := compute[int64](intSR, q, rels, 7)
		if err != nil {
			t.Fatal(err)
		}
		n := float64(meta.N) / 3 // per-relation size
		out := float64(meta.Out)
		bound := n*math.Sqrt(out)/p +
			math.Pow(n*out/p, 2.0/3.0) +
			(3*n+out)/p +
			float64(p*p) // sample-sort term
		if float64(st.MaxLoad) > 8*bound {
			t.Fatalf("fan %d: load %d exceeds 8× Theorem 4 bound %.0f", fan, st.MaxLoad, bound)
		}
	}
}

func TestLoadBeatsBaselineAtLargeOut(t *testing.T) {
	// At the largest OUT of the sweep the §4 algorithm must strictly beat
	// the distributed Yannakakis J/p behavior (J = OUT on blocks).
	q := hypergraph.LineQuery(3)
	const p, fan = 16, 16
	inst, meta := workload.Blocks(q, 1024/fan, fan)
	rels := distRels(q, inst, p)
	_, st, err := compute[int64](intSR, q, rels, 7)
	if err != nil {
		t.Fatal(err)
	}
	jOverP := int(meta.Out) / p
	if st.MaxLoad >= 2*jOverP {
		t.Fatalf("load %d not below 2·J/p = %d at OUT=%d", st.MaxLoad, 2*jOverP, meta.Out)
	}
}
