package treequery

// loadbound_test.go pins the §7 engine's measured load to its Theorem 6
// bound on controlled block workloads of the Figure 3 twig.

import (
	"math"
	"testing"

	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/workload"
)

func TestLoadWithinTheorem6Bound(t *testing.T) {
	q := hypergraph.Fig3Twig()
	const p = 16
	for _, sc := range []struct{ blocks, fan, mult int }{
		{64, 2, 1}, {64, 2, 2}, {32, 2, 4},
	} {
		inst, meta := workload.BlocksMulti(q, sc.blocks, sc.fan, sc.mult)
		rels := distRels(q, inst, p)
		_, st := Compute[int64](intSR, q, rels, 7)
		nMax := 0
		for _, n := range meta.PerEdge {
			if n > nMax {
				nMax = n
			}
		}
		n := float64(nMax)
		out := float64(meta.Out)
		bound := n*math.Pow(out, 2.0/3.0)/p + (float64(meta.N)+out)/p + float64(p*p)
		if float64(st.MaxLoad) > 8*bound {
			t.Fatalf("%+v: load %d exceeds 8× Theorem 6 bound %.0f", sc, st.MaxLoad, bound)
		}
	}
}

func TestConstantRoundsInDataSize(t *testing.T) {
	q := hypergraph.Fig3Twig()
	rounds := map[int]bool{}
	for _, blocks := range []int{8, 32, 128} {
		inst, _ := workload.Blocks(q, blocks, 2)
		_, st := Compute[int64](intSR, q, distRels(q, inst, 8), 3)
		rounds[st.Rounds] = true
	}
	// The recursion structure is fixed by the query; rounds may vary only
	// slightly with which heavy/light classes are non-empty.
	if len(rounds) > 2 {
		t.Fatalf("rounds vary with data size: %v", rounds)
	}
}
