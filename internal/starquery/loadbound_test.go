package starquery

// loadbound_test.go pins the §5 algorithm's measured load to its Theorem 5
// bound on controlled block workloads.

import (
	"math"
	"testing"

	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/workload"
)

func TestLoadWithinTheorem5Bound(t *testing.T) {
	q := hypergraph.StarQuery(3)
	const p = 16
	for _, fan := range []int{2, 4, 8} {
		blocks := 1024 / fan
		inst, meta := workload.Blocks(q, blocks, fan)
		rels := distRels(q, inst, p)
		_, st, err := compute[int64](intSR, q, rels, 7)
		if err != nil {
			t.Fatal(err)
		}
		n := float64(meta.N) / 3
		out := float64(meta.Out)
		bound := math.Pow(n*out/p, 2.0/3.0) +
			n*math.Sqrt(out)/p +
			(3*n+out)/p +
			float64(p*p)
		if float64(st.MaxLoad) > 8*bound {
			t.Fatalf("fan %d: load %d exceeds 8× Theorem 5 bound %.0f", fan, st.MaxLoad, bound)
		}
	}
}

func TestObliviousToOut(t *testing.T) {
	// The §5 algorithm never consumes an OUT estimate: running it twice on
	// instances that differ only in OUT-irrelevant padding must not change
	// its decisions' structure. Proxy check: same instance, different
	// seeds, identical loads (the algorithm is deterministic given data —
	// its only randomness is inside the matmul subroutine hashing).
	q := hypergraph.StarQuery(3)
	inst, _ := workload.Blocks(q, 64, 4)
	rels := distRels(q, inst, 8)
	_, st1, err := compute[int64](intSR, q, rels, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, st2, err := compute[int64](intSR, q, distRels(q, inst, 8), 1)
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st2 {
		t.Fatalf("non-deterministic stats: %+v vs %+v", st1, st2)
	}
}
