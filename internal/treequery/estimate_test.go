package treequery

// estimate_test.go white-box tests for the §7.1 statistics: pendant x(b)
// estimates and Algorithm 1's y(b) underestimates, checked against the
// Lemma 12 invariant (y(b) ≥ x(b') for joinable pairs of pendant roots).

import (
	"testing"

	"mpcjoin/internal/dist"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/relation"
)

// buildTwig constructs the minimal two-branch twig B1–B2 with controllable
// pendant fanouts: B1 carries leaves A1, A2 (fan1 values each per b), B2
// carries leaves A3, A4 (fan2 values each).
func buildTwig(t *testing.T, nB int, fan1, fan2 int, p int) (*vtree[int64], *hypergraph.Skeleton) {
	t.Helper()
	q := hypergraph.NewQuery([]hypergraph.Edge{
		hypergraph.Bin("Rm", "B1", "B2"),
		hypergraph.Bin("R1a", "B1", "A1"), hypergraph.Bin("R1b", "B1", "A2"),
		hypergraph.Bin("R2a", "B2", "A3"), hypergraph.Bin("R2b", "B2", "A4"),
	}, "A1", "A2", "A3", "A4")
	inst := map[string]*relation.Relation[int64]{}
	for _, e := range q.Edges {
		inst[e.Name] = relation.New[int64](e.Attrs...)
	}
	for b := 0; b < nB; b++ {
		inst["Rm"].Append(1, relation.Value(b), relation.Value(b))
		for f := 0; f < fan1; f++ {
			inst["R1a"].Append(1, relation.Value(b), relation.Value(b*100+f))
			inst["R1b"].Append(1, relation.Value(b), relation.Value(b*100+f))
		}
		for f := 0; f < fan2; f++ {
			inst["R2a"].Append(1, relation.Value(b), relation.Value(b*100+f))
			inst["R2b"].Append(1, relation.Value(b), relation.Value(b*100+f))
		}
	}
	vt := &vtree[int64]{q: q, groups: map[hypergraph.Attr][]dist.Attr{}, rels: map[string]dist.Rel[int64]{}}
	for name, r := range inst {
		vt.rels[name] = dist.FromRelationIn(nil, r, p)
	}
	sk := hypergraph.SkeletonOf(q)
	if sk == nil {
		t.Fatal("no skeleton")
	}
	return vt, sk
}

func collectCounts(pt mpc.Part[mpc.KeyCount[int64]]) map[int64]int64 {
	out := map[int64]int64{}
	for _, kc := range mpc.Collect(pt) {
		out[kc.Key] = kc.Count
	}
	return out
}

func TestPendantXExactOnSmallFans(t *testing.T) {
	// fan1 = 3 per arm, two arms → x(b) = 9 for every b (below the sketch
	// size, so estimates are exact).
	vt, sk := buildTwig(t, 5, 3, 2, 4)
	xp, _ := pendantX(vt, sk.Pendants["B1"], "B1")
	got := collectCounts(xp)
	if len(got) != 5 {
		t.Fatalf("x values for %d b's, want 5", len(got))
	}
	for b, x := range got {
		if x != 9 {
			t.Fatalf("x(%d) = %d, want 9", b, x)
		}
	}
	xp2, _ := pendantX(vt, sk.Pendants["B2"], "B2")
	for b, x := range collectCounts(xp2) {
		if x != 4 {
			t.Fatalf("x2(%d) = %d, want 4", b, x)
		}
	}
}

func TestEstimateOutTreeLemma12(t *testing.T) {
	// y computed at B1 must satisfy y(b) ≥ x_{B2}(b') for joinable (b, b')
	// — here b joins b' = b, so y_{B1}(b) ≥ x_{B2}(b) = 4.
	vt, sk := buildTwig(t, 5, 3, 2, 4)
	roots := []hypergraph.Attr{"B1", "B2"}
	xParts := map[hypergraph.Attr]mpc.Part[mpc.KeyCount[int64]]{}
	for _, b := range roots {
		xp, _ := pendantX(vt, sk.Pendants[b], b)
		xParts[b] = xp
	}
	y1, _ := estimateOutTree(vt, sk, "B1", roots, xParts)
	got := collectCounts(y1)
	for b, y := range got {
		if y < 4 {
			t.Fatalf("y_B1(%d) = %d violates Lemma 12 (x_B2 = 4)", b, y)
		}
		// On this instance the skeleton is the single edge B1–B2, so the
		// exact value is x_B2(b) = 4.
		if y != 4 {
			t.Fatalf("y_B1(%d) = %d, want exactly 4", b, y)
		}
	}
	y2, _ := estimateOutTree(vt, sk, "B2", roots, xParts)
	for b, y := range collectCounts(y2) {
		if y != 9 {
			t.Fatalf("y_B2(%d) = %d, want 9", b, y)
		}
	}
}

func TestHeavyLightSplitFollowsXandY(t *testing.T) {
	// fan1 = 4 (x1 = 16) vs fan2 = 1 (x2 = 1): B1 values are heavy at B1
	// (x1 = 16 > y1 = 1) and B2 values are light (x2 = 1 ≤ y2 = 16). The
	// engine must therefore materialize Q_B2 and run one recursion level —
	// verified end to end by comparing against the baseline inside
	// skeletonRecurse's own verification tests; here we check the split.
	vt, sk := buildTwig(t, 4, 4, 1, 4)
	roots := []hypergraph.Attr{"B1", "B2"}
	xParts := map[hypergraph.Attr]mpc.Part[mpc.KeyCount[int64]]{}
	for _, b := range roots {
		xp, _ := pendantX(vt, sk.Pendants[b], b)
		xParts[b] = xp
	}
	y1, _ := estimateOutTree(vt, sk, "B1", roots, xParts)
	x1 := collectCounts(xParts["B1"])
	yy1 := collectCounts(y1)
	for b := range x1 {
		if !(x1[b] > yy1[b]) {
			t.Fatalf("b=%d at B1: x=%d y=%d, expected heavy", b, x1[b], yy1[b])
		}
	}
	y2, _ := estimateOutTree(vt, sk, "B2", roots, xParts)
	x2 := collectCounts(xParts["B2"])
	yy2 := collectCounts(y2)
	for b := range x2 {
		if x2[b] > yy2[b] {
			t.Fatalf("b=%d at B2: x=%d y=%d, expected light", b, x2[b], yy2[b])
		}
	}
}
