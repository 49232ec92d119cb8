package planner

import (
	"reflect"
	"strings"
	"testing"

	"mpcjoin/internal/dist"
	"mpcjoin/internal/hypergraph"
)

var allClasses = []hypergraph.Class{
	hypergraph.ClassMatMul, hypergraph.ClassLine, hypergraph.ClassStar,
	hypergraph.ClassStarLike, hypergraph.ClassFreeConnex, hypergraph.ClassTree,
}

// rank is a sweep helper: every Rank call in this file also checks the
// structural invariants every plan must satisfy.
func rank(t *testing.T, in Input) Plan {
	t.Helper()
	pl := Rank(in)
	if pl.Chosen == "" {
		t.Fatalf("empty Chosen for %+v", in)
	}
	if len(pl.Candidates) == 0 {
		t.Fatalf("no candidates for %+v", in)
	}
	if pl.Candidates[0].Engine != pl.Chosen {
		t.Fatalf("Chosen %q != first candidate %q", pl.Chosen, pl.Candidates[0].Engine)
	}
	if pl.PredictedLoad != pl.Candidates[0].PredictedLoad {
		t.Fatalf("PredictedLoad %v != first candidate's %v", pl.PredictedLoad, pl.Candidates[0].PredictedLoad)
	}
	if !pl.Candidates[0].Feasible {
		t.Fatalf("chose infeasible candidate %+v", pl.Candidates[0])
	}
	for i := 1; i < len(pl.Candidates); i++ {
		a, b := pl.Candidates[i-1], pl.Candidates[i]
		if !a.Feasible && b.Feasible {
			t.Fatalf("infeasible %q ranked before feasible %q", a.Engine, b.Engine)
		}
		if a.Feasible == b.Feasible && a.PredictedLoad > b.PredictedLoad {
			t.Fatalf("candidates out of order: %q (%v) before %q (%v)",
				a.Engine, a.PredictedLoad, b.Engine, b.PredictedLoad)
		}
	}
	legal := map[string]bool{}
	for _, e := range Legal(in.Class) {
		legal[e] = true
	}
	if !legal[pl.Chosen] {
		t.Fatalf("chosen %q not legal for class %s", pl.Chosen, in.Class)
	}
	return pl
}

// TestDecisionMatrix sweeps the cost model across the regimes where each
// candidate's formula dominates and asserts the crossover decisions.
func TestDecisionMatrix(t *testing.T) {
	cases := []struct {
		name string
		in   Input
		want string
	}{
		// Matmul: at OUT ≪ N/p the linear branch is exactly the input
		// sort floor; worstcase pays N/√p and outsens sort(N+OUT) > floor.
		{"matmul/linear-at-tiny-out",
			Input{Class: hypergraph.ClassMatMul, P: 16, N: 160000, NMax: 80000,
				N1: 80000, N2: 80000, Out: 16, J: 100000000},
			EngineMatMulLinear},
		// Matmul: dense output (OUT ≈ N²/16) gates the linear branch off
		// and makes every OUT-sensitive term dwarf the N/√p grid.
		{"matmul/worstcase-at-dense-out",
			Input{Class: hypergraph.ClassMatMul, P: 16, N: 20000, NMax: 10000,
				N1: 10000, N2: 10000, Out: 25000000, J: 25000000},
			EngineMatMulWorstCase},
		// Matmul: mid-size OUT past the linear gate but well under N·√p —
		// the cube-root branch beats the worst-case grid.
		{"matmul/outsens-between",
			Input{Class: hypergraph.ClassMatMul, P: 16, N: 4000, NMax: 2000,
				N1: 2000, N2: 2000, Out: 300, J: 1000000},
			EngineMatMulOutSens},
		// Line: a huge measured fold intermediate prices yannakakis out;
		// the chain assembly only ever touches OUT/p plus the scratch cap.
		{"line/chain-at-huge-fold",
			Input{Class: hypergraph.ClassLine, P: 16, N: 30000, NMax: 10000,
				Out: 100, J: 2000000, MaxFold: 1000000, MaxImage: 1000000},
			EngineLine},
		// Line: tiny fold images with a large output make the chain pay
		// OUT/p + (p+2)² while the fold pipeline stays at the sort floor.
		{"line/yann-at-tiny-fold",
			Input{Class: hypergraph.ClassLine, P: 16, N: 3000, NMax: 1000,
				Out: 16000, J: 1600, MaxFold: 1600, MaxImage: 10},
			EngineYannakakis},
		// Star: the root-keyed product receive (N+Nmax+OUT)/p loses to a
		// cheap fold profile...
		{"star/yann-at-small-fold",
			Input{Class: hypergraph.ClassStar, P: 16, N: 30000, NMax: 10000,
				Out: 100, J: 500000, MaxFold: 100, MaxImage: 10},
			EngineYannakakis},
		// ...and wins when the fold intermediate blows up.
		{"star/star-at-huge-fold",
			Input{Class: hypergraph.ClassStar, P: 16, N: 30000, NMax: 10000,
				Out: 100, J: 2000000, MaxFold: 1000000, MaxImage: 1000000},
			EngineStar},
		// Star-like shares the chain assembly shape with line.
		{"star-like/chain-at-huge-fold",
			Input{Class: hypergraph.ClassStarLike, P: 16, N: 30000, NMax: 10000,
				Out: 100, J: 2000000, MaxFold: 1000000, MaxImage: 1000000},
			EngineStarLike},
		// Free-connex emits only the fold pipeline and the tree engine.
		{"free-connex/yann-first-on-tie",
			Input{Class: hypergraph.ClassFreeConnex, P: 16, N: 30000, NMax: 10000},
			EngineYannakakis},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pl := rank(t, c.in)
			if pl.Chosen != c.want {
				t.Fatalf("chose %q, want %q; candidates %+v", pl.Chosen, c.want, pl.Candidates)
			}
		})
	}
}

// TestTieOrder pins the emission-order tie breaks: when every candidate
// bottoms out at the input-sort floor, the class's preferred engine wins.
func TestTieOrder(t *testing.T) {
	// Line at OUT=0 with no profiled folds: chain = yann = floor. The
	// fold pipeline is emitted first (no scratch grids), and among the
	// tied specializations the class engine precedes tree.
	pl := rank(t, Input{Class: hypergraph.ClassLine, P: 16, N: 30000, NMax: 10000})
	if pl.Chosen != EngineYannakakis {
		t.Fatalf("line tie chose %q, want yannakakis; %+v", pl.Chosen, pl.Candidates)
	}
	if a, b := pl.Candidates[1], pl.Candidates[2]; a.Engine != EngineLine || b.Engine != EngineTree {
		t.Fatalf("tied specializations out of emission order: %q then %q", a.Engine, b.Engine)
	}
	if pl.Candidates[1].PredictedLoad != pl.PredictedLoad {
		t.Fatalf("expected a three-way tie, got %+v", pl.Candidates)
	}
	// Tree class: the tree engine is itself a fold and keeps precedence
	// over the baseline at a tie.
	pl = rank(t, Input{Class: hypergraph.ClassTree, P: 16, N: 20000, NMax: 10000})
	if pl.Chosen != EngineTree {
		t.Fatalf("tree tie chose %q, want tree; %+v", pl.Chosen, pl.Candidates)
	}
}

// TestInfeasibleNeverChosen gates matmul-linear off and checks it ranks
// last even when its instantiated load is the smallest of the field.
func TestInfeasibleNeverChosen(t *testing.T) {
	in := Input{Class: hypergraph.ClassMatMul, P: 16, N: 4000, NMax: 2000,
		N1: 2000, N2: 2000, Out: 300, J: 1000000}
	pl := rank(t, in)
	var linear *Candidate
	for i := range pl.Candidates {
		if pl.Candidates[i].Engine == EngineMatMulLinear {
			linear = &pl.Candidates[i]
		}
	}
	if linear == nil {
		t.Fatal("linear candidate not reported")
	}
	if linear.Feasible {
		t.Fatalf("OUT=300 > N/p=250 must gate the linear branch off: %+v", linear)
	}
	if last := pl.Candidates[len(pl.Candidates)-1]; last.Engine != EngineMatMulLinear {
		t.Fatalf("infeasible linear must rank last, got %q", last.Engine)
	}
	if linear.PredictedLoad >= pl.PredictedLoad {
		t.Fatalf("test regime lost its point: linear %v not below chosen %v",
			linear.PredictedLoad, pl.PredictedLoad)
	}
}

// TestMatMulFastPaths pins Theorem 1's degenerate dispatches at the top
// level: they short-circuit to the composite matmul engine with no cost
// comparison.
func TestMatMulFastPaths(t *testing.T) {
	pl := rank(t, Input{Class: hypergraph.ClassMatMul, P: 8, N: 5001, NMax: 5000,
		N1: 1, N2: 5000, Out: 5000})
	if pl.Chosen != EngineMatMul || !strings.Contains(pl.Reason, "broadcast") {
		t.Fatalf("broadcast fast path: %q (%s)", pl.Chosen, pl.Reason)
	}
	pl = rank(t, Input{Class: hypergraph.ClassMatMul, P: 8, N: 100100, NMax: 100000,
		N1: 100, N2: 100000, Out: 1000})
	if pl.Chosen != EngineMatMul || !strings.Contains(pl.Reason, "ratio") {
		t.Fatalf("unequal-ratio fast path: %q (%s)", pl.Chosen, pl.Reason)
	}
}

// TestSweepInvariants runs the structural checks over a broad input grid —
// every class, several cluster sizes, and output/fold regimes spanning the
// crossovers — so no corner of the matrix can panic, pick an infeasible
// candidate, or return an unsorted plan.
func TestSweepInvariants(t *testing.T) {
	for _, class := range allClasses {
		for _, p := range []int{1, 4, 16, 64} {
			for _, n := range []int64{0, 100, 100000} {
				for _, out := range []int64{0, 1, n / 2, 10 * n} {
					for _, fold := range []int64{0, out, 100 * (out + 1)} {
						in := Input{Class: class, P: p, N: 3 * n, NMax: n,
							N1: n, N2: n, Out: out, J: fold + out,
							MaxFold: fold, MaxImage: fold / 2}
						rank(t, in)
					}
				}
			}
		}
	}
}

// TestForcedAndLegal pins the forced-plan constructor and the per-class
// legal engine sets the table derives: ranked engines in tie-preference
// order, then the forced-only ones.
func TestForcedAndLegal(t *testing.T) {
	want := map[hypergraph.Class][]string{
		hypergraph.ClassMatMul:     {EngineMatMulLinear, EngineMatMulWorstCase, EngineMatMulOutSens, EngineYannakakis, EngineMatMul, EngineTree},
		hypergraph.ClassLine:       {EngineYannakakis, EngineLine, EngineTree},
		hypergraph.ClassStar:       {EngineYannakakis, EngineStar, EngineTree},
		hypergraph.ClassStarLike:   {EngineYannakakis, EngineStarLike, EngineTree},
		hypergraph.ClassFreeConnex: {EngineYannakakis, EngineTree},
		hypergraph.ClassTree:       {EngineTree, EngineYannakakis},
	}
	queries := map[hypergraph.Class]*hypergraph.Query{
		hypergraph.ClassMatMul:   hypergraph.MatMulQuery(),
		hypergraph.ClassLine:     hypergraph.LineQuery(3),
		hypergraph.ClassStar:     hypergraph.StarQuery(3),
		hypergraph.ClassStarLike: hypergraph.Fig1StarLike(),
		hypergraph.ClassFreeConnex: hypergraph.NewQuery([]hypergraph.Edge{
			hypergraph.Bin("R1", "A", "B"), hypergraph.Bin("R2", "B", "C"),
		}, "A", "B", "C"),
		hypergraph.ClassTree: hypergraph.Fig3Twig(),
	}
	for class, engines := range want {
		if got := Legal(class); !reflect.DeepEqual(got, engines) {
			t.Fatalf("Legal(%s) = %v, want %v", class, got, engines)
		}
		if got := queries[class].Classify(); got != class {
			t.Fatalf("the %s query classifies as %s", class, got)
		}
		for _, e := range engines {
			pl, err := Forced(queries[class], e)
			if err != nil || pl.Chosen != e || pl.Class != class.String() || pl.Reason == "" {
				t.Fatalf("Forced(%s, %s) = %+v, %v", class, e, pl, err)
			}
			if len(pl.Candidates) != 0 {
				t.Fatalf("forced plan must not rank candidates: %+v", pl.Candidates)
			}
		}
	}
	for _, e := range []string{EngineLine, "quantum", ""} {
		if _, err := Forced(hypergraph.StarQuery(3), e); err == nil {
			t.Fatalf("engine %q accepted for a star query", e)
		}
	}
}

// TestClassSplitEnginesBoundArms pins the class-split limit in both halves
// of planning: past dist.MaxPermArms relations at one aggregated attribute
// the star and tree engines cannot be forced and rank infeasible, while the
// query stays plannable — yannakakis takes it.
func TestClassSplitEnginesBoundArms(t *testing.T) {
	for _, n := range []int{dist.MaxPermArms, dist.MaxPermArms + 1} {
		q := hypergraph.StarQuery(n)
		wide := n > dist.MaxPermArms
		for _, e := range []string{EngineStar, EngineTree} {
			if _, err := Forced(q, e); (err != nil) != wide {
				t.Fatalf("Forced(%d-arm star, %s): %v", n, e, err)
			}
		}
		if _, err := Forced(q, EngineYannakakis); err != nil {
			t.Fatalf("Forced(%d-arm star, yannakakis): %v", n, err)
		}
		pl := Rank(Input{Class: q.Classify(), P: 16, N: 1600, NMax: 100, Out: 100, J: 100, Arms: q.AggregatedDegree()})
		for _, c := range pl.Candidates {
			if c.Engine != EngineYannakakis && c.Feasible == wide {
				t.Fatalf("%d-arm star: candidate %+v", n, c)
			}
		}
		if wide && pl.Chosen != EngineYannakakis {
			t.Fatalf("%d-arm star: chose %s", n, pl.Chosen)
		}
	}
}

// TestEngineTable checks the table is well formed: every row is complete,
// names are unique, each class's tie ranks are distinct (so tie order
// never depends on table order), and every class has a ranked engine
// (TestSweepInvariants checks one of them is feasible at every grid point).
func TestEngineTable(t *testing.T) {
	seen := map[string]bool{}
	ranks := map[hypergraph.Class]map[int]string{}
	for _, e := range Engines {
		if e.Name == "" || e.Name == EngineAuto || seen[e.Name] {
			t.Fatalf("bad or duplicate engine name %q", e.Name)
		}
		seen[e.Name] = true
		if len(e.Ranked)+len(e.ForcedOnly) == 0 || e.Cost == nil {
			t.Fatalf("engine %s: needs at least one class and a cost", e.Name)
		}
		for c, r := range e.Ranked {
			if ranks[c] == nil {
				ranks[c] = map[int]string{}
			}
			if other, dup := ranks[c][r]; dup {
				t.Fatalf("class %s: %s and %s share tie rank %d", c, other, e.Name, r)
			}
			ranks[c][r] = e.Name
		}
		for _, c := range e.ForcedOnly {
			if _, both := e.Ranked[c]; both {
				t.Fatalf("engine %s is both ranked and forced-only in class %s", e.Name, c)
			}
		}
	}
	for _, c := range allClasses {
		if len(ranks[c]) == 0 {
			t.Fatalf("class %s has no ranked engine", c)
		}
	}
}

// TestParseEngine pins the accepted spellings: the table's names, plus ""
// and "auto" for automatic selection.
func TestParseEngine(t *testing.T) {
	for _, s := range []string{"", EngineAuto} {
		if got, err := ParseEngine(s); err != nil || got != "" {
			t.Fatalf("ParseEngine(%q) = %q, %v; want automatic", s, got, err)
		}
	}
	for _, e := range Engines {
		if got, err := ParseEngine(e.Name); err != nil || got != e.Name {
			t.Fatalf("ParseEngine(%q) = %q, %v", e.Name, got, err)
		}
	}
	if _, err := ParseEngine("quantum"); err == nil || !strings.Contains(err.Error(), EngineMatMulOutSens) {
		t.Fatalf("unknown engine error must list the table's names, got %v", err)
	}
	// The fast-path branches are reached through the composite engine only.
	for _, s := range []string{EngineMatMulBroadcast, EngineMatMulUnequal} {
		if _, err := ParseEngine(s); err == nil {
			t.Fatalf("ParseEngine accepted the branch name %q", s)
		}
	}
}
