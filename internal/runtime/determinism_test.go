package runtime_test

// Determinism property test for the concurrent runtime: executing any
// query class under any semiring on a worker pool must give bit-for-bit
// the same answer AND the same metered Stats as serial execution. This is
// the contract that lets the simulator parallelize per-server work while
// keeping the MPC cost model exact.

import (
	"math/rand"
	"reflect"
	"testing"

	"mpcjoin/internal/core"
	"mpcjoin/internal/db"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/relation"
	"mpcjoin/internal/semiring"
	"mpcjoin/internal/workload"
)

// freeConnexQuery is a full join (every attribute is an output), which
// classifies as free-connex and dispatches to the Yannakakis engine.
func freeConnexQuery() *hypergraph.Query {
	return hypergraph.NewQuery([]hypergraph.Edge{
		hypergraph.Bin("R1", "A", "B"),
		hypergraph.Bin("R2", "B", "C"),
	}, "A", "B", "C")
}

// mapAnnot re-annotates an int64 instance into another carrier type.
func mapAnnot[W any](inst db.Instance[int64], f func(int64) W) db.Instance[W] {
	out := make(db.Instance[W], len(inst))
	for name, r := range inst {
		nr := relation.New[W](r.Schema()...)
		for _, row := range r.Rows {
			nr.Append(f(row.W), row.Vals...)
		}
		out[name] = nr
	}
	return out
}

// assertDeterministic runs the query serially and on an 8-worker pool and
// requires identical rows and identical Stats.
func assertDeterministic[W any](t *testing.T, sr semiring.Semiring[W], q *hypergraph.Query, inst db.Instance[W], p int) {
	t.Helper()
	base := core.Options{Servers: p, Seed: 11}

	serialOpts := base
	serialOpts.Workers = 1
	resS, stS, err := core.Execute(sr, q, inst, serialOpts)
	if err != nil {
		t.Fatalf("serial execute: %v", err)
	}

	concOpts := base
	concOpts.Workers = 8
	resC, stC, err := core.Execute(sr, q, inst, concOpts)
	if err != nil {
		t.Fatalf("concurrent execute: %v", err)
	}

	if stS != stC {
		t.Errorf("Stats diverge: serial %+v, workers=8 %+v", stS, stC)
	}
	resS.SortRows()
	resC.SortRows()
	if !reflect.DeepEqual(resS.Schema(), resC.Schema()) {
		t.Errorf("schemas diverge: serial %v, workers=8 %v", resS.Schema(), resC.Schema())
	}
	if !reflect.DeepEqual(resS.Rows, resC.Rows) {
		t.Errorf("rows diverge: serial %d rows, workers=8 %d rows", resS.Len(), resC.Len())
	}
}

// TestExecutionDeterminism sweeps every query class × three semirings ×
// p ∈ {1, 4, 16} over both random and structured instances, comparing an
// 8-worker run against serial execution.
func TestExecutionDeterminism(t *testing.T) {
	queries := []struct {
		name string
		q    *hypergraph.Query
	}{
		{"matmul", hypergraph.MatMulQuery()},
		{"line", hypergraph.LineQuery(3)},
		{"star", hypergraph.StarQuery(3)},
		{"star-like", hypergraph.Fig1StarLike()},
		{"tree", hypergraph.Fig2Tree()},
		{"free-connex", freeConnexQuery()},
	}
	for _, qc := range queries {
		if err := qc.q.Validate(); err != nil {
			t.Fatalf("%s: %v", qc.name, err)
		}
		if got := qc.q.Classify().String(); got != qc.name {
			t.Fatalf("%s: classified as %s", qc.name, got)
		}
	}

	for _, qc := range queries {
		insts := []struct {
			name string
			inst db.Instance[int64]
		}{}
		// Keep random instances sparse for the many-output queries: with a
		// dense domain the Fig. 1/2 fixtures have output size exponential
		// in their arm count, which swamps the test without adding
		// determinism coverage.
		n, dom := 60, 8
		if len(qc.q.Output) > 3 {
			n, dom = 40, 64
		}
		rng := rand.New(rand.NewSource(int64(len(qc.name)) * 97))
		uni, _ := workload.Uniform(qc.q, n, dom, rng)
		blk, _ := workload.Blocks(qc.q, 4, 2)
		insts = append(insts,
			struct {
				name string
				inst db.Instance[int64]
			}{"uniform", uni},
			struct {
				name string
				inst db.Instance[int64]
			}{"blocks", blk},
		)

		for _, ic := range insts {
			for _, p := range []int{1, 4, 16} {
				t.Run(qc.name+"/"+ic.name+"/int-sum-prod/p="+itoa(p), func(t *testing.T) {
					assertDeterministic[int64](t, semiring.IntSumProd{}, qc.q, ic.inst, p)
				})
				t.Run(qc.name+"/"+ic.name+"/bool-or-and/p="+itoa(p), func(t *testing.T) {
					boolInst := mapAnnot(ic.inst, func(w int64) bool { return w != 0 })
					assertDeterministic[bool](t, semiring.BoolOrAnd{}, qc.q, boolInst, p)
				})
				t.Run(qc.name+"/"+ic.name+"/min-plus/p="+itoa(p), func(t *testing.T) {
					tropInst := mapAnnot(ic.inst, func(w int64) int64 { return w })
					assertDeterministic[int64](t, semiring.MinPlus{}, qc.q, tropInst, p)
				})
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
