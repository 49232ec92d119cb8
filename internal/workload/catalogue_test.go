package workload

import (
	"fmt"
	"strings"
	"testing"

	"mpcjoin/internal/db"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/relation"
)

func TestCatalogueFamiliesAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range catalogue {
		if seen[f.Name] {
			t.Errorf("family %q listed twice", f.Name)
		}
		seen[f.Name] = true
		if err := f.Query.Validate(); err != nil {
			t.Errorf("%s: %v", f.Name, err)
		}
		// A family is named after its query class, optionally qualified.
		if class := f.Query.Classify().String(); f.Name != class && !strings.HasPrefix(f.Name, class+"-") {
			t.Errorf("family %q holds a %s query", f.Name, class)
		}
		if f.Quick < 1 || f.Quick > f.Full {
			t.Errorf("%s: canonical sizes quick=%d full=%d", f.Name, f.Quick, f.Full)
		}
		inst, meta := f.Canonical(true)
		if err := db.Validate(f.Query, inst); err != nil {
			t.Errorf("%s: %v", f.Name, err)
		}
		n := 0
		for name, r := range inst {
			n += r.Len()
			if meta.PerEdge[name] != r.Len() {
				t.Errorf("%s: Meta.PerEdge[%s] = %d, relation holds %d", f.Name, name, meta.PerEdge[name], r.Len())
			}
		}
		if meta.N != n {
			t.Errorf("%s: Meta.N = %d, instance holds %d", f.Name, meta.N, n)
		}
	}
}

// TestCatalogueEqualsTheOldSpellings pins every family, at both canonical
// sizes, to the generator call the harnesses spelled by hand before the
// catalogue existed (boundcheck.classes, boundcheck.planCases, chaos's
// hypercube cell, core's goldenInstances).
func TestCatalogueEqualsTheOldSpellings(t *testing.T) {
	type gen = func(q *hypergraph.Query, blocks int) (db.Instance[int64], Meta)
	matmul := func(fan int) gen {
		return func(_ *hypergraph.Query, blocks int) (db.Instance[int64], Meta) {
			return MatMulBlocks(blocks, fan, fan)
		}
	}
	blocks4 := func(q *hypergraph.Query, blocks int) (db.Instance[int64], Meta) { return Blocks(q, blocks, 4) }
	multi := func(fan, mult int) gen {
		return func(q *hypergraph.Query, blocks int) (db.Instance[int64], Meta) {
			return BlocksMulti(q, blocks, fan, mult)
		}
	}
	old := []struct {
		name        string
		full, quick int
		gen         gen
	}{
		{"matmul-sparse", 64, 32, matmul(1)}, // plus InjectDangling(…, 31), sized below
		{"matmul-fan2", 512, 128, matmul(2)},
		{"matmul-fan4", 512, 128, matmul(4)},
		{"matmul-dense", 64, 32, matmul(8)},
		{"matmul-mult2", 64, 16, multi(4, 2)},
		{"line", 256, 64, blocks4},
		{"star", 256, 64, blocks4},
		{"star-like", 64, 16, multi(2, 2)},
		{"tree", 64, 16, multi(2, 2)},
		{"free-connex", 256, 64, blocks4},
	}
	if len(old) != len(catalogue) {
		t.Fatalf("catalogue has %d families, this test knows %d", len(catalogue), len(old))
	}
	eq := func(a, b int64) bool { return a == b }
	for _, o := range old {
		f := Named(o.name)
		for _, quick := range []bool{true, false} {
			size := o.full
			if quick {
				size = o.quick
			}
			got, gotMeta := f.Canonical(quick)
			want, wantMeta := o.gen(f.Query, size)
			if gotMeta.Out != wantMeta.Out {
				t.Errorf("%s quick=%v: OUT %d, old spelling %d", o.name, quick, gotMeta.Out, wantMeta.Out)
			}
			if f.Dangling > 0 {
				want = InjectDangling(want, 1, f.Dangling)
			}
			for name, w := range want {
				if !relation.Equal[int64](intSR, eq, got[name], w) {
					t.Errorf("%s quick=%v: %s differs from the old spelling", o.name, quick, name)
				}
			}
		}
	}
}

func TestNamedPanicsNamingTheUnknownFamily(t *testing.T) {
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, `"matmul-zipf"`) {
			t.Fatalf("Named(unknown) = %q, want a panic naming the family", msg)
		}
	}()
	Named("matmul-zipf")
}
