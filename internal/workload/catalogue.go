package workload

import (
	"fmt"

	"mpcjoin/internal/db"
	"mpcjoin/internal/hypergraph"
)

// Family is one named instance family of the catalogue: a query plus the
// block shape its instances are generated with, so the block count is the
// only size a caller chooses. Every sweep harness (boundcheck,
// planner-check, chaos, the golden digests) selects its instances from
// here by name; a new family is one row below, added with the first PR
// that runs it.
type Family struct {
	Name  string
	Query *hypergraph.Query
	// Full and Quick are the canonical block counts: what boundcheck and
	// planner-check run, and (at Quick) what the golden digests pin.
	Full, Quick int
	// Fan and Mult are BlocksMulti's shape: values per block of every
	// output and of every non-output attribute.
	Fan, Mult int
	// Dangling, when positive, is the InjectDangling fraction added on top.
	Dangling float64
}

var catalogue = []Family{
	// Sparse regime: a small true output buried in mostly-dangling inputs,
	// so OUT ≤ N/p across a p sweep and Theorem 1's linear branch is live.
	{Name: "matmul-sparse", Query: hypergraph.MatMulQuery(), Full: 64, Quick: 32, Fan: 1, Mult: 1, Dangling: 31},
	{Name: "matmul-fan2", Query: hypergraph.MatMulQuery(), Full: 512, Quick: 128, Fan: 2, Mult: 1},
	{Name: "matmul-fan4", Query: hypergraph.MatMulQuery(), Full: 512, Quick: 128, Fan: 4, Mult: 1},
	// Dense regime: every block multiplies 8×8, so OUT = 8·N1 and the
	// square-root and cube-root branches compete.
	{Name: "matmul-dense", Query: hypergraph.MatMulQuery(), Full: 64, Quick: 32, Fan: 8, Mult: 1},
	// Two B values per block: the full join is twice OUT, so a
	// join-then-aggregate plan (hypercube) has something to aggregate.
	{Name: "matmul-mult2", Query: hypergraph.MatMulQuery(), Full: 64, Quick: 16, Fan: 4, Mult: 2},
	{Name: "line", Query: hypergraph.LineQuery(3), Full: 256, Quick: 64, Fan: 4, Mult: 1},
	{Name: "star", Query: hypergraph.StarQuery(3), Full: 256, Quick: 64, Fan: 4, Mult: 1},
	{Name: "star-like", Query: hypergraph.Fig1StarLike(), Full: 64, Quick: 16, Fan: 2, Mult: 2},
	{Name: "tree", Query: hypergraph.Fig3Twig(), Full: 64, Quick: 16, Fan: 2, Mult: 2},
	{Name: "free-connex", Query: hypergraph.NewQuery([]hypergraph.Edge{
		hypergraph.Bin("R1", "A", "B"),
		hypergraph.Bin("R2", "B", "C"),
	}, "A", "B", "C"), Full: 256, Quick: 64, Fan: 4, Mult: 1},
}

// Named returns the family called name. Callers name families with
// constants, so an unknown name is a bug and panics naming it.
func Named(name string) Family {
	for _, f := range catalogue {
		if f.Name == name {
			return f
		}
	}
	panic(fmt.Sprintf("workload: no catalogue family %q", name))
}

// Gen generates the family's instance with the given number of blocks.
func (f Family) Gen(blocks int) (db.Instance[int64], Meta) {
	inst, meta := BlocksMulti(f.Query, blocks, f.Fan, f.Mult)
	if f.Dangling > 0 {
		inst = InjectDangling(inst, 1, f.Dangling)
		meta.N = 0
		for name, r := range inst {
			meta.PerEdge[name] = r.Len()
			meta.N += r.Len()
		}
	}
	return inst, meta
}

// Canonical generates the family at its canonical size.
func (f Family) Canonical(quick bool) (db.Instance[int64], Meta) {
	if quick {
		return f.Gen(f.Quick)
	}
	return f.Gen(f.Full)
}
