// Package workload generates instances with controlled sizes for the
// experiment harness: block-structured instances whose output size OUT is
// exact by construction (the knob every Table 1 experiment sweeps),
// uniform and Zipf-skewed random instances, and dangling-tuple injection.
package workload

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"

	"mpcjoin/internal/db"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/relation"
)

// ErrInvalidParam marks generator-parameter validation failures (Zipf
// exponents, domain sizes, graph shapes). Drivers test with errors.Is and
// turn it into a usage error instead of letting rand.NewZipf panic deep in
// the generator.
var ErrInvalidParam = errors.New("workload: invalid parameter")

// zipfParams validates the (s, dom) pair rand.NewZipf requires: it panics
// for s <= 1 or an empty domain, so every Zipf-shaped generator guards
// here first.
func zipfParams(s float64, dom int) error {
	if s <= 1 || math.IsNaN(s) || math.IsInf(s, 0) {
		return fmt.Errorf("%w: zipf exponent s=%v must be > 1", ErrInvalidParam, s)
	}
	if dom < 2 {
		return fmt.Errorf("%w: zipf domain %d must be >= 2", ErrInvalidParam, dom)
	}
	return nil
}

// Meta summarizes a generated instance.
type Meta struct {
	// N is the total input size Σ|R_e|; PerEdge the per-relation sizes.
	N       int
	PerEdge map[string]int
	// Out is the exact output size when the generator controls it, else -1.
	Out int64
}

// Blocks generates a block-structured instance for any tree query: the
// domain splits into `blocks` independent blocks; within a block every
// non-output attribute takes a single fresh value and every output
// attribute takes `fan` fresh values, each edge holding the cross product
// of its endpoints' value sets. The full join restricted to a block is the
// cross product of its output values, so
//
//	OUT = blocks · fan^{|output attributes|}
//
// exactly, while each relation has blocks·fan^{(output endpoints)} tuples.
// Sweeping fan at fixed N·? sweeps OUT with everything else controlled —
// the workhorse of the Table 1 experiments. All annotations are 1.
func Blocks(q *hypergraph.Query, blocks, fan int) (db.Instance[int64], Meta) {
	return BlocksFan(q, blocks, nil, fan)
}

// BlocksMulti is Blocks with a multiplicity on non-output attributes:
// every non-output attribute takes mult fresh values per block (instead of
// one), so every derivation multiplies by mult per non-output attribute
// while OUT is unchanged. This drives the intermediate join size J (the
// Yannakakis baseline's cost) arbitrarily above OUT — the regime where the
// Hu–Yi algorithms' advantage is largest.
func BlocksMulti(q *hypergraph.Query, blocks, fan, mult int) (db.Instance[int64], Meta) {
	return blocksGen(q, blocks, nil, fan, mult)
}

// BlocksFan is Blocks with a per-attribute fan override (attributes absent
// from fans use def; non-output attributes always have fan 1).
func BlocksFan(q *hypergraph.Query, blocks int, fans map[hypergraph.Attr]int, def int) (db.Instance[int64], Meta) {
	return blocksGen(q, blocks, fans, def, 1)
}

func blocksGen(q *hypergraph.Query, blocks int, fans map[hypergraph.Attr]int, def, mult int) (db.Instance[int64], Meta) {
	fanOf := func(a hypergraph.Attr) int {
		if !q.IsOutput(a) {
			return mult
		}
		if f, ok := fans[a]; ok {
			return f
		}
		return def
	}
	// Values: attribute a in block k gets values k·stride + 0..fan-1 where
	// stride is the max fan (so blocks never collide).
	stride := def
	if mult > stride {
		stride = mult
	}
	for _, f := range fans {
		if f > stride {
			stride = f
		}
	}
	if stride < 1 {
		stride = 1
	}

	inst := make(db.Instance[int64], len(q.Edges))
	meta := Meta{PerEdge: make(map[string]int, len(q.Edges)), Out: 1}
	for _, e := range q.Edges {
		r := relation.New[int64](e.Attrs...)
		for k := 0; k < blocks; k++ {
			switch len(e.Attrs) {
			case 1:
				for i := 0; i < fanOf(e.Attrs[0]); i++ {
					r.Append(1, relation.Value(k*stride+i))
				}
			case 2:
				for i := 0; i < fanOf(e.Attrs[0]); i++ {
					for j := 0; j < fanOf(e.Attrs[1]); j++ {
						r.Append(1, relation.Value(k*stride+i), relation.Value(k*stride+j))
					}
				}
			}
		}
		inst[e.Name] = r
		meta.PerEdge[e.Name] = r.Len()
		meta.N += r.Len()
	}
	var out int64 = int64(blocks)
	for _, a := range q.Output {
		out *= int64(fanOf(a))
	}
	meta.Out = out
	return inst, meta
}

// Uniform fills every edge with n tuples drawn uniformly from [0, dom) per
// attribute; duplicates are merged (annotation = multiplicity).
func Uniform(q *hypergraph.Query, n, dom int, rng *rand.Rand) (db.Instance[int64], Meta) {
	inst := make(db.Instance[int64], len(q.Edges))
	meta := Meta{PerEdge: make(map[string]int, len(q.Edges)), Out: -1}
	for _, e := range q.Edges {
		r := relation.New[int64](e.Attrs...)
		for i := 0; i < n; i++ {
			vals := make([]relation.Value, len(e.Attrs))
			for j := range vals {
				vals[j] = relation.Value(rng.Intn(dom))
			}
			r.AppendRow(relation.Row[int64]{Vals: vals, W: 1})
		}
		inst[e.Name] = dedup(r)
		meta.PerEdge[e.Name] = inst[e.Name].Len()
		meta.N += inst[e.Name].Len()
	}
	return inst, meta
}

// Zipf fills every edge with n tuples whose attribute values follow a
// Zipf(s) distribution over [0, dom) — the skew stressor for the
// heavy/light machinery. s must be > 1 and dom >= 2 (errors.Is
// ErrInvalidParam otherwise).
func Zipf(q *hypergraph.Query, n, dom int, s float64, rng *rand.Rand) (db.Instance[int64], Meta, error) {
	if err := zipfParams(s, dom); err != nil {
		return nil, Meta{}, err
	}
	z := rand.NewZipf(rng, s, 1, uint64(dom-1))
	inst := make(db.Instance[int64], len(q.Edges))
	meta := Meta{PerEdge: make(map[string]int, len(q.Edges)), Out: -1}
	for _, e := range q.Edges {
		r := relation.New[int64](e.Attrs...)
		for i := 0; i < n; i++ {
			vals := make([]relation.Value, len(e.Attrs))
			for j := range vals {
				vals[j] = relation.Value(z.Uint64())
			}
			r.AppendRow(relation.Row[int64]{Vals: vals, W: 1})
		}
		inst[e.Name] = dedup(r)
		meta.PerEdge[e.Name] = inst[e.Name].Len()
		meta.N += inst[e.Name].Len()
	}
	return inst, meta, nil
}

// MatMulBlocks is Blocks specialized to the matrix multiplication query:
// N1 = blocks·aPer, N2 = blocks·cPer, OUT = blocks·aPer·cPer exactly.
func MatMulBlocks(blocks, aPer, cPer int) (db.Instance[int64], Meta) {
	q := hypergraph.MatMulQuery()
	return BlocksFan(q, blocks, map[hypergraph.Attr]int{"A": aPer, "C": cPer}, 1)
}

// MatMulZipf generates a skewed sparse matrix multiplication instance:
// n tuples per side with B drawn Zipf(s) from [0, domB). s must be > 1 and
// domB >= 2 (errors.Is ErrInvalidParam otherwise).
func MatMulZipf(n, domB int, s float64, rng *rand.Rand) (db.Instance[int64], Meta, error) {
	if err := zipfParams(s, domB); err != nil {
		return nil, Meta{}, err
	}
	z := rand.NewZipf(rng, s, 1, uint64(domB-1))
	r1 := relation.New[int64]("A", "B")
	r2 := relation.New[int64]("B", "C")
	for i := 0; i < n; i++ {
		r1.Append(1, relation.Value(i), relation.Value(z.Uint64()))
		r2.Append(1, relation.Value(z.Uint64()), relation.Value(i))
	}
	inst := db.Instance[int64]{"R1": dedup(r1), "R2": dedup(r2)}
	return inst, Meta{
		N:       inst["R1"].Len() + inst["R2"].Len(),
		PerEdge: map[string]int{"R1": inst["R1"].Len(), "R2": inst["R2"].Len()},
		Out:     -1,
	}, nil
}

// MatMulUnequal generates N1 ≪ N2: n1 rows sharing domB values against
// n2 columns, exercising the unequal-ratio fast path.
func MatMulUnequal(n1, n2, domB int, rng *rand.Rand) (db.Instance[int64], Meta) {
	r1 := relation.New[int64]("A", "B")
	r2 := relation.New[int64]("B", "C")
	for i := 0; i < n1; i++ {
		r1.Append(1, relation.Value(i), relation.Value(rng.Intn(domB)))
	}
	for i := 0; i < n2; i++ {
		r2.Append(1, relation.Value(rng.Intn(domB)), relation.Value(i))
	}
	inst := db.Instance[int64]{"R1": dedup(r1), "R2": dedup(r2)}
	return inst, Meta{
		N:       inst["R1"].Len() + inst["R2"].Len(),
		PerEdge: map[string]int{"R1": inst["R1"].Len(), "R2": inst["R2"].Len()},
		Out:     -1,
	}
}

// InjectDangling appends, to every relation, extra tuples over fresh
// domain values that cannot join (a fraction frac of the relation's size),
// exercising the dangling-removal passes. Relations draw their fresh
// values in name order, so the instance is the same on every call. Returns
// the modified instance; OUT is unchanged.
func InjectDangling[W any](inst db.Instance[W], one W, frac float64) db.Instance[W] {
	out := db.Clone(inst)
	fresh := relation.Value(1 << 40)
	for _, name := range slices.Sorted(maps.Keys(out)) {
		r := out[name]
		extra := int(frac * float64(r.Len()))
		for i := 0; i < extra; i++ {
			vals := make([]relation.Value, r.Arity())
			for j := range vals {
				fresh++
				vals[j] = fresh
			}
			r.AppendRow(relation.Row[W]{Vals: vals, W: one})
		}
		out[name] = r
	}
	return out
}

// dedup merges duplicate tuples, summing multiplicities.
func dedup(r *relation.Relation[int64]) *relation.Relation[int64] {
	seen := make(map[string]int, r.Len())
	out := relation.New[int64](r.Schema()...)
	idx := make([]int, r.Arity())
	for i := range idx {
		idx[i] = i
	}
	for _, row := range r.Rows {
		k := relation.EncodeKey(row.Vals, idx)
		if at, ok := seen[k]; ok {
			out.Rows[at].W += row.W
			continue
		}
		seen[k] = len(out.Rows)
		out.AppendRow(row)
	}
	return out
}

// GraphQuery returns the single-edge query E(S, D) the graph workloads
// run over: one binary relation holding the weighted edge list, both
// endpoints output (free-connex — no aggregation happens in the query
// itself; the iterated drivers supply the semantics).
func GraphQuery() *hypergraph.Query {
	return hypergraph.NewQuery([]hypergraph.Edge{hypergraph.Bin("E", "S", "D")}, "S", "D")
}

// PowerLawGraph generates a connected directed graph with a power-law
// in/out-degree tail, as one edge relation E(S, D) with positive int64
// weight annotations in [1, maxW] — the input of the BFS/SSSP/PageRank
// drivers. The shape is a random-tree backbone (vertex v > 0 attaches
// under a uniform earlier parent, so every vertex is reachable from
// vertex 0 with O(log n) expected depth) plus ~n·(avgDeg−1) extra edges
// whose endpoints are Zipf(s)-skewed toward low vertex IDs, producing the
// heavy hubs the skew machinery and the SpMSpV pre-aggregation exist for.
// Duplicate edges and self-loops are dropped, so the realized edge count
// (Meta.N) lands slightly under n·avgDeg.
//
// Requires n >= 2, avgDeg >= 1, s > 1, maxW >= 1 (errors.Is
// ErrInvalidParam otherwise).
func PowerLawGraph(n int, avgDeg float64, s float64, maxW int64, rng *rand.Rand) (db.Instance[int64], Meta, error) {
	if n < 2 {
		return nil, Meta{}, fmt.Errorf("%w: graph needs n >= 2 vertices, got %d", ErrInvalidParam, n)
	}
	if avgDeg < 1 {
		return nil, Meta{}, fmt.Errorf("%w: graph average degree %v must be >= 1", ErrInvalidParam, avgDeg)
	}
	if maxW < 1 {
		return nil, Meta{}, fmt.Errorf("%w: graph max weight %d must be >= 1", ErrInvalidParam, maxW)
	}
	if err := zipfParams(s, n); err != nil {
		return nil, Meta{}, err
	}

	type edge struct{ s, d relation.Value }
	seen := make(map[edge]bool, int(float64(n)*avgDeg))
	r := relation.New[int64]("S", "D")
	add := func(src, dst relation.Value) {
		if src == dst || seen[edge{src, dst}] {
			return
		}
		seen[edge{src, dst}] = true
		r.Append(1+rng.Int63n(maxW), src, dst)
	}

	// Backbone: parent(v) uniform over earlier vertices.
	for v := 1; v < n; v++ {
		add(relation.Value(rng.Intn(v)), relation.Value(v))
	}
	// Skewed extras: both endpoints Zipf-shaped, hubs at low IDs.
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	extra := int(float64(n) * (avgDeg - 1))
	for i := 0; i < extra; i++ {
		add(relation.Value(z.Uint64()), relation.Value(z.Uint64()))
	}

	inst := db.Instance[int64]{"E": r}
	return inst, Meta{
		N:       r.Len(),
		PerEdge: map[string]int{"E": r.Len()},
		Out:     -1,
	}, nil
}

// Describe renders a Meta for harness output.
func (m Meta) Describe() string {
	return fmt.Sprintf("N=%d OUT=%d", m.N, m.Out)
}
