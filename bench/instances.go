package main

import (
	"fmt"
	"math"
	"math/rand"

	"mpcjoin"
	"mpcjoin/internal/db"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/refengine"
	"mpcjoin/internal/relation"
	"mpcjoin/internal/semiring"
	"mpcjoin/internal/workload"
)

// servers is p, the simulated cluster size of every workload.
const servers = 16

var intSR = semiring.IntSumProd{}

// genFunc builds one (query, data) pair with internal/workload.
type genFunc func(rng *rand.Rand) (*hypergraph.Query, db.Instance[int64], error)

func matmulGen(f func(rng *rand.Rand) (db.Instance[int64], error)) genFunc {
	return func(rng *rand.Rand) (*hypergraph.Query, db.Instance[int64], error) {
		in, err := f(rng)
		return hypergraph.MatMulQuery(), in, err
	}
}

func blocksGen(q func() *hypergraph.Query, blocks, fan, mult int) genFunc {
	return func(*rand.Rand) (*hypergraph.Query, db.Instance[int64], error) {
		qq := q()
		in, _ := workload.BlocksMulti(qq, blocks, fan, mult)
		return qq, in, nil
	}
}

func line3() *hypergraph.Query { return hypergraph.LineQuery(3) }
func star3() *hypergraph.Query { return hypergraph.StarQuery(3) }

// specs returns the generated instances by key. The matmul shapes are half
// the issue's sizes: the driver's time budget allows a 15 s window, and at
// full size that is 4 reps per instance, too few for a steady median. The
// regimes are unchanged: b4 runs the output-sensitive branch, b32 the
// worst-case branch, z is skewed, u takes the unequal-ratio fast path.
//
// shrink divides every size; it is 1 except in smoke mode, which drives
// the same code over instances small enough for go test.
func specs(shrink int) map[string]genFunc {
	d := func(n int) int { return max(n/shrink, 2) }
	mm := func(blocks, a, c int) genFunc {
		return matmulGen(func(*rand.Rand) (db.Instance[int64], error) {
			in, _ := workload.MatMulBlocks(d(blocks), a, c)
			return in, nil
		})
	}
	return map[string]genFunc{
		"b4":  mm(2048, 4, 4),
		"b32": mm(256, 32, 32),
		"z": matmulGen(func(rng *rand.Rand) (db.Instance[int64], error) {
			in, _, err := workload.MatMulZipf(d(2048), d(2048), 1.3, rng)
			return in, err
		}),
		"u": matmulGen(func(rng *rand.Rand) (db.Instance[int64], error) {
			in, _ := workload.MatMulUnequal(d(256), d(8192), 64, rng)
			return in, nil
		}),
		"l3": blocksGen(line3, d(2048), 4, 1),
		"s3": blocksGen(star3, d(512), 4, 1),
		"sl": blocksGen(hypergraph.Fig1StarLike, d(64), 2, 1),
		"tw": blocksGen(hypergraph.Fig3Twig, d(128), 2, 2),
		"lz": func(rng *rand.Rand) (*hypergraph.Query, db.Instance[int64], error) {
			q := line3()
			in, _, err := workload.Zipf(q, d(2000), d(2000), 1.3, rng)
			return q, in, err
		},

		// Dataset families of the service workloads, a quarter of the
		// issue's sizes (see service.go).
		"f16": mm(64, 16, 16),
		"f4":  mm(256, 4, 4),
		"l":   blocksGen(line3, d(512), 4, 1),
	}
}

// instance is one generated (query, data) pair in both spellings: the
// internal one the traced pass drives layer by layer, and the public one
// the timed pass hands to mpcjoin.ExecuteContext.
type instance struct {
	key  string
	q    *hypergraph.Query
	data db.Instance[int64]
	pq   *mpcjoin.Query
	pub  mpcjoin.Instance[int64]
	// want is the reference answer in q.Output column order, sorted.
	want *relation.Relation[int64]
}

// shapeSeed is the stream every generator draws an instance's shape from.
const shapeSeed = 20200614

// genInstance builds the keyed instance. Its shape — which values join,
// hence OUT, the loads and the rounds — comes from the generator under a
// fixed stream; rng, the run's seed, relabels every attribute's values by a
// per-attribute offset and shuffles row order, so instances differ row for
// row between seeds while the counts a run reports do not depend on what a
// Zipf or random-tree draw happened to give. A count that moves 3 % with
// the seed cannot carry a bound that catches a 3 % regression.
func genInstance(key string, gen genFunc, rng *rand.Rand) (*instance, error) {
	q, data, err := gen(rand.New(rand.NewSource(shapeSeed)))
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", key, err)
	}
	offset := make(map[hypergraph.Attr]relation.Value)
	for _, a := range q.Attrs() {
		offset[a] = relation.Value(rng.Int63n(1 << 20))
	}
	for _, e := range q.Edges {
		r := data[e.Name]
		for i := range r.Rows {
			for j, a := range e.Attrs {
				r.Rows[i].Vals[j] += offset[a]
			}
		}
		rng.Shuffle(len(r.Rows), func(i, j int) { r.Rows[i], r.Rows[j] = r.Rows[j], r.Rows[i] })
	}
	in := &instance{key: key, q: q, data: data}
	in.pq, in.pub = publicSpelling(q, data)
	return in, nil
}

// publicSpelling copies a generated instance into the root package's
// types, which is all a library caller can construct.
func publicSpelling(q *hypergraph.Query, data db.Instance[int64]) (*mpcjoin.Query, mpcjoin.Instance[int64]) {
	pq := mpcjoin.NewQuery()
	pub := make(mpcjoin.Instance[int64], len(q.Edges))
	for _, e := range q.Edges {
		attrs := make([]string, len(e.Attrs))
		for i, a := range e.Attrs {
			attrs[i] = string(a)
		}
		pq.Relation(e.Name, attrs...)
		r := mpcjoin.NewRelation[int64](attrs...)
		for _, row := range data[e.Name].Rows {
			r.Add(row.W, row.Vals...)
		}
		pub[e.Name] = r
	}
	out := make([]string, len(q.Output))
	for i, a := range q.Output {
		out[i] = string(a)
	}
	pq.GroupBy(out...)
	return pq, pub
}

// reference computes the sequential answer in q.Output order, sorted.
func reference(q *hypergraph.Query, data db.Instance[int64]) (*relation.Relation[int64], error) {
	ref, err := refengine.Yannakakis(intSR, q, data)
	if err != nil {
		return nil, err
	}
	if len(q.Output) > 0 {
		ref = relation.Reorder(ref, q.Output)
	}
	ref.SortRows()
	return ref, nil
}

// sameRows reports whether got (sorted, in want's column order) equals
// want row for row.
func sameRows(want, got *relation.Relation[int64]) bool {
	if want.Len() != got.Len() || want.Arity() != got.Arity() {
		return false
	}
	for i, w := range want.Rows {
		g := got.Rows[i]
		if w.W != g.W {
			return false
		}
		for k := range w.Vals {
			if w.Vals[k] != g.Vals[k] {
				return false
			}
		}
	}
	return true
}

// samePublicRows is sameRows against a public Result.
func samePublicRows(want *relation.Relation[int64], got *mpcjoin.Result[int64]) bool {
	if want.Len() != len(got.Rows) {
		return false
	}
	for i, w := range want.Rows {
		g := got.Rows[i]
		if w.W != g.Annot || len(w.Vals) != len(g.Vals) {
			return false
		}
		for k := range w.Vals {
			if w.Vals[k] != g.Vals[k] {
				return false
			}
		}
	}
	return true
}

// sizes is what a Table 1 formula is instantiated with.
type sizes struct {
	n     float64 // total input size
	nMax  float64 // largest relation
	n1    float64 // matmul sides (LineView order does not matter: symmetric)
	n2    float64
	edges float64
	out   float64
}

func sizesOf(q *hypergraph.Query, rows func(name string) int, out int) sizes {
	s := sizes{edges: float64(len(q.Edges)), out: float64(out)}
	for i, e := range q.Edges {
		n := float64(rows(e.Name))
		s.n += n
		s.nMax = math.Max(s.nMax, n)
		switch i {
		case 0:
			s.n1 = n
		case 1:
			s.n2 = n
		}
	}
	return s
}

// tableBound instantiates the class's Table 1 load formula, with the
// input/output and p² sample-sort terms cmd/boundcheck adds, for a
// p-server cluster. The slack boundcheck multiplies by (6 to 8) is not
// applied: the metrics report the bare ratio.
func tableBound(class string, s sizes, p float64) float64 {
	switch class {
	case "matmul":
		// Theorem 1: N/p + min{√(N1·N2/p), (N1·N2·OUT)^{1/3}/p^{2/3}} + OUT/p.
		return (s.n1+s.n2)/p +
			math.Min(math.Sqrt(s.n1*s.n2/p), math.Cbrt(s.n1*s.n2*s.out)/math.Pow(p, 2.0/3.0)) +
			s.out/p + p*p
	case "line", "star", "star-like":
		// Theorems 4 and 5 (and §6, which reduces to them).
		n := s.n / s.edges
		return n*math.Sqrt(s.out)/p + math.Pow(n*s.out/p, 2.0/3.0) + (s.n+s.out)/p + p*p
	default:
		// Theorem 6; free-connex queries are within it too.
		return s.nMax*math.Pow(s.out, 2.0/3.0)/p + (s.n+s.out)/p + p*p
	}
}

// iterBound is the per-iteration SpMV bound internal/experiments checks.
func iterBound(nnz, in, out int64, p int) float64 {
	return float64((nnz+in)/int64(p) + out/int64(p) + int64(p))
}
