// Package dist layers distributed annotated relations on top of the MPC
// simulator: a Rel is a relation whose rows are partitioned across servers,
// and the package provides the relational MPC primitives of §2.1 —
// distributed aggregation (reduce-by-key), semijoin (multi-search),
// degree statistics, broadcast, co-location by key, and the dangling-tuple
// full reducer for acyclic queries. All algorithm packages build on these.
package dist

import (
	"fmt"

	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/relation"
	"mpcjoin/internal/semiring"
)

// Attr aliases the relation attribute type.
type Attr = relation.Attr

// Rel is a relation partitioned across the servers of an MPC cluster.
type Rel[W any] struct {
	Schema []Attr
	Part   mpc.Part[relation.Row[W]]
}

// FromRelationIn distributes r evenly over p servers (the model's
// uncounted initial placement) into an execution scope (possibly nil).
// Shards are defensive copies; the caller keeps ownership of r. The
// placement stamps the scope onto the Part, and every Part derived from it
// inherits the scope's runtime and cancellation context. This is how core
// threads per-execution scoping under the engines.
func FromRelationIn[W any](ex *mpc.Exec, r *relation.Relation[W], p int) Rel[W] {
	return Rel[W]{
		Schema: append([]Attr(nil), r.Schema()...),
		Part:   mpc.DistributeIn(ex, r.Rows, p),
	}
}

// EmptyIn returns an empty Rel with the given schema over p servers, scoped
// to the execution ex: an engine that finds its input empty returns one on
// its input's scope, so the rounds downstream of it (a projection, an
// ⊕-merge) stay on the execution's runtime, tracer, fault plane and
// cancellation context.
func EmptyIn[W any](ex *mpc.Exec, schema []Attr, p int) Rel[W] {
	return Rel[W]{Schema: append([]Attr(nil), schema...), Part: mpc.NewPartIn[relation.Row[W]](ex, p)}
}

// ToRelation gathers all shards into a sequential relation (unmetered;
// used to read off final distributed outputs for verification). The
// gathered slice becomes the relation's rows as it is; an empty gather
// leaves Rows nil.
func ToRelation[W any](r Rel[W]) *relation.Relation[W] {
	out := relation.New[W](r.Schema...)
	rows := mpc.Collect(r.Part)
	for _, row := range rows {
		if len(row.Vals) != out.Arity() {
			panic(fmt.Sprintf("dist: row arity %d does not match schema %v", len(row.Vals), r.Schema))
		}
	}
	if len(rows) > 0 {
		out.Rows = rows
	}
	return out
}

// P returns the relation's server count.
func (r Rel[W]) P() int { return r.Part.P() }

// N returns the total number of rows.
func (r Rel[W]) N() int { return r.Part.Len() }

// Cols maps attribute names to column indices, panicking on absences.
func (r Rel[W]) Cols(attrs ...Attr) []int {
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		idx[i] = -1
		for c, s := range r.Schema {
			if s == a {
				idx[i] = c
				break
			}
		}
		if idx[i] < 0 {
			panic(fmt.Sprintf("dist: attribute %q not in schema %v", a, r.Schema))
		}
	}
	return idx
}

// Without returns schema minus the attribute b, in schema order.
func Without(schema []Attr, b Attr) []Attr {
	var out []Attr
	for _, a := range schema {
		if a != b {
			out = append(out, a)
		}
	}
	return out
}

// Single is the identity vertex expansion the engines' Bind functions take:
// a query vertex is its own one attribute column. (The tree engine's twigs
// expand combined vertices to several.)
func Single(v Attr) []Attr { return []Attr{v} }

// AnyRel returns one of the query's placed relations — they all share the
// server count and the execution scope an engine needs before it touches a
// particular one.
func AnyRel[W any](rels map[string]Rel[W]) Rel[W] {
	for _, r := range rels {
		return r
	}
	panic("dist: no relations")
}

// Has reports whether the schema contains a.
func (r Rel[W]) Has(a Attr) bool {
	for _, s := range r.Schema {
		if s == a {
			return true
		}
	}
	return false
}

// Key returns a row-key function projecting rows onto attrs.
func (r Rel[W]) Key(attrs ...Attr) func(relation.Row[W]) string {
	idx := r.Cols(attrs...)
	return func(row relation.Row[W]) string { return relation.EncodeKey(row.Vals, idx) }
}

// SharedAttrs returns the attributes present in both schemas, in r's order.
func SharedAttrs[W any](r, s Rel[W]) []Attr {
	var out []Attr
	for _, a := range r.Schema {
		if s.Has(a) {
			out = append(out, a)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Distributed operators
// ---------------------------------------------------------------------------

// ProjectAgg computes the distributed π̂_attrs: rows are projected onto
// attrs and annotations of equal projections are ⊕-combined via
// reduce-by-key. The result has one row per distinct key, keys sorted and
// contiguous across servers. Cost: O(N'/p) load, O(1) rounds, where N' is
// the input size.
func ProjectAgg[W any](sr semiring.Semiring[W], r Rel[W], attrs ...Attr) (Rel[W], mpc.Stats) {
	idx := r.Cols(attrs...)
	// A shard's projections share one backing buffer (every row has
	// len(idx) values) rather than one allocation per row; the capacity-
	// limited sub-slices keep a later append from reaching a neighbour.
	w := len(idx)
	projected := mpc.MapShards(r.Part, func(_ int, shard []relation.Row[W]) []relation.Row[W] {
		if len(shard) == 0 {
			return nil
		}
		buf := make([]relation.Value, len(shard)*w)
		rows := make([]relation.Row[W], len(shard))
		for j, row := range shard {
			vals := buf[j*w : (j+1)*w : (j+1)*w]
			for i, c := range idx {
				vals[i] = row.Vals[c]
			}
			rows[j] = relation.Row[W]{Vals: vals, W: row.W}
		}
		return rows
	})
	allIdx := make([]int, len(attrs))
	for i := range allIdx {
		allIdx[i] = i
	}
	reduced, st := mpc.ReduceByKey(projected,
		func(row relation.Row[W]) string { return relation.EncodeKey(row.Vals, allIdx) },
		func(a, b relation.Row[W]) relation.Row[W] {
			return relation.Row[W]{Vals: a.Vals, W: sr.Add(a.W, b.W)}
		})
	return Rel[W]{Schema: append([]Attr(nil), attrs...), Part: reduced}, st
}

// Semijoin filters r to the rows that match some row of s on their shared
// attributes (r ⋉ s), via the multi-search primitive. Annotations pass
// through. Cost: O((|r|+|s|)/p) load.
func Semijoin[W any](r, s Rel[W]) (Rel[W], mpc.Stats) {
	shared := SharedAttrs(r, s)
	if len(shared) == 0 {
		panic("dist: Semijoin with no shared attributes")
	}
	filtered, st := mpc.SemijoinKeys(r.Part, s.Part, r.Key(shared...), s.Key(shared...))
	return Rel[W]{Schema: r.Schema, Part: filtered}, st
}

// Degrees computes, for every distinct value of attribute a in r, the
// number of rows carrying it (the §2.1 degree statistic). The result is a
// Part of (value, count), one entry per distinct value.
func Degrees[W any](r Rel[W], a Attr) (mpc.Part[mpc.KeyCount[int64]], mpc.Stats) {
	c := r.Cols(a)[0]
	return mpc.CountByKey(r.Part, func(row relation.Row[W]) int64 { return int64(row.Vals[c]) })
}

// Broadcast replicates r's rows to every server. Cost: one round with load
// |r| per server — only sensible for small relations (the N₁=1 fast path).
// The shards are read-only and may share storage (see mpc.Broadcast).
func Broadcast[W any](r Rel[W]) (Rel[W], mpc.Stats) {
	part, st := mpc.Broadcast(r.Part)
	return Rel[W]{Schema: r.Schema, Part: part}, st
}

// GroupBy co-locates all rows sharing a value vector on attrs onto single
// servers (sorted, contiguous). The caller must keep the maximum group
// size within the intended load.
func GroupBy[W any](r Rel[W], attrs ...Attr) (Rel[W], mpc.Stats) {
	grouped, st := mpc.GroupByKey(r.Part, r.Key(attrs...))
	return Rel[W]{Schema: r.Schema, Part: grouped}, st
}

// Reshape reinterprets the relation over a different server count (see
// mpc.Reshape); zero cost.
func Reshape[W any](r Rel[W], p int) Rel[W] {
	return Rel[W]{Schema: r.Schema, Part: mpc.Reshape(r.Part, p)}
}

// Rebalance spreads rows evenly across servers in one metered round.
func Rebalance[W any](r Rel[W]) (Rel[W], mpc.Stats) {
	part, st := mpc.Rebalance(r.Part)
	return Rel[W]{Schema: r.Schema, Part: part}, st
}

// AttachAgg implements the §7 reduction step: agg must have one row per
// distinct key over exactly the attributes on; every row of r is
// ⊗-multiplied with the agg annotation matching it on on. Rows with no
// match are dropped (they are dangling with respect to the removed
// relation). Cost: one multi-search.
func AttachAgg[W any](sr semiring.Semiring[W], r Rel[W], agg Rel[W], on []Attr) (Rel[W], mpc.Stats) {
	rows, st := mpc.Lookup(r.Part, agg.Part, r.Key(on...), agg.Key(on...),
		func(x, y relation.Row[W], found bool) (relation.Row[W], bool) {
			if !found {
				return x, false
			}
			return relation.Row[W]{Vals: x.Vals, W: sr.Mul(x.W, y.W)}, true
		})
	return Rel[W]{Schema: r.Schema, Part: rows}, st
}

// UnionAgg ⊕-merges relations with identical schemas into one, combining
// duplicate tuples (the "aggregate all subqueries" steps). Cost: one
// reduce-by-key over the concatenation, rebalanced first.
func UnionAgg[W any](sr semiring.Semiring[W], rels ...Rel[W]) (Rel[W], mpc.Stats) {
	if len(rels) == 0 {
		panic("dist: UnionAgg needs at least one input")
	}
	p := rels[0].P()
	schema := rels[0].Schema
	parts := make([]mpc.Part[relation.Row[W]], 0, len(rels))
	for _, r := range rels {
		if len(r.Schema) != len(schema) {
			panic(fmt.Sprintf("dist: UnionAgg schema mismatch %v vs %v", r.Schema, schema))
		}
		reordered := r
		for i := range schema {
			if r.Schema[i] != schema[i] {
				reordered = Reorder(r, schema)
				break
			}
		}
		parts = append(parts, reordered.Part)
	}
	// Concatenate shard-wise onto the first relation's server count: rows
	// stay put when server counts match; otherwise shards fold round-robin
	// (the subsequent reduce re-routes them anyway).
	merged := mpc.Overlay(parts[0].Scope(), p, parts...)
	res, st := ProjectAgg(sr, Rel[W]{Schema: schema, Part: merged}, schema...)
	return res, st
}

// Reorder permutes columns to the given schema (local, zero cost). When
// the columns are already in the requested order the rows are returned
// as-is, not rebuilt.
func Reorder[W any](r Rel[W], schema []Attr) Rel[W] {
	idx := r.Cols(schema...)
	identity := len(idx) == len(r.Schema)
	for i, c := range idx {
		if c != i {
			identity = false
			break
		}
	}
	if identity {
		return Rel[W]{Schema: append([]Attr(nil), schema...), Part: r.Part}
	}
	part := mpc.Map(r.Part, func(row relation.Row[W]) relation.Row[W] {
		vals := make([]relation.Value, len(idx))
		for i, c := range idx {
			vals[i] = row.Vals[c]
		}
		return relation.Row[W]{Vals: vals, W: row.W}
	})
	return Rel[W]{Schema: append([]Attr(nil), schema...), Part: part}
}

// Filter keeps rows satisfying pred (local, zero cost).
func Filter[W any](r Rel[W], pred func(relation.Row[W]) bool) Rel[W] {
	return Rel[W]{Schema: r.Schema, Part: mpc.Filter(r.Part, pred)}
}

// ---------------------------------------------------------------------------
// Dangling-tuple removal (full reducer)
// ---------------------------------------------------------------------------

// RemoveDangling removes every tuple that cannot participate in a full
// join result, via the classical full reducer run with distributed
// semijoins: leaf-to-root then root-to-leaf over the query's join tree
// (§2.1, [14, 25]). Cost: O(N/p) load, O(n) = O(1) rounds (n is the
// constant number of relations).
func RemoveDangling[W any](q *hypergraph.Query, rels map[string]Rel[W]) (map[string]Rel[W], mpc.Stats) {
	out := make(map[string]Rel[W], len(rels))
	for k, v := range rels {
		out[k] = v
	}
	order, parent := q.JoinTree()
	var st mpc.Stats
	for i := len(order) - 1; i >= 1; i-- {
		e := q.Edges[order[i]]
		pe := q.Edges[parent[order[i]]]
		filtered, s := Semijoin(out[pe.Name], out[e.Name])
		out[pe.Name] = filtered
		st = mpc.Seq(st, s)
	}
	for _, ei := range order[1:] {
		e := q.Edges[ei]
		pe := q.Edges[parent[ei]]
		filtered, s := Semijoin(out[e.Name], out[pe.Name])
		out[e.Name] = filtered
		st = mpc.Seq(st, s)
	}
	return out, st
}

// ReduceArms is the full reducer of a query whose relations meet in one
// centre attribute b (star and star-like queries): arms[i] lists one arm's
// relations from the centre outward, arms[i][0] containing b. Each arm is
// swept inward, the arms' b-sets are intersected, and each arm is
// restricted to the intersection and swept back outward. The arms are
// reduced in place; the surviving b values are returned. Unlike
// RemoveDangling it needs no join tree and folds the b-sets with
// ProjectAgg, so the two meter differently and neither replaces the other.
func ReduceArms[W any](sr semiring.Semiring[W], arms [][]Rel[W], b Attr) (Rel[W], mpc.Stats) {
	var st mpc.Stats
	for _, arm := range arms {
		for j := len(arm) - 2; j >= 0; j-- {
			filtered, s := Semijoin(arm[j], arm[j+1])
			arm[j] = filtered
			st = mpc.Seq(st, s)
		}
	}
	inter, s := ProjectAgg(sr, arms[0][0], b)
	st = mpc.Seq(st, s)
	for _, arm := range arms[1:] {
		bs, s1 := ProjectAgg(sr, arm[0], b)
		filtered, s2 := Semijoin(inter, bs)
		inter = filtered
		st = mpc.Seq(st, s1, s2)
	}
	for _, arm := range arms {
		for j := range arm {
			outer := inter
			if j > 0 {
				outer = arm[j-1]
			}
			filtered, s := Semijoin(arm[j], outer)
			arm[j] = filtered
			st = mpc.Seq(st, s)
		}
	}
	return inter, st
}
