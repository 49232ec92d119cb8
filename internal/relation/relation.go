// Package relation implements annotated relations and the sequential
// relational algebra over them: natural join, semijoin, selection,
// projection with ⊕-aggregation, and the join and aggregation fused
// (JoinAgg, join.go).
//
// Two distinct consumers share this package. First, every simulated MPC
// server uses it for its local computation (the MPC model allows arbitrary
// local work; only communication is metered). Second, the reference engine
// in internal/refengine composes these operators sequentially to produce
// ground-truth answers for tests.
//
// A relation is a multiset of rows over a fixed schema of named attributes;
// each row carries a semiring annotation. Operators never inspect
// annotations beyond applying ⊕ and ⊗, as required by the semiring MPC
// model the paper's lower bounds are proved in.
package relation

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"mpcjoin/internal/semiring"
)

// Attr names an attribute (a vertex of the query hypergraph).
type Attr string

// Value is a domain value. All attribute domains are identified with int64;
// workloads map their native domains onto it.
type Value int64

// Row is one tuple: a value for every schema attribute, plus an annotation.
type Row[W any] struct {
	Vals []Value
	W    W
}

// Relation is a multiset of annotated rows over a schema. The zero value is
// not usable; construct with New.
type Relation[W any] struct {
	schema []Attr
	col    map[Attr]int
	Rows   []Row[W]
}

// New returns an empty relation with the given schema. Attribute names must
// be distinct.
func New[W any](schema ...Attr) *Relation[W] {
	col := make(map[Attr]int, len(schema))
	for i, a := range schema {
		if _, dup := col[a]; dup {
			panic(fmt.Sprintf("relation: duplicate attribute %q in schema", a))
		}
		col[a] = i
	}
	return &Relation[W]{schema: append([]Attr(nil), schema...), col: col}
}

// Schema returns the attribute list (do not mutate).
func (r *Relation[W]) Schema() []Attr { return r.schema }

// Arity returns the number of attributes.
func (r *Relation[W]) Arity() int { return len(r.schema) }

// Len returns the number of rows.
func (r *Relation[W]) Len() int { return len(r.Rows) }

// Col returns the column index of attribute a, or -1 if absent.
func (r *Relation[W]) Col(a Attr) int {
	i, ok := r.col[a]
	if !ok {
		return -1
	}
	return i
}

// Has reports whether the schema contains a.
func (r *Relation[W]) Has(a Attr) bool { _, ok := r.col[a]; return ok }

// Append adds a row. vals must match the schema arity.
func (r *Relation[W]) Append(w W, vals ...Value) {
	if len(vals) != len(r.schema) {
		panic(fmt.Sprintf("relation: row arity %d does not match schema %v", len(vals), r.schema))
	}
	r.Rows = append(r.Rows, Row[W]{Vals: append([]Value(nil), vals...), W: w})
}

// AppendRow adds a row without copying vals; the caller must not reuse the
// slice. Arity is still checked.
func (r *Relation[W]) AppendRow(row Row[W]) {
	if len(row.Vals) != len(r.schema) {
		panic(fmt.Sprintf("relation: row arity %d does not match schema %v", len(row.Vals), r.schema))
	}
	r.Rows = append(r.Rows, row)
}

// Clone returns a deep copy (annotations are copied by value).
func (r *Relation[W]) Clone() *Relation[W] {
	out := New[W](r.schema...)
	out.Rows = make([]Row[W], len(r.Rows))
	for i, row := range r.Rows {
		out.Rows[i] = Row[W]{Vals: append([]Value(nil), row.Vals...), W: row.W}
	}
	return out
}

// Empty returns an empty relation with the same schema.
func (r *Relation[W]) Empty() *Relation[W] { return New[W](r.schema...) }

// String renders a small relation for debugging and test failure messages.
func (r *Relation[W]) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v {", r.schema)
	for i, row := range r.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%v:%v", row.Vals, row.W)
	}
	b.WriteString("}")
	return b.String()
}

// ---------------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------------

// EncodeKey encodes the projection of vals onto the column indices idx as
// a comparable string (8 big-endian bytes per value), usable as a sort,
// grouping or hash-map key. The encoding flips the sign bit so
// lexicographic string order equals lexicographic numeric order on the
// value vectors.
func EncodeKey(vals []Value, idx []int) string {
	// Keys of up to four columns (all of the paper's query classes) are
	// assembled in a stack buffer; only the returned string is heap-allocated.
	var stack [32]byte
	out := stack[:0]
	if 8*len(idx) > len(stack) {
		out = make([]byte, 0, 8*len(idx))
	}
	for _, i := range idx {
		v := uint64(vals[i]) ^ (1 << 63) // order-preserving for signed values
		out = append(out,
			byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
			byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	return string(out)
}

// DecodeKey inverts EncodeKey, recovering the projected value vector.
func DecodeKey(k string) []Value {
	if len(k)%8 != 0 {
		panic("relation: DecodeKey on malformed key")
	}
	out := make([]Value, len(k)/8)
	for i := range out {
		var v uint64
		for j := 0; j < 8; j++ {
			v = v<<8 | uint64(k[i*8+j])
		}
		out[i] = Value(v ^ (1 << 63))
	}
	return out
}

// cols maps attribute names to column indices in r, panicking on absences.
func (r *Relation[W]) cols(attrs []Attr) []int {
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		c := r.Col(a)
		if c < 0 {
			panic(fmt.Sprintf("relation: attribute %q not in schema %v", a, r.schema))
		}
		idx[i] = c
	}
	return idx
}

// Shared returns the attributes common to r and s, in r's schema order.
func Shared[W any](r, s *Relation[W]) []Attr {
	var out []Attr
	for _, a := range r.schema {
		if s.Has(a) {
			out = append(out, a)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------------

// Semijoin returns the rows of r that join with at least one row of s on
// their shared attributes (r ⋉ s). Annotations pass through unchanged.
func Semijoin[W any](r, s *Relation[W]) *Relation[W] {
	shared := Shared(r, s)
	if len(shared) == 0 {
		// No shared attributes: r ⋉ s is r if s nonempty, else empty.
		if s.Len() == 0 {
			return r.Empty()
		}
		return r.Clone()
	}
	rIdx := r.cols(shared)
	sIdx := s.cols(shared)
	seen := make(map[string]struct{}, len(s.Rows))
	for _, row := range s.Rows {
		seen[EncodeKey(row.Vals, sIdx)] = struct{}{}
	}
	out := r.Empty()
	for _, row := range r.Rows {
		if _, ok := seen[EncodeKey(row.Vals, rIdx)]; ok {
			out.AppendRow(Row[W]{Vals: append([]Value(nil), row.Vals...), W: row.W})
		}
	}
	return out
}

// ProjectAgg computes π̂_attrs r: group rows by the projection onto attrs and
// ⊕-combine the annotations of each group. The output has one row per
// distinct key, in first-seen order.
func ProjectAgg[W any](sr semiring.Semiring[W], r *Relation[W], attrs ...Attr) *Relation[W] {
	idx := r.cols(attrs)
	out := New[W](attrs...)
	pos := make(map[string]int, len(r.Rows))
	for _, row := range r.Rows {
		k := EncodeKey(row.Vals, idx)
		if at, ok := pos[k]; ok {
			out.Rows[at].W = sr.Add(out.Rows[at].W, row.W)
			continue
		}
		vals := make([]Value, len(idx))
		for i, c := range idx {
			vals[i] = row.Vals[c]
		}
		pos[k] = len(out.Rows)
		out.Rows = append(out.Rows, Row[W]{Vals: vals, W: row.W})
	}
	return out
}

// Compact ⊕-merges duplicate rows in place semantics (returns a new
// relation with one row per distinct tuple). It is ProjectAgg onto the full
// schema.
func Compact[W any](sr semiring.Semiring[W], r *Relation[W]) *Relation[W] {
	return ProjectAgg(sr, r, r.schema...)
}

// UnionAgg returns the ⊕-union of relations with identical schemas:
// duplicate tuples across inputs are merged with ⊕.
func UnionAgg[W any](sr semiring.Semiring[W], rs ...*Relation[W]) *Relation[W] {
	if len(rs) == 0 {
		panic("relation: UnionAgg needs at least one input")
	}
	out := rs[0].Clone()
	for _, r := range rs[1:] {
		if !sameSchema(out.schema, r.schema) {
			panic(fmt.Sprintf("relation: UnionAgg schema mismatch %v vs %v", out.schema, r.schema))
		}
		for _, row := range r.Rows {
			out.AppendRow(Row[W]{Vals: append([]Value(nil), row.Vals...), W: row.W})
		}
	}
	return Compact(sr, out)
}

func sameSchema(a, b []Attr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Degrees returns, for each distinct value of attribute a, the number of
// rows of r carrying it.
func Degrees[W any](r *Relation[W], a Attr) map[Value]int {
	c := r.Col(a)
	if c < 0 {
		panic(fmt.Sprintf("relation: attribute %q not in schema %v", a, r.schema))
	}
	deg := make(map[Value]int)
	for _, row := range r.Rows {
		deg[row.Vals[c]]++
	}
	return deg
}

// ---------------------------------------------------------------------------
// Canonicalization and comparison (test support)
// ---------------------------------------------------------------------------

// SortRows orders rows lexicographically by value vector, in place.
func (r *Relation[W]) SortRows() {
	slices.SortFunc(r.Rows, func(x, y Row[W]) int {
		a, b := x.Vals, y.Vals
		for k := range a {
			if a[k] != b[k] {
				return cmp.Compare(a[k], b[k])
			}
		}
		return 0
	})
}

// Reorder returns a copy of r with columns permuted to the given schema,
// which must contain exactly r's attributes.
func Reorder[W any](r *Relation[W], schema []Attr) *Relation[W] {
	if len(schema) != len(r.schema) {
		panic(fmt.Sprintf("relation: Reorder schema %v incompatible with %v", schema, r.schema))
	}
	idx := r.cols(schema)
	out := New[W](schema...)
	for _, row := range r.Rows {
		vals := make([]Value, len(idx))
		for i, c := range idx {
			vals[i] = row.Vals[c]
		}
		out.AppendRow(Row[W]{Vals: vals, W: row.W})
	}
	return out
}

// Equal reports whether r and s denote the same annotated relation: same
// attribute set (order-insensitive), same distinct tuples, and ⊕-aggregated
// annotations equal under eq. Inputs are not modified.
func Equal[W any](sr semiring.Semiring[W], eq func(a, b W) bool, r, s *Relation[W]) bool {
	if len(r.schema) != len(s.schema) {
		return false
	}
	for _, a := range r.schema {
		if !s.Has(a) {
			return false
		}
	}
	rc := Compact(sr, r)
	sc := Compact(sr, Reorder(s, r.schema))
	if rc.Len() != sc.Len() {
		return false
	}
	rc.SortRows()
	sc.SortRows()
	for i := range rc.Rows {
		for k := range rc.Rows[i].Vals {
			if rc.Rows[i].Vals[k] != sc.Rows[i].Vals[k] {
				return false
			}
		}
		if !eq(rc.Rows[i].W, sc.Rows[i].W) {
			return false
		}
	}
	return true
}
