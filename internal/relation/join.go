package relation

import (
	"fmt"
	"math/bits"
	"slices"

	"mpcjoin/internal/semiring"
)

// join.go holds the local join every server runs, in two forms over one
// build index: Join materialises r ⋈ s, and JoinAgg computes π̂_attrs(r ⋈ s)
// without materialising it — Gustavson's sparse accumulator, for any arity.
// Neither builds a key string: both sides are hashed in place by HashCols
// and keys are compared on their Values.
//
// The order both follow is a contract the goldens rest on: probe rows in
// probe order; within one, the build rows of its chain in build order; each
// pair's annotation is w_r ⊗ w_s, r always first. JoinAgg keeps one output
// row per distinct key in first-seen order, set by its first pair, with
// every later pair folded in as acc ⊕ next — call for call what
// ProjectAgg(Join(r, s), attrs...) does.

// HashCols is the 64-bit FNV-1a hash of EncodeKey(vals, idx) computed
// without building the key: the same FNV-1a over the same sign-flipped
// big-endian bytes. It does not allocate.
func HashCols(vals []Value, idx []int) uint64 {
	h := fnvOffset
	for _, c := range idx {
		v := uint64(vals[c]) ^ (1 << 63)
		for shift := 56; shift >= 0; shift -= 8 {
			h = (h ^ (v >> shift & 0xff)) * fnvPrime
		}
	}
	return h
}

// HashString is the 64-bit FNV-1a hash of s with seed xored into the
// offset basis; seed 0 is plain FNV-1a, the item space HashCols hashes an
// encoded key into.
func HashString(s string, seed uint64) uint64 {
	h := fnvOffset ^ seed
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

const fnvOffset, fnvPrime uint64 = 0xcbf29ce484222325, 0x100000001b3

// table is an open-addressing slot array sized for at most n entries at
// load ≤ 1/2. A slot holds an entry number + 1; 0 is empty. Probing starts
// at the top bits of the (Fibonacci-scrambled) hash and walks linearly.
type table struct {
	slots []int32
	shift uint
}

func newTable(n int) table {
	b := bits.Len(uint(max(2*n-1, 0)))
	return table{slots: make([]int32, 1<<b), shift: uint(64 - b)}
}

func (t table) start(h uint64) int { return int(h * 0x9e3779b97f4a7c15 >> t.shift) }

func (t table) step(s int) int { return (s + 1) & (len(t.slots) - 1) }

// index is a hash index of a join's build side on its join columns. Rows
// with equal key values form one chain, linked in build order; with no join
// columns every key is empty and the index is one chain (a cross product).
type index[W any] struct {
	rows []Row[W]
	cols []int
	t    table   // slots hold chain heads
	next []int32 // next[i]: the row after i in its chain + 1, 0 at its end
	run  []int32 // run[i]: the number of rows from i to its chain's end
}

func buildIndex[W any](rows []Row[W], cols []int) index[W] {
	x := index[W]{rows: rows, cols: cols, t: newTable(len(rows)),
		next: make([]int32, len(rows)), run: make([]int32, len(rows))}
	// Pushing the rows onto their chains' fronts from the last one back
	// leaves every chain in build order.
	for i := len(rows) - 1; i >= 0; i-- {
		s := x.find(rows[i].Vals, cols)
		if h := x.t.slots[s]; h != 0 {
			x.next[i], x.run[i] = h, x.run[h-1]
		}
		x.run[i]++
		x.t.slots[s] = int32(i + 1)
	}
	return x
}

// find returns the slot of the chain whose key equals vals projected on
// cols, or the empty slot where that chain would go.
func (x *index[W]) find(vals []Value, cols []int) int {
	for s := x.t.start(HashCols(vals, cols)); ; s = x.t.step(s) {
		h := x.t.slots[s]
		if h == 0 || sameKey(x.rows[h-1].Vals, x.cols, vals, cols) {
			return s
		}
	}
}

func sameKey(a []Value, ac []int, b []Value, bc []int) bool {
	for i, c := range ac {
		if a[c] != b[bc[i]] {
			return false
		}
	}
	return true
}

// matching is r ⋈ s probed but not yet enumerated: the index of the build
// side (r when |r| ≤ |s|, as ever) and each probe row's chain.
type matching[W any] struct {
	x      index[W]
	probe  []Row[W]
	heads  []int32 // heads[i]: probe row i's chain head + 1, 0 = no match
	buildR bool
	pairs  int // J, the number of joining pairs
}

func match[W any](r, s *Relation[W]) matching[W] {
	shared := Shared(r, s)
	build, probe, buildR := r, s, len(r.Rows) <= len(s.Rows)
	if !buildR {
		build, probe = s, r
	}
	m := matching[W]{x: buildIndex(build.Rows, build.cols(shared)), probe: probe.Rows,
		heads: make([]int32, len(probe.Rows)), buildR: buildR}
	cols := probe.cols(shared)
	for i, row := range probe.Rows {
		if h := m.x.t.slots[m.x.find(row.Vals, cols)]; h != 0 {
			m.heads[i] = h
			m.pairs += int(m.x.run[h-1])
		}
	}
	return m
}

// each calls visit on every joining pair, r's row first, in the contract's
// order.
func (m *matching[W]) each(visit func(rrow, srow *Row[W])) {
	for i := range m.probe {
		for b := m.heads[i]; b != 0; b = m.x.next[b-1] {
			if m.buildR {
				visit(&m.x.rows[b-1], &m.probe[i])
			} else {
				visit(&m.probe[i], &m.x.rows[b-1])
			}
		}
	}
}

// Join computes the natural join r ⋈ s. The output schema is r's attributes
// followed by s's non-shared attributes; each output annotation is
// w(t_r) ⊗ w(t_s). The output rows share one backing value buffer.
func Join[W any](sr semiring.Semiring[W], r, s *Relation[W]) *Relation[W] {
	var extra []Attr
	var extraIdx []int
	for i, a := range s.schema {
		if !r.Has(a) {
			extra = append(extra, a)
			extraIdx = append(extraIdx, i)
		}
	}
	out := New[W](append(append([]Attr(nil), r.schema...), extra...)...)
	m := match(r, s)
	if m.pairs == 0 {
		return out
	}
	w := len(out.schema)
	buf := make([]Value, m.pairs*w)
	out.Rows = make([]Row[W], 0, m.pairs)
	m.each(func(rrow, srow *Row[W]) {
		vals := append(buf[:0:w], rrow.Vals...)
		for _, c := range extraIdx {
			vals = append(vals, srow.Vals[c])
		}
		buf = buf[w:]
		out.Rows = append(out.Rows, Row[W]{Vals: vals, W: sr.Mul(rrow.W, srow.W)})
	})
	return out
}

// JoinAgg computes π̂_attrs(r ⋈ s) — exactly ProjectAgg(sr, Join(sr, r, s),
// attrs...), rows and ⊗/⊕ calls in the same order (see the file comment) —
// without materialising the join: each pair's product is ⊕-folded straight
// into an accumulator keyed by its projection onto attrs. An attribute of
// both inputs is read from r, as Join's output carries r's copy.
func JoinAgg[W any](sr semiring.Semiring[W], r, s *Relation[W], attrs ...Attr) *Relation[W] {
	out := New[W](attrs...)
	rc, sc := make([]int, len(attrs)), make([]int, len(attrs))
	for i, a := range attrs {
		rc[i], sc[i] = r.Col(a), s.Col(a)
		if rc[i] < 0 && sc[i] < 0 {
			panic(fmt.Sprintf("relation: attribute %q not in schema %v or %v", a, r.schema, s.schema))
		}
	}
	m := match(r, s)
	if m.pairs == 0 {
		return out
	}
	acc := newAccumulator[W](len(attrs), m.pairs)
	key := make([]Value, len(attrs))
	m.each(func(rrow, srow *Row[W]) {
		for i, c := range rc {
			if c >= 0 {
				key[i] = rrow.Vals[c]
			} else {
				key[i] = srow.Vals[sc[i]]
			}
		}
		acc.add(sr, key, sr.Mul(rrow.W, srow.W))
	})
	out.Rows = acc.rows()
	return out
}

// accumulator ⊕-folds annotated keys of one width: the distinct keys in
// first-seen order in one flat value run, their annotations beside them.
// Its buffers are sized once for at most n distinct keys.
type accumulator[W any] struct {
	width int
	all   []int // 0, …, width-1: a key's columns for HashCols
	t     table
	vals  []Value
	ws    []W
}

func newAccumulator[W any](width, n int) *accumulator[W] {
	all := make([]int, width)
	for i := range all {
		all[i] = i
	}
	return &accumulator[W]{width: width, all: all, t: newTable(n),
		vals: make([]Value, 0, n*width), ws: make([]W, 0, n)}
}

// add folds w into key's entry (acc ⊕ w), or opens the entry with w. key
// is copied, not kept.
func (a *accumulator[W]) add(sr semiring.Semiring[W], key []Value, w W) {
	for s := a.t.start(HashCols(key, a.all)); ; s = a.t.step(s) {
		k := int(a.t.slots[s])
		if k == 0 {
			a.vals = append(a.vals, key...)
			a.ws = append(a.ws, w)
			a.t.slots[s] = int32(len(a.ws))
			return
		}
		if slices.Equal(a.vals[(k-1)*a.width:k*a.width], key) {
			a.ws[k-1] = sr.Add(a.ws[k-1], w)
			return
		}
	}
}

// rows cuts the output rows from the accumulated buffers.
func (a *accumulator[W]) rows() []Row[W] {
	rows := make([]Row[W], len(a.ws))
	for i := range rows {
		rows[i] = Row[W]{Vals: a.vals[i*a.width : (i+1)*a.width : (i+1)*a.width], W: a.ws[i]}
	}
	return rows
}
