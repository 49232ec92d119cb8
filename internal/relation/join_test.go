package relation

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

func TestHashColsEqualsHashOfEncodedKey(t *testing.T) {
	vals := []Value{0, -1, 7, -1 << 63, 1<<63 - 1, 123456789}
	for _, idx := range [][]int{{}, {0}, {1}, {3, 4}, {2, 1, 0}, {5, 3, 1, 4}, {0, 1, 2, 3, 4}} {
		h := fnv.New64a()
		h.Write([]byte(EncodeKey(vals, idx)))
		if got, want := HashCols(vals, idx), h.Sum64(); got != want {
			t.Errorf("columns %v: HashCols %#x, FNV-1a of EncodeKey %#x", idx, got, want)
		}
	}
	if got := testing.AllocsPerRun(50, func() { HashCols(vals, []int{2, 0}) }); got != 0 {
		t.Errorf("HashCols: %v allocations per run, want 0", got)
	}
}

// TestHashStringIsSeededFNV1a pins HashString bit for bit to the two
// string hashes it replaced: the estimator's item hash (plain FNV-1a, seed
// 0) and matmul's seeded spread (FNV-1a from offset ⊕ seed).
func TestHashStringIsSeededFNV1a(t *testing.T) {
	seeded := func(s string, seed uint64) uint64 {
		var h uint64 = 0xcbf29ce484222325 ^ seed
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 0x100000001b3
		}
		return h
	}
	vals := []Value{0, -1, 7, -1 << 63, 1<<63 - 1, 123456789}
	for _, s := range []string{"", "a", "hash me", EncodeKey(vals, []int{0}), EncodeKey(vals, []int{3, 4, 5})} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := HashString(s, 0), h.Sum64(); got != want {
			t.Errorf("%q: HashString(s, 0) %#x, FNV-1a %#x", s, got, want)
		}
		for _, seed := range []uint64{0, 1, 0x51ed, 1<<64 - 1} {
			if got, want := HashString(s, seed), seeded(s, seed); got != want {
				t.Errorf("%q seed %#x: HashString %#x, seeded FNV-1a %#x", s, seed, got, want)
			}
		}
	}
}

// symbolic is a recording semiring over expression strings: every ⊗ and ⊕
// returns the expression it built and logs it, so two computations that
// agree on every annotation and both logs made the same calls on the same
// operands in the same order.
type symbolic struct{ muls, adds *[]string }

func newSymbolic() symbolic { return symbolic{new([]string), new([]string)} }

func (symbolic) Zero() string { return "0" }
func (symbolic) One() string  { return "1" }
func (s symbolic) Mul(a, b string) string {
	e := "(" + a + "*" + b + ")"
	*s.muls = append(*s.muls, e)
	return e
}
func (s symbolic) Add(a, b string) string {
	e := "(" + a + "+" + b + ")"
	*s.adds = append(*s.adds, e)
	return e
}

// symRel is a random relation whose row i is annotated name+i, with values
// from [0, dom) — a small dom makes duplicate rows.
func symRel(rng *rand.Rand, name string, schema []Attr, n, dom int) *Relation[string] {
	r := New[string](schema...)
	for i := 0; i < n; i++ {
		vals := make([]Value, len(schema))
		for j := range vals {
			vals[j] = Value(rng.Intn(dom))
		}
		r.AppendRow(Row[string]{Vals: vals, W: fmt.Sprint(name, i)})
	}
	return r
}

func sameRows[W comparable](a, b *Relation[W]) error {
	if !slices.Equal(a.schema, b.schema) {
		return fmt.Errorf("schema %v, want %v", a.schema, b.schema)
	}
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("%d rows, want %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if !slices.Equal(a.Rows[i].Vals, b.Rows[i].Vals) || a.Rows[i].W != b.Rows[i].W {
			return fmt.Errorf("row %d is %v:%v, want %v:%v", i, a.Rows[i].Vals, a.Rows[i].W, b.Rows[i].Vals, b.Rows[i].W)
		}
	}
	return nil
}

// joinCases covers 0, 1 and 2 shared columns (0 is the cross product),
// duplicate rows (small domains), r as the build side (|r| ≤ |s|, equal
// sizes included) and s as the build side, and — in "wide" — enough
// distinct keys that the open-addressing tables probe past taken slots.
var joinCases = []struct {
	name     string
	r, s     []Attr
	nr, ns   int
	dom      int
	attrSets [][]Attr
}{
	{"cross", []Attr{"A"}, []Attr{"C", "D"}, 7, 9, 4, [][]Attr{{"A", "C"}, {"D"}, {}}},
	{"one/build-r", []Attr{"A", "B"}, []Attr{"B", "C"}, 40, 60, 6, [][]Attr{{"A", "C"}, {"C", "A"}, {"B"}, {}}},
	{"one/build-s", []Attr{"A", "B"}, []Attr{"B", "C"}, 60, 40, 6, [][]Attr{{"A", "C"}, {"C", "B", "A"}}},
	{"one/equal", []Attr{"B", "A"}, []Attr{"C", "B"}, 50, 50, 5, [][]Attr{{"A", "C"}, {"A", "B", "C"}}},
	{"two/build-r", []Attr{"A", "B", "D"}, []Attr{"D", "C", "B"}, 50, 90, 3, [][]Attr{{"A", "C"}, {"D", "A"}}},
	{"two/build-s", []Attr{"A", "B", "D"}, []Attr{"B", "D", "C"}, 90, 50, 3, [][]Attr{{"A", "C"}, {"C"}}},
	{"wide", []Attr{"A", "B"}, []Attr{"B", "C"}, 3000, 2500, 1500, [][]Attr{{"A", "C"}, {"B", "C"}}},
}

// TestJoinAggMatchesJoinThenProjectAgg: JoinAgg is ProjectAgg∘Join call for
// call — the same output rows in the same order, the same ⊗ calls in the
// same order (r's annotation first), the same ⊕ calls in the same order.
// The two interleave ⊗ and ⊕ differently (Join makes every product before
// ProjectAgg adds any), so the logs are compared per operation.
func TestJoinAggMatchesJoinThenProjectAgg(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, c := range joinCases {
			rng := rand.New(rand.NewSource(seed))
			r := symRel(rng, "r", c.r, c.nr, c.dom)
			s := symRel(rng, "s", c.s, c.ns, c.dom)
			for _, attrs := range c.attrSets {
				ref, fused := newSymbolic(), newSymbolic()
				want := ProjectAgg(ref, Join(ref, r, s), attrs...)
				got := JoinAgg(fused, r, s, attrs...)
				if err := sameRows(got, want); err != nil {
					t.Fatalf("seed %d %s onto %v: %v", seed, c.name, attrs, err)
				}
				if !slices.Equal(*fused.muls, *ref.muls) || !slices.Equal(*fused.adds, *ref.adds) {
					t.Fatalf("seed %d %s onto %v: ⊗/⊕ calls differ (%d/%d, want %d/%d)", seed, c.name, attrs,
						len(*fused.muls), len(*fused.adds), len(*ref.muls), len(*ref.adds))
				}
			}
		}
	}
}

// nestedLoopJoin is Join's contract written as loops: build on r when
// |r| ≤ |s|; every probe row in order meets every build row in order.
func nestedLoopJoin(sr symbolic, r, s *Relation[string]) *Relation[string] {
	shared := Shared(r, s)
	rc, sc := r.cols(shared), s.cols(shared)
	schema := slices.Clone(r.schema)
	var extra []int
	for i, a := range s.schema {
		if !r.Has(a) {
			schema = append(schema, a)
			extra = append(extra, i)
		}
	}
	out := New[string](schema...)
	emit := func(x, y Row[string]) {
		if !sameKey(x.Vals, rc, y.Vals, sc) {
			return
		}
		vals := slices.Clone(x.Vals)
		for _, c := range extra {
			vals = append(vals, y.Vals[c])
		}
		out.AppendRow(Row[string]{Vals: vals, W: sr.Mul(x.W, y.W)})
	}
	if len(r.Rows) <= len(s.Rows) {
		for _, y := range s.Rows {
			for _, x := range r.Rows {
				emit(x, y)
			}
		}
	} else {
		for _, x := range r.Rows {
			for _, y := range s.Rows {
				emit(x, y)
			}
		}
	}
	return out
}

func TestJoinMatchesNestedLoop(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, c := range joinCases {
			if c.name == "wide" {
				continue // quadratic reference
			}
			rng := rand.New(rand.NewSource(seed))
			r := symRel(rng, "r", c.r, c.nr, c.dom)
			s := symRel(rng, "s", c.s, c.ns, c.dom)
			sr := newSymbolic()
			if err := sameRows(Join(sr, r, s), nestedLoopJoin(sr, r, s)); err != nil {
				t.Fatalf("seed %d %s: %v", seed, c.name, err)
			}
		}
	}
}

// TestJoinIndexProbesPastCollisions: the "wide" case's key count makes
// some keys start probing at a slot another key holds, so the equivalence
// tests above walk collision chains, and such a key is still found.
func TestJoinIndexProbesPastCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := symRel(rng, "r", []Attr{"A", "B"}, 3000, 1500)
	cols := r.cols([]Attr{"B"})
	x := buildIndex(r.Rows, cols)
	displaced := 0
	for _, row := range r.Rows {
		s := x.find(row.Vals, cols)
		if s != x.t.start(HashCols(row.Vals, cols)) {
			displaced++
		}
		if h := x.t.slots[s]; h == 0 || x.rows[h-1].Vals[1] != row.Vals[1] {
			t.Fatalf("key %d not found at its slot", row.Vals[1])
		}
	}
	if displaced == 0 {
		t.Fatal("no key was displaced from its first slot: the case does not exercise probing")
	}
}

// b32Shard is one server's share of the repository benchmark's b32 matmul
// (MatMulBlocks(256, 32, 32) over p = 16): 16 blocks, each one B value
// joining 32 A values to 32 C values — 512 rows a side, 16,384 outputs,
// each made by exactly one product.
func b32Shard() (r, s *Relation[int64]) {
	r, s = New[int64]("A", "B"), New[int64]("B", "C")
	for blk := 0; blk < 16; blk++ {
		for i := 0; i < 32; i++ {
			r.Append(1, Value(blk*32+i), Value(blk))
			s.Append(1, Value(blk), Value(blk*32+i))
		}
	}
	return r, s
}

func bytesPerOp(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestJoinAggBytesBounded: on a b32-shaped shard the string-keyed
// ProjectAgg(Join(r, s)) the matmul branches ran allocated 6.91 MB per call
// — a heap row per elementary product, a key string per row on both sides
// of the join and per product in the aggregate — and JoinAgg allocates
// 1.06 MB: the index, the accumulator's flat buffers and the output rows.
// The bound sits between the two (and below the 4.85 MB of ProjectAgg over
// today's Join), so materialising the products cannot come back.
func TestJoinAggBytesBounded(t *testing.T) {
	r, s := b32Shard()
	got := bytesPerOp(5, func() { JoinAgg(intSR, r, s, "A", "C") })
	if bound := 2e6; got > bound {
		t.Errorf("JoinAgg allocated %.2f MB per call on a b32 shard, want ≤ %.2f MB", got/1e6, bound/1e6)
	}
}

// kernelRels is the local-join kernels' input: 4096 rows a side meeting on
// 1024 distinct keys of cols columns (about 16k joining pairs), with A and
// C drawn from 256 values so the aggregate folds about 1.6 pairs per output.
func kernelRels(cols int) (r, s *Relation[int64]) {
	key := []Attr{"B", "D"}[:cols]
	r, s = New[int64](append([]Attr{"A"}, key...)...), New[int64](append(slices.Clone(key), "C")...)
	rng := rand.New(rand.NewSource(9))
	keyVals := func() []Value {
		k := Value(rng.Intn(1024))
		if cols == 1 {
			return []Value{k}
		}
		return []Value{k / 32, k % 32}
	}
	for i := 0; i < 4096; i++ {
		r.Append(1, append([]Value{Value(rng.Intn(256))}, keyVals()...)...)
		s.Append(1, append(keyVals(), Value(rng.Intn(256)))...)
	}
	return r, s
}

var sinkRel *Relation[int64]

// BenchmarkJoinAggKernel and BenchmarkJoinKernel time one server's local
// join on kernelRels, fused with its aggregate onto (A, C) and
// materialised. Run with:
//
//	go test -run NONE -bench 'Join(Agg)?Kernel' -benchmem ./internal/relation/
func BenchmarkJoinAggKernel(b *testing.B) {
	for _, cols := range []int{1, 2} {
		r, s := kernelRels(cols)
		b.Run(fmt.Sprintf("cols=%d", cols), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkRel = JoinAgg(intSR, r, s, "A", "C")
			}
		})
	}
}

func BenchmarkJoinKernel(b *testing.B) {
	for _, cols := range []int{1, 2} {
		r, s := kernelRels(cols)
		b.Run(fmt.Sprintf("cols=%d", cols), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkRel = Join(intSR, r, s)
			}
		})
	}
}
