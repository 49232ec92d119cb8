package relation

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mpcjoin/internal/semiring"
)

var intSR = semiring.IntSumProd{}

func intEq(a, b int64) bool { return a == b }

func mk(t *testing.T, schema []Attr, rows ...[]Value) *Relation[int64] {
	t.Helper()
	r := New[int64](schema...)
	for _, vals := range rows {
		r.Append(1, vals...)
	}
	return r
}

func TestSchemaBasics(t *testing.T) {
	r := New[int64]("A", "B")
	if r.Arity() != 2 || r.Col("A") != 0 || r.Col("B") != 1 || r.Col("C") != -1 {
		t.Fatalf("schema accessors wrong: %v", r.Schema())
	}
	if !r.Has("A") || r.Has("Z") {
		t.Fatal("Has wrong")
	}
	r.Append(7, 1, 2)
	if r.Len() != 1 || r.Rows[0].W != 7 {
		t.Fatalf("Append failed: %v", r)
	}
}

func TestDuplicateSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate attribute")
		}
	}()
	New[int64]("A", "A")
}

func TestArityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on arity mismatch")
		}
	}()
	r := New[int64]("A", "B")
	r.Append(1, 5)
}

func TestJoinBasic(t *testing.T) {
	r := New[int64]("A", "B")
	r.Append(2, 1, 10)
	r.Append(3, 2, 10)
	r.Append(5, 1, 11)
	s := New[int64]("B", "C")
	s.Append(7, 10, 100)
	s.Append(11, 10, 101)
	s.Append(13, 12, 102)

	j := Join[int64](intSR, r, s)
	want := New[int64]("A", "B", "C")
	want.Append(14, 1, 10, 100)
	want.Append(22, 1, 10, 101)
	want.Append(21, 2, 10, 100)
	want.Append(33, 2, 10, 101)
	if !Equal[int64](intSR, intEq, j, want) {
		t.Fatalf("join = %v, want %v", j, want)
	}
}

func TestJoinNoSharedIsCrossProduct(t *testing.T) {
	r := mk(t, []Attr{"A"}, []Value{1}, []Value{2})
	s := mk(t, []Attr{"B"}, []Value{10}, []Value{20}, []Value{30})
	j := Join[int64](intSR, r, s)
	if j.Len() != 6 {
		t.Fatalf("cross product size = %d, want 6", j.Len())
	}
}

func TestJoinAnnotationsMultiply(t *testing.T) {
	r := New[int64]("A", "B")
	r.Append(3, 1, 1)
	s := New[int64]("B", "C")
	s.Append(5, 1, 2)
	j := Join[int64](intSR, r, s)
	if j.Len() != 1 || j.Rows[0].W != 15 {
		t.Fatalf("annotation product wrong: %v", j)
	}
}

func TestSemijoin(t *testing.T) {
	r := New[int64]("A", "B")
	r.Append(1, 1, 10)
	r.Append(1, 2, 20)
	r.Append(1, 3, 30)
	s := New[int64]("B", "C")
	s.Append(1, 10, 0)
	s.Append(1, 30, 0)

	got := Semijoin(r, s)
	want := New[int64]("A", "B")
	want.Append(1, 1, 10)
	want.Append(1, 3, 30)
	if !Equal[int64](intSR, intEq, got, want) {
		t.Fatalf("semijoin = %v, want %v", got, want)
	}
}

func TestSemijoinNoShared(t *testing.T) {
	r := mk(t, []Attr{"A"}, []Value{1})
	sEmpty := New[int64]("B")
	if Semijoin(r, sEmpty).Len() != 0 {
		t.Fatal("semijoin with empty unrelated relation must be empty")
	}
	sFull := mk(t, []Attr{"B"}, []Value{9})
	if Semijoin(r, sFull).Len() != 1 {
		t.Fatal("semijoin with nonempty unrelated relation must keep all rows")
	}
}

func TestProjectAgg(t *testing.T) {
	r := New[int64]("A", "B")
	r.Append(1, 1, 10)
	r.Append(2, 1, 20)
	r.Append(4, 2, 10)
	got := ProjectAgg[int64](intSR, r, "A")
	want := New[int64]("A")
	want.Append(3, 1)
	want.Append(4, 2)
	if !Equal[int64](intSR, intEq, got, want) {
		t.Fatalf("projectAgg = %v, want %v", got, want)
	}
}

func TestProjectAggEmptyAttrsComputesScalar(t *testing.T) {
	r := New[int64]("A")
	r.Append(3, 1)
	r.Append(4, 2)
	got := ProjectAgg[int64](intSR, r)
	if got.Len() != 1 || got.Rows[0].W != 7 {
		t.Fatalf("scalar aggregate = %v, want single row with 7", got)
	}
}

func TestCompactMergesDuplicates(t *testing.T) {
	r := New[int64]("A", "B")
	r.Append(1, 5, 6)
	r.Append(10, 5, 6)
	r.Append(100, 5, 7)
	c := Compact[int64](intSR, r)
	want := New[int64]("A", "B")
	want.Append(11, 5, 6)
	want.Append(100, 5, 7)
	if !Equal[int64](intSR, intEq, c, want) {
		t.Fatalf("compact = %v, want %v", c, want)
	}
}

func TestUnionAgg(t *testing.T) {
	r := New[int64]("A")
	r.Append(1, 5)
	s := New[int64]("A")
	s.Append(2, 5)
	s.Append(3, 6)
	got := UnionAgg[int64](intSR, r, s)
	want := New[int64]("A")
	want.Append(3, 5)
	want.Append(3, 6)
	if !Equal[int64](intSR, intEq, got, want) {
		t.Fatalf("unionAgg = %v, want %v", got, want)
	}
}

func TestRenameAndReorder(t *testing.T) {
	r := New[int64]("A", "B")
	r.Append(1, 1, 2)
	ro := Reorder(r, []Attr{"B", "A"})
	if ro.Rows[0].Vals[0] != 2 || ro.Rows[0].Vals[1] != 1 {
		t.Fatalf("reorder failed: %v", ro)
	}
}

func TestDistinctAndDegrees(t *testing.T) {
	r := New[int64]("A", "B")
	r.Append(1, 1, 10)
	r.Append(1, 1, 20)
	r.Append(1, 2, 10)
	deg := Degrees(r, "A")
	if deg[1] != 2 || deg[2] != 1 {
		t.Fatalf("degrees = %v", deg)
	}
}

func TestEqualOrderInsensitive(t *testing.T) {
	r := New[int64]("A", "B")
	r.Append(1, 1, 2)
	r.Append(2, 3, 4)
	s := New[int64]("B", "A")
	s.Append(2, 4, 3)
	s.Append(1, 2, 1)
	if !Equal[int64](intSR, intEq, r, s) {
		t.Fatal("Equal must be attribute-order and row-order insensitive")
	}
	s.Append(1, 9, 9)
	if Equal[int64](intSR, intEq, r, s) {
		t.Fatal("Equal must detect extra rows")
	}
}

// Property: join is commutative up to schema reordering and annotation
// equality, for the integer semiring on random instances.
func TestQuickJoinCommutative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRel(rng, []Attr{"A", "B"}, 30, 8)
		s := randomRel(rng, []Attr{"B", "C"}, 30, 8)
		rs := Join[int64](intSR, r, s)
		sr2 := Join[int64](intSR, s, r)
		return Equal[int64](intSR, intEq, rs, sr2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: π̂_A(r ⋈ s) aggregates to the same totals as brute-force
// enumeration.
func TestQuickProjectAggMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRel(rng, []Attr{"A", "B"}, 25, 6)
		s := randomRel(rng, []Attr{"B", "C"}, 25, 6)
		got := ProjectAgg[int64](intSR, Join[int64](intSR, r, s), "A", "C")

		// Brute force.
		want := New[int64]("A", "C")
		for _, t1 := range r.Rows {
			for _, t2 := range s.Rows {
				if t1.Vals[1] == t2.Vals[0] {
					want.Append(t1.W*t2.W, t1.Vals[0], t2.Vals[1])
				}
			}
		}
		want = Compact[int64](intSR, want)
		return Equal[int64](intSR, intEq, got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: semijoin is idempotent and a filter: r ⋉ s ⊆ r and
// (r ⋉ s) ⋉ s = r ⋉ s.
func TestQuickSemijoinIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRel(rng, []Attr{"A", "B"}, 30, 6)
		s := randomRel(rng, []Attr{"B", "C"}, 30, 6)
		once := Semijoin(r, s)
		twice := Semijoin(once, s)
		return once.Len() <= r.Len() && Equal[int64](intSR, intEq, once, twice)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func randomRel(rng *rand.Rand, schema []Attr, n, dom int) *Relation[int64] {
	r := New[int64](schema...)
	for i := 0; i < n; i++ {
		vals := make([]Value, len(schema))
		for j := range vals {
			vals[j] = Value(rng.Intn(dom))
		}
		r.AppendRow(Row[int64]{Vals: vals, W: int64(rng.Intn(5) + 1)})
	}
	return r
}

func FuzzEncodeDecodeKey(f *testing.F) {
	f.Add(int64(0), int64(-5), int64(1<<40))
	f.Fuzz(func(t *testing.T, a, b, c int64) {
		vals := []Value{Value(a), Value(b), Value(c)}
		enc := EncodeKey(vals, []int{0, 1, 2})
		dec := DecodeKey(enc)
		if len(dec) != 3 || dec[0] != vals[0] || dec[1] != vals[1] || dec[2] != vals[2] {
			t.Fatalf("roundtrip failed: %v -> %v", vals, dec)
		}
		// Order preservation on the first column.
		if a < b {
			e1 := EncodeKey([]Value{Value(a)}, []int{0})
			e2 := EncodeKey([]Value{Value(b)}, []int{0})
			if !(e1 < e2) {
				t.Fatalf("order not preserved: %d vs %d", a, b)
			}
		}
	})
}
