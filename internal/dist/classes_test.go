package dist

import (
	"slices"
	"testing"

	"mpcjoin/internal/mpc"
	"mpcjoin/internal/relation"
)

// degreesOf places arm i's per-value degrees (value → degree) over p
// servers, in ascending value order.
func degreesOf(p int, arms ...map[int64]int64) []mpc.Part[mpc.KeyCount[int64]] {
	out := make([]mpc.Part[mpc.KeyCount[int64]], len(arms))
	for i, arm := range arms {
		var kcs []mpc.KeyCount[int64]
		for b, d := range arm {
			kcs = append(kcs, mpc.KeyCount[int64]{Key: b, Count: d})
		}
		slices.SortFunc(kcs, func(x, y mpc.KeyCount[int64]) int { return int(x.Key - y.Key) })
		out[i] = mpc.DistributeIn(nil, kcs, p)
	}
	return out
}

// TestDegreeOrderClasses: every value's class is computed from ϕ_b — arms in
// ascending degree order, ties broken by arm index — with the sorted
// degrees alongside, once per value, and the per-shard output follows the
// grouped (first-seen) value order rather than map order.
func TestDegreeOrderClasses(t *testing.T) {
	arms := []map[int64]int64{{}, {}, {}}
	want := map[int64][]int{}
	for b := int64(0); b < 300; b++ {
		arms[0][b], arms[1][b], arms[2][b] = 5, 5, 5 // all tied: ϕ_b is the arm order
		want[b] = []int{0, 1, 2}
	}
	arms[0][7], arms[1][7], arms[2][7] = 9, 2, 4 // strict order
	want[7] = []int{1, 2, 0}
	arms[0][8], arms[1][8], arms[2][8] = 3, 1, 3 // tie between arms 0 and 2
	want[8] = []int{1, 0, 2}

	for _, p := range []int{1, 4} {
		classes, st := DegreeOrderClasses(degreesOf(p, arms...), func(order []int, sorted []int64) int64 {
			if !slices.IsSorted(sorted) || len(sorted) != 3 {
				t.Errorf("degrees handed to class out of order: %v", sorted)
			}
			return EncodePerm(order, 3)
		})
		if st.Rounds == 0 {
			t.Fatalf("p=%d: grouping the degrees by value costs rounds, got %+v", p, st)
		}
		seen := 0
		for _, shard := range classes.Shards {
			if !slices.IsSortedFunc(shard, func(x, y ValueClass) int { return int(x.B - y.B) }) {
				t.Fatalf("p=%d: a shard's classes are not in grouped value order", p)
			}
			for _, vc := range shard {
				seen++
				if got := DecodePerm(vc.Class, 3); !slices.Equal(got, want[int64(vc.B)]) {
					t.Fatalf("p=%d: ϕ_%d = %v, want %v", p, vc.B, got, want[int64(vc.B)])
				}
			}
		}
		if seen != len(want) {
			t.Fatalf("p=%d: %d values classified, want %d (one class per value)", p, seen, len(want))
		}
	}
}

// TestTagByClassSelect: the distinct classes come back ascending, every row
// lands in exactly the class of its center value, and rows whose value has
// no class are selected into none.
func TestTagByClassSelect(t *testing.T) {
	const p = 4
	r := relation.New[int64]("A", "B")
	for a := 0; a < 40; a++ {
		r.Append(1, relation.Value(a), relation.Value(a%5)) // B ∈ 0..4
	}
	// B = 0, 3 → class 9; B = 1 → class 2; B = 2, 4 unclassified.
	classes := mpc.DistributeIn(nil, []ValueClass{{B: 0, Class: 9}, {B: 1, Class: 2}, {B: 3, Class: 9}}, p)

	ids, st := DistinctClasses(classes)
	if !slices.Equal(ids, []int64{2, 9}) || st.Rounds == 0 {
		t.Fatalf("DistinctClasses = %v (%+v), want [2 9]", ids, st)
	}

	tagged, _ := TagByClass(FromRelationIn(nil, r, p), "B", classes)
	wantB := map[int64][]relation.Value{2: {1}, 9: {0, 3}, 5: nil}
	for class, bs := range wantB {
		sel := tagged.Select(class)
		if !slices.Equal(sel.Schema, []Attr{"A", "B"}) {
			t.Fatalf("class %d: schema %v", class, sel.Schema)
		}
		rows := ToRelation(sel).Rows
		if len(rows) != 8*len(bs) {
			t.Fatalf("class %d: %d rows, want %d", class, len(rows), 8*len(bs))
		}
		for _, row := range rows {
			if !slices.Contains(bs, row.Vals[1]) {
				t.Fatalf("class %d selected a row of B=%d", class, row.Vals[1])
			}
		}
	}
}
