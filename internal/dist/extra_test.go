package dist

import (
	"math/rand"
	"testing"

	"mpcjoin/internal/relation"
)

func TestReshapeRel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := randomRel(rng, []Attr{"A", "B"}, 50, 5)
	d := FromRelationIn(nil, r, 12)
	narrow := Reshape(d, 3)
	if narrow.P() != 3 || narrow.N() != 50 {
		t.Fatalf("reshape wrong: P=%d N=%d", narrow.P(), narrow.N())
	}
	if !relation.Equal[int64](intSR, intEq, ToRelation(narrow), r) {
		t.Fatal("reshape changed content")
	}
}

func TestProjectAggSingleColumnStability(t *testing.T) {
	// Values with the high bit patterns that exercise the order-preserving
	// encoding (negative values).
	r := relation.New[int64]("A", "B")
	r.Append(1, -10, 1)
	r.Append(2, -10, 2)
	r.Append(5, 10, 1)
	d := FromRelationIn(nil, r, 4)
	got, _ := ProjectAgg[int64](intSR, d, "A")
	want := relation.New[int64]("A")
	want.Append(3, -10)
	want.Append(5, 10)
	if !relation.Equal[int64](intSR, intEq, ToRelation(got), want) {
		t.Fatalf("negative-value aggregation wrong: %v", ToRelation(got))
	}
}

func TestUnionAggDifferentWidths(t *testing.T) {
	a := relation.New[int64]("A")
	a.Append(1, 5)
	b := relation.New[int64]("A")
	b.Append(2, 5)
	// Different virtual server counts (as after sub-allocations).
	got, _ := UnionAgg[int64](intSR, FromRelationIn(nil, a, 3), FromRelationIn(nil, b, 11))
	want := relation.New[int64]("A")
	want.Append(3, 5)
	if !relation.Equal[int64](intSR, intEq, ToRelation(got), want) {
		t.Fatalf("cross-width union wrong: %v", ToRelation(got))
	}
}

func TestColsPanicsOnMissing(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r := FromRelationIn(nil, relation.New[int64]("A"), 2)
	r.Cols("Z")
}
