package estimate

import (
	"testing"

	"mpcjoin/internal/db"
	"mpcjoin/internal/dist"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/refengine"
	"mpcjoin/internal/relation"
)

func TestTagVecDisjointUnion(t *testing.T) {
	// Tagging a set's sketch with two distinct tags yields sketches of two
	// disjoint copies: their merge must estimate exactly 2·|S| while the
	// per-repetition sketches stay unsaturated.
	p := Params{k: 64, reps: 5, Seed: 11}
	v := NewVec(p)
	const m = 20
	for i := uint64(0); i < m; i++ {
		v = v.Insert(i)
	}
	u := MergeVec(TagVec(v, 1), TagVec(v, 2))
	if est := u.Estimate(); est != 2*m {
		t.Fatalf("disjoint tagged union estimate %v, want %d", est, 2*m)
	}
	// The same tag twice is the same set — merging must not double count.
	same := MergeVec(TagVec(v, 7), TagVec(v, 7))
	if est := same.Estimate(); est != m {
		t.Fatalf("idempotent tagged merge estimate %v, want %d", est, m)
	}
}

func TestProductVecCardinality(t *testing.T) {
	p := Params{k: 64, reps: 5, Seed: 4}
	a, b := NewVec(p), NewVec(p)
	for i := uint64(0); i < 5; i++ {
		a = a.Insert(i)
	}
	for i := uint64(100); i < 107; i++ {
		b = b.Insert(i)
	}
	// Unsaturated inputs make the pairwise remix exact: |A × B| = 35 ≤ K.
	if est := ProductVec(a, b).Estimate(); est != 35 {
		t.Fatalf("product estimate %v, want 35", est)
	}
}

// lineInstance is a 3-hop path with full reachability: A1 ∈ {0..4} all
// reach b=0, which reaches c ∈ {0..3}, each reaching d ∈ {0,1}. Output
// (A1, A4) has exactly 5·2 = 10 tuples; every intermediate stays far
// below the default sketch capacity, so the fold is exact.
func lineInstance() (*hypergraph.Query, db.Instance[int64]) {
	q := hypergraph.LineQuery(3)
	r1 := relation.New[int64]("A1", "A2")
	r2 := relation.New[int64]("A2", "A3")
	r3 := relation.New[int64]("A3", "A4")
	for a := 0; a < 5; a++ {
		r1.Append(1, relation.Value(a), 0)
	}
	for c := 0; c < 4; c++ {
		r2.Append(1, 0, relation.Value(c))
	}
	for c := 0; c < 4; c++ {
		for d := 0; d < 2; d++ {
			r3.Append(1, relation.Value(c), relation.Value(d))
		}
	}
	return q, db.Instance[int64]{"R1": r1, "R2": r2, "R3": r3}
}

func TestTreeOutProfileExactSmall(t *testing.T) {
	q, inst := lineInstance()
	wantOut, err := refengine.CountOutput[int64](intSR, q, inst)
	if err != nil {
		t.Fatal(err)
	}
	if wantOut != 10 {
		t.Fatalf("instance lost its shape: OUT = %d, want 10", wantOut)
	}
	const p = 4
	rels := map[string]dist.Rel[int64]{
		"R1": dist.FromRelationIn(nil, inst["R1"], p),
		"R2": dist.FromRelationIn(nil, inst["R2"], p),
		"R3": dist.FromRelationIn(nil, inst["R3"], p),
	}
	out, maxFold, maxImage, _ := TreeOutProfile(q, rels, Params{Seed: 9})
	if out != int64(wantOut) {
		t.Fatalf("OUT = %d, want exact %d (sketches unsaturated)", out, wantOut)
	}
	// The profile notes the root aggregation too, so the largest fold
	// intermediate is never below the output itself.
	if maxFold < out {
		t.Fatalf("maxFold %d < OUT %d", maxFold, out)
	}
	// The largest consumed image on this instance is the A3-keyed one: 4
	// values of c each carrying the 2-element set of reachable d. The
	// root image (keyed by A1) is bigger but is never a fold input.
	if maxImage != 8 {
		t.Fatalf("maxImage = %d, want 8", maxImage)
	}
}

func TestTreeOutProfileAggregationShrinksImages(t *testing.T) {
	// Heavy multiplicity on the middle hop: 60 parallel copies of the
	// b=0 → c edges blow up the un-aggregated fold intermediates, but the
	// aggregated images — distinct output-attribute tuples — are
	// untouched. This gap (maxFold ≫ maxImage ≈ OUT) is exactly the
	// profile early-aggregating engines are priced by.
	q, inst := lineInstance()
	r2 := relation.New[int64]("A2", "A3")
	for rep := 0; rep < 60; rep++ {
		for c := 0; c < 4; c++ {
			r2.Append(1, 0, relation.Value(c))
		}
	}
	inst["R2"] = r2
	const p = 4
	rels := map[string]dist.Rel[int64]{
		"R1": dist.FromRelationIn(nil, inst["R1"], p),
		"R2": dist.FromRelationIn(nil, inst["R2"], p),
		"R3": dist.FromRelationIn(nil, inst["R3"], p),
	}
	out, maxFold, maxImage, _ := TreeOutProfile(q, rels, Params{Seed: 9})
	if out != 10 {
		t.Fatalf("multiplicity must not change OUT: got %d, want 10", out)
	}
	if maxImage != 8 {
		t.Fatalf("multiplicity must not change images: maxImage = %d, want 8", maxImage)
	}
	// The R2 fold now joins 240 tuples against the 2-wide images.
	if maxFold < 100 {
		t.Fatalf("maxFold = %d does not reflect the un-aggregated intermediate", maxFold)
	}
}
