package kmv

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestExactBelowK(t *testing.T) {
	s := New(16, 1)
	for i := uint64(0); i < 10; i++ {
		s = s.Insert(i)
		s = s.Insert(i) // duplicates must not count
	}
	if got := s.Estimate(); got != 10 {
		t.Fatalf("estimate = %v, want exactly 10", got)
	}
}

func TestEstimateAccuracy(t *testing.T) {
	// With k=256 the standard error is ~1/√k ≈ 6%; demand within 25% on a
	// handful of seeds to keep the test robust and fast.
	const n = 50000
	for seed := uint64(1); seed <= 5; seed++ {
		s := New(256, seed)
		for i := uint64(0); i < n; i++ {
			s = s.Insert(i * 2654435761) // arbitrary distinct items
		}
		est := s.Estimate()
		if est < 0.75*n || est > 1.25*n {
			t.Fatalf("seed %d: estimate %v too far from %d", seed, est, n)
		}
	}
}

func TestMergeEqualsBulkInsert(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(30) + 2
		hs := uint64(seed)*7 + 3
		a, b, both := New(k, hs), New(k, hs), New(k, hs)
		for i := 0; i < 200; i++ {
			x := uint64(rng.Intn(500))
			if rng.Intn(2) == 0 {
				a = a.Insert(x)
			} else {
				b = b.Insert(x)
			}
			both = both.Insert(x)
		}
		m := Merge(a, b)
		if len(m.Vals) != len(both.Vals) {
			return false
		}
		for i := range m.Vals {
			if m.Vals[i] != both.Vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeAlgebraicLaws(t *testing.T) {
	mk := func(rng *rand.Rand, k int, seed uint64) Sketch {
		s := New(k, seed)
		for i, n := 0, rng.Intn(100); i < n; i++ {
			s = s.Insert(uint64(rng.Intn(300)))
		}
		return s
	}
	eq := func(a, b Sketch) bool {
		if len(a.Vals) != len(b.Vals) {
			return false
		}
		for i := range a.Vals {
			if a.Vals[i] != b.Vals[i] {
				return false
			}
		}
		return true
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(20) + 2
		hs := uint64(seed) ^ 0xabc
		a, b, c := mk(rng, k, hs), mk(rng, k, hs), mk(rng, k, hs)
		if !eq(Merge(a, b), Merge(b, a)) {
			return false
		}
		if !eq(Merge(Merge(a, b), c), Merge(a, Merge(b, c))) {
			return false
		}
		return eq(Merge(a, a), a) // idempotent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSketchValsStaySortedAndBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(10) + 2
		s := New(k, uint64(seed))
		for i := 0; i < 500; i++ {
			s = s.Insert(uint64(rng.Int63()))
			if len(s.Vals) > k {
				return false
			}
			if !sort.SliceIsSorted(s.Vals, func(i, j int) bool { return s.Vals[i] < s.Vals[j] }) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInsertValueSemantics(t *testing.T) {
	s := New(4, 9)
	s1 := s.Insert(1)
	if len(s.Vals) != 0 {
		t.Fatal("Insert mutated the receiver")
	}
	s2 := s1.Insert(2)
	if len(s1.Vals) != 1 || len(s2.Vals) != 2 {
		t.Fatal("value semantics broken")
	}
}

func TestHash64SeedSeparation(t *testing.T) {
	// Different seeds must behave like independent hash functions: the
	// fraction of colliding outputs over a sample should be ≈ 0.
	coll := 0
	for i := uint64(0); i < 1000; i++ {
		if Hash64(i, 1) == Hash64(i, 2) {
			coll++
		}
	}
	if coll > 0 {
		t.Fatalf("%d collisions between seeds", coll)
	}
}

func TestMergeIncompatiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Merge(New(4, 1), New(8, 1))
}

func TestEstimateMedianConvergence(t *testing.T) {
	// Median of several independent estimates should be closer than the
	// worst single estimate — sanity check for the boosting the estimate
	// package applies.
	const n, reps = 20000, 9
	ests := make([]float64, reps)
	for r := range ests {
		s := New(64, uint64(r)+101)
		for i := uint64(0); i < n; i++ {
			s = s.Insert(i)
		}
		ests[r] = s.Estimate()
	}
	sort.Float64s(ests)
	med := ests[reps/2]
	if math.Abs(med-n)/n > 0.3 {
		t.Fatalf("median estimate %v too far from %d", med, n)
	}
}
