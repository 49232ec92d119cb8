package mpc

import (
	"math/rand"
	"testing"
	"testing/quick"

	xrt "mpcjoin/internal/runtime"
)

func TestExchangeToRectangular(t *testing.T) {
	// 2 sources, 5 destinations.
	out := [][][]int{
		{{1}, nil, {2, 3}, nil, nil},
		{nil, nil, {4}, nil, {5}},
	}
	res, st := ExchangeToIn(nil, 5, out)
	if res.P() != 5 {
		t.Fatalf("P = %d", res.P())
	}
	if st.MaxLoad != 3 { // destination 2 receives 3 units
		t.Fatalf("maxLoad = %d", st.MaxLoad)
	}
	if st.TotalComm != 5 || st.Rounds != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if len(res.Shards[2]) != 3 || res.Shards[2][0] != 2 || res.Shards[2][2] != 4 {
		t.Fatalf("dest 2 = %v", res.Shards[2])
	}
}

// routeTo replicates onto a wider server set the way engines do (grid
// joins, per-group blocks): one RouteBlocks block of pDst servers, each
// element emitted to every index dests names.
func routeTo(pt Part[int], pDst int, dests func(x int) []int) (Part[int], Stats) {
	var lay Layout
	blk := lay.Add(pDst)
	return RouteBlocks(nil, lay, "routeTo", pt.P(), func(src int, _ *xrt.Scratch) func(bool, func(int, int, int)) {
		return func(_ bool, emit func(b, i, x int)) {
			for _, x := range pt.Shards[src] {
				for _, d := range dests(x) {
					emit(blk, d, x)
				}
			}
		}
	})
}

func TestRouteToReplication(t *testing.T) {
	pt := DistributeIn(nil, []int{1, 2, 3}, 2)
	// Every element goes to destinations 0 and 2 of a 3-server target.
	res, st := routeTo(pt, 3, func(int) []int { return []int{0, 2} })
	if len(res.Shards[0]) != 3 || len(res.Shards[2]) != 3 || len(res.Shards[1]) != 0 {
		t.Fatalf("replication wrong: %v", res.Shards)
	}
	if st.TotalComm != 6 || st.MaxLoad != 3 || st.Rounds != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRouteToOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pt := DistributeIn(nil, []int{1}, 1)
	routeTo(pt, 2, func(int) []int { return []int{7} })
}

func TestReshape(t *testing.T) {
	pt := NewPartIn[int](nil, 5)
	for s := 0; s < 5; s++ {
		pt.Shards[s] = []int{s}
	}
	r := Reshape(pt, 2)
	if r.P() != 2 || r.Len() != 5 {
		t.Fatalf("reshape wrong: %v", r.Shards)
	}
	// s mod 2 placement: shards 0,2,4 → 0; 1,3 → 1.
	if len(r.Shards[0]) != 3 || len(r.Shards[1]) != 2 {
		t.Fatalf("placement wrong: %v", r.Shards)
	}
	// Same-width reshape is the identity (no copy).
	same := Reshape(pt, 5)
	if same.P() != 5 || same.Len() != 5 {
		t.Fatal("identity reshape wrong")
	}
	// Widening reshape spreads onto more servers.
	wide := Reshape(pt, 9)
	if wide.P() != 9 || wide.Len() != 5 {
		t.Fatal("widening reshape wrong")
	}
}

func TestQuickReshapePreservesMultiset(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200)
		data := make([]int, n)
		for i := range data {
			data[i] = rng.Intn(50)
		}
		pt := DistributeIn(nil, data, rng.Intn(10)+1)
		r := Reshape(pt, rng.Intn(10)+1)
		if r.Len() != n {
			return false
		}
		count := map[int]int{}
		for _, x := range Collect(r) {
			count[x]++
		}
		for _, x := range data {
			count[x]--
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSortNegativeKeys(t *testing.T) {
	data := []int{5, -3, 0, -100, 42, -3}
	sorted, _ := Sort(DistributeIn(nil, data, 3), func(x int) int { return x })
	got := Collect(sorted)
	want := []int{-100, -3, -3, 0, 5, 42}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted = %v", got)
		}
	}
}

func TestSortStringKeys(t *testing.T) {
	data := []string{"pear", "apple", "fig", "apple", "banana"}
	sorted, _ := Sort(DistributeIn(nil, data, 2), func(s string) string { return s })
	got := Collect(sorted)
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("not sorted: %v", got)
		}
	}
}

func TestSortBySingleServer(t *testing.T) {
	// p = 1 must work (degenerate splitters).
	data := []int{3, 1, 2}
	sorted, st := SortBy(DistributeIn(nil, data, 1), func(a, b int) bool { return a < b })
	got := Collect(sorted)
	if got[0] != 1 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
	if st.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", st.Rounds)
	}
}

func TestBroadcastEmpty(t *testing.T) {
	pt := NewPartIn[int](nil, 3)
	res, st := Broadcast(pt)
	if res.Len() != 0 || st.MaxLoad != 0 {
		t.Fatal("empty broadcast wrong")
	}
}

func TestMapShards(t *testing.T) {
	pt := DistributeIn(nil, []int{1, 2, 3, 4}, 2)
	sums := MapShards(pt, func(s int, shard []int) []int {
		total := 0
		for _, x := range shard {
			total += x
		}
		return []int{total}
	})
	if sums.Len() != 2 {
		t.Fatalf("sums = %v", sums.Shards)
	}
	if sums.Shards[0][0]+sums.Shards[1][0] != 10 {
		t.Fatalf("sums = %v", sums.Shards)
	}
}

func TestGroupByKeyEmptyAndSingle(t *testing.T) {
	empty := NewPartIn[int](nil, 4)
	res, _ := GroupByKey(empty, func(x int) int { return x })
	if res.Len() != 0 {
		t.Fatal("empty group wrong")
	}
	single := DistributeIn(nil, []int{7}, 4)
	res2, _ := GroupByKey(single, func(x int) int { return x })
	if res2.Len() != 1 {
		t.Fatal("single group wrong")
	}
}
