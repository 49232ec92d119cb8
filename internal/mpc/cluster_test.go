package mpc

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestStatsSeqPar(t *testing.T) {
	a := Stats{Rounds: 2, MaxLoad: 10, TotalComm: 100}
	b := Stats{Rounds: 3, MaxLoad: 7, TotalComm: 50}

	s := Seq(a, b)
	if s.Rounds != 5 || s.MaxLoad != 10 || s.TotalComm != 150 {
		t.Fatalf("Seq = %+v", s)
	}
	p := Par(a, b)
	if p.Rounds != 3 || p.MaxLoad != 10 || p.TotalComm != 150 {
		t.Fatalf("Par = %+v", p)
	}
	if z := Seq(); z != (Stats{}) {
		t.Fatalf("Seq() = %+v", z)
	}
}

func TestSumLoadAccounting(t *testing.T) {
	// Two sequential steps with bottleneck loads 10 and 7: the model's
	// load L (MaxLoad) is the max across rounds, while SumLoad adds the
	// per-round bottlenecks — the distinction this field exists for.
	a := Stats{Rounds: 2, MaxLoad: 10, TotalComm: 100, SumLoad: 12}
	b := Stats{Rounds: 3, MaxLoad: 7, TotalComm: 50, SumLoad: 9}

	s := Seq(a, b)
	if s.MaxLoad != 10 || s.SumLoad != 21 {
		t.Fatalf("Seq: MaxLoad = %d SumLoad = %d, want 10 and 21", s.MaxLoad, s.SumLoad)
	}
	p := Par(a, b)
	if p.MaxLoad != 10 || p.SumLoad != 12 {
		t.Fatalf("Par: MaxLoad = %d SumLoad = %d, want 10 and 12", p.MaxLoad, p.SumLoad)
	}

	// A single Exchange is one round, so its SumLoad is its MaxLoad.
	out := [][][]int{
		{{7}, {1, 2}, nil},
		{nil, nil, nil},
		{nil, {3, 4, 5}, nil},
	}
	_, st := ExchangeIn(nil, 3, out)
	if st.SumLoad != int64(st.MaxLoad) || st.SumLoad != 5 {
		t.Fatalf("Exchange: SumLoad = %d MaxLoad = %d, want both 5", st.SumLoad, st.MaxLoad)
	}

	// Chaining two exchanges: MaxLoad stays at the bottleneck round,
	// SumLoad accumulates across rounds.
	_, st2 := ExchangeIn(nil, 3, [][][]int{
		{{1}, nil, nil},
		{nil, {2, 3}, nil},
		{nil, nil, {4}},
	})
	total := Seq(st, st2)
	if total.MaxLoad != 5 || total.SumLoad != 7 {
		t.Fatalf("Seq of exchanges: MaxLoad = %d SumLoad = %d, want 5 and 7", total.MaxLoad, total.SumLoad)
	}
}

func TestDistributeCollect(t *testing.T) {
	data := make([]int, 103)
	for i := range data {
		data[i] = i
	}
	pt := DistributeIn(nil, data, 8)
	if pt.P() != 8 || pt.Len() != 103 {
		t.Fatalf("P=%d Len=%d", pt.P(), pt.Len())
	}
	if pt.MaxShard() > (103+7)/8 {
		t.Fatalf("MaxShard=%d too large", pt.MaxShard())
	}
	got := Collect(pt)
	sort.Ints(got)
	for i, v := range got {
		if v != i {
			t.Fatalf("Collect lost data at %d: %d", i, v)
		}
	}
}

func TestDistributeEmpty(t *testing.T) {
	pt := DistributeIn(nil, []int(nil), 4)
	if pt.Len() != 0 || pt.P() != 4 {
		t.Fatalf("empty distribute wrong: %+v", pt)
	}
}

func TestExchangeAccounting(t *testing.T) {
	// 3 servers; server 0 sends 2 units to server 1 and 1 to itself;
	// server 2 sends 3 units to server 1.
	out := [][][]int{
		{{7}, {1, 2}, nil},
		{nil, nil, nil},
		{nil, {3, 4, 5}, nil},
	}
	res, st := ExchangeIn(nil, 3, out)
	if st.Rounds != 1 {
		t.Fatalf("rounds = %d", st.Rounds)
	}
	if st.MaxLoad != 5 { // server 1 receives 2+3
		t.Fatalf("maxLoad = %d, want 5", st.MaxLoad)
	}
	if st.TotalComm != 6 {
		t.Fatalf("totalComm = %d, want 6", st.TotalComm)
	}
	if len(res.Shards[1]) != 5 || len(res.Shards[0]) != 1 || len(res.Shards[2]) != 0 {
		t.Fatalf("routing wrong: %v", res.Shards)
	}
	// Order: sources in ascending order, message order preserved.
	want := []int{1, 2, 3, 4, 5}
	for i, v := range res.Shards[1] {
		if v != want[i] {
			t.Fatalf("order wrong: %v", res.Shards[1])
		}
	}
}

func TestRoute(t *testing.T) {
	pt := DistributeIn(nil, []int{0, 1, 2, 3, 4, 5, 6, 7}, 4)
	res, st := Route(pt, func(_ int, x int) int { return x % 4 })
	if st.Rounds != 1 {
		t.Fatalf("rounds = %d", st.Rounds)
	}
	for s, shard := range res.Shards {
		for _, x := range shard {
			if x%4 != s {
				t.Fatalf("element %d on server %d", x, s)
			}
		}
		if len(shard) != 2 {
			t.Fatalf("server %d shard size %d", s, len(shard))
		}
	}
}

func TestBroadcast(t *testing.T) {
	pt := NewPartIn[int](nil, 4)
	pt.Shards[2] = []int{9, 8}
	res, st := Broadcast(pt)
	if st.MaxLoad != 2 {
		t.Fatalf("broadcast load = %d, want 2", st.MaxLoad)
	}
	for s := range res.Shards {
		if len(res.Shards[s]) != 2 {
			t.Fatalf("server %d missing broadcast: %v", s, res.Shards[s])
		}
	}
}

// TestGather: a convergecast is a Route to one destination.
func TestGather(t *testing.T) {
	pt := DistributeIn(nil, []int{1, 2, 3, 4, 5}, 3)
	res, st := Route(pt, func(int, int) int { return 1 })
	if len(res.Shards[1]) != 5 || len(res.Shards[0]) != 0 {
		t.Fatalf("gather wrong: %v", res.Shards)
	}
	if st.MaxLoad != 5 {
		t.Fatalf("gather load = %d", st.MaxLoad)
	}
}

func TestMapFilterFlatMap(t *testing.T) {
	pt := DistributeIn(nil, []int{1, 2, 3, 4}, 2)
	doubled := Map(pt, func(x int) int { return 2 * x })
	if doubled.Len() != 4 {
		t.Fatalf("map len = %d", doubled.Len())
	}
	evens := Filter(doubled, func(x int) bool { return x%4 == 0 })
	if evens.Len() != 2 {
		t.Fatalf("filter len = %d", evens.Len())
	}
}

func TestConcatWidenSlice(t *testing.T) {
	a := DistributeIn(nil, []int{1, 2}, 2)
	b := DistributeIn(nil, []int{3}, 3)
	c := Concat(a, b)
	if c.P() != 5 || c.Len() != 3 {
		t.Fatalf("concat P=%d len=%d", c.P(), c.Len())
	}
	var lay Layout
	lay.Add(2)
	lay.Add(3)
	s := SliceBlocks(c, lay, 0, 1)
	if s.P() != 2 || s.Len() != 2 {
		t.Fatalf("slice wrong")
	}
}

func TestRebalance(t *testing.T) {
	pt := NewPartIn[int](nil, 4)
	pt.Shards[0] = []int{1, 2, 3, 4, 5, 6, 7, 8}
	res, _ := Rebalance(pt)
	if res.MaxShard() != 2 {
		t.Fatalf("rebalance max shard = %d, want 2", res.MaxShard())
	}
	if res.Len() != 8 {
		t.Fatalf("rebalance lost data")
	}
}

// --- Sort ---

func sortedGlobal[T any](pt Part[T], less func(a, b T) bool) bool {
	var prev *T
	for _, shard := range pt.Shards {
		for i := range shard {
			if prev != nil && less(shard[i], *prev) {
				return false
			}
			prev = &shard[i]
		}
	}
	return true
}

func TestSortCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]int, 2000)
	for i := range data {
		data[i] = rng.Intn(500)
	}
	pt := DistributeIn(nil, data, 16)
	sorted, st := Sort(pt, func(x int) int { return x })
	if sorted.Len() != len(data) {
		t.Fatalf("sort lost data: %d vs %d", sorted.Len(), len(data))
	}
	if !sortedGlobal(sorted, func(a, b int) bool { return a < b }) {
		t.Fatal("not globally sorted")
	}
	if st.Rounds != 2 {
		t.Fatalf("sort rounds = %d, want 2", st.Rounds)
	}
	got := Collect(sorted)
	sort.Ints(got)
	want := append([]int(nil), data...)
	sort.Ints(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("sort changed multiset")
		}
	}
}

func TestSortBalancedUnderTotalSkew(t *testing.T) {
	// Every element identical: tie-breaking must still balance shards.
	const n, p = 4096, 16
	data := make([]int, n)
	pt := DistributeIn(nil, data, p)
	sorted, _ := Sort(pt, func(x int) int { return x })
	if m := sorted.MaxShard(); m > 2*n/p+p {
		t.Fatalf("skewed shard %d exceeds 2N/p+p = %d", m, 2*n/p+p)
	}
}

func TestSortLoadBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, p = 8192, 32
	data := make([]int, n)
	for i := range data {
		data[i] = rng.Intn(100) // heavy duplication
	}
	pt := DistributeIn(nil, data, p)
	_, st := Sort(pt, func(x int) int { return x })
	if st.MaxLoad > 2*n/p+p*p {
		t.Fatalf("sort load %d exceeds 2N/p + p² = %d", st.MaxLoad, 2*n/p+p*p)
	}
}

func TestQuickSortByPermutations(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300) + 1
		p := rng.Intn(15) + 2
		data := make([]int, n)
		for i := range data {
			data[i] = rng.Intn(40)
		}
		pt := DistributeIn(nil, data, p)
		sorted, _ := SortBy(pt, func(a, b int) bool { return a < b })
		if sorted.Len() != n || !sortedGlobal(sorted, func(a, b int) bool { return a < b }) {
			return false
		}
		got := Collect(sorted)
		sort.Ints(got)
		want := append([]int(nil), data...)
		sort.Ints(want)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// --- GroupByKey ---

func TestGroupByKeyColocation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(400) + 1
		p := rng.Intn(12) + 2
		data := make([]int, n)
		for i := range data {
			data[i] = rng.Intn(20)
		}
		pt := DistributeIn(nil, data, p)
		grouped, _ := GroupByKey(pt, func(x int) int { return x })
		if grouped.Len() != n {
			return false
		}
		owner := map[int]int{}
		for s, shard := range grouped.Shards {
			for _, x := range shard {
				if o, ok := owner[x]; ok && o != s {
					return false // key on two servers
				}
				owner[x] = s
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupByKeySingleKeyEverywhere(t *testing.T) {
	// One key spanning every server must collapse onto one server.
	const n, p = 64, 8
	data := make([]int, n) // all zeros
	pt := DistributeIn(nil, data, p)
	grouped, _ := GroupByKey(pt, func(x int) int { return x })
	nonEmpty := 0
	for _, shard := range grouped.Shards {
		if len(shard) > 0 {
			nonEmpty++
			if len(shard) != n {
				t.Fatalf("key split: shard has %d of %d", len(shard), n)
			}
		}
	}
	if nonEmpty != 1 {
		t.Fatalf("key on %d servers, want 1", nonEmpty)
	}
}
