package mpc

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func refReduce(data []KeyCount[int]) map[int]int64 {
	m := map[int]int64{}
	for _, kc := range data {
		m[kc.Key] += kc.Count
	}
	return m
}

func TestReduceByKeyMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500) + 1
		p := rng.Intn(14) + 2
		nkeys := rng.Intn(30) + 1
		data := make([]KeyCount[int], n)
		for i := range data {
			data[i] = KeyCount[int]{Key: rng.Intn(nkeys), Count: int64(rng.Intn(10) + 1)}
		}
		pt := DistributeIn(nil, data, p)
		reduced, _ := ReduceByKey(pt, func(kc KeyCount[int]) int { return kc.Key },
			func(a, b KeyCount[int]) KeyCount[int] { return KeyCount[int]{Key: a.Key, Count: a.Count + b.Count} })

		want := refReduce(data)
		got := map[int]int64{}
		for _, shard := range reduced.Shards {
			for _, kc := range shard {
				if _, dup := got[kc.Key]; dup {
					return false // key must appear exactly once globally
				}
				got[kc.Key] = kc.Count
			}
		}
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceByKeySingleHotKey(t *testing.T) {
	// All n elements share one key: the worst chain case.
	const n, p = 1000, 16
	data := make([]KeyCount[int], n)
	for i := range data {
		data[i] = KeyCount[int]{Key: 42, Count: 1}
	}
	pt := DistributeIn(nil, data, p)
	reduced, st := ReduceByKey(pt, func(kc KeyCount[int]) int { return kc.Key },
		func(a, b KeyCount[int]) KeyCount[int] { return KeyCount[int]{Key: a.Key, Count: a.Count + b.Count} })
	all := Collect(reduced)
	if len(all) != 1 || all[0].Count != n {
		t.Fatalf("hot key reduce = %v", all)
	}
	// After local pre-combine only p elements move; load stays tiny.
	if st.MaxLoad > 4*p {
		t.Fatalf("hot key load %d too high", st.MaxLoad)
	}
}

func TestReduceByKeyAlternatingChains(t *testing.T) {
	// Keys 0..k-1 each appearing on every server: many simultaneous chains.
	const p, k = 8, 5
	pt := NewPartIn[KeyCount[int]](nil, p)
	for s := 0; s < p; s++ {
		for key := 0; key < k; key++ {
			pt.Shards[s] = append(pt.Shards[s], KeyCount[int]{Key: key, Count: 1})
		}
	}
	reduced, _ := ReduceByKey(pt, func(kc KeyCount[int]) int { return kc.Key },
		func(a, b KeyCount[int]) KeyCount[int] { return KeyCount[int]{Key: a.Key, Count: a.Count + b.Count} })
	all := Collect(reduced)
	if len(all) != k {
		t.Fatalf("got %d keys, want %d: %v", len(all), k, all)
	}
	for _, kc := range all {
		if kc.Count != p {
			t.Fatalf("key %d count = %d, want %d", kc.Key, kc.Count, p)
		}
	}
}

func TestReduceByKeyEmpty(t *testing.T) {
	pt := NewPartIn[KeyCount[int]](nil, 4)
	reduced, st := ReduceByKey(pt, func(kc KeyCount[int]) int { return kc.Key },
		func(a, b KeyCount[int]) KeyCount[int] { return a })
	if reduced.Len() != 0 {
		t.Fatal("empty reduce produced data")
	}
	if st.Rounds == 0 {
		t.Fatal("reduce must still run its rounds")
	}
}

func TestReduceByKeyNonCommutativeOrderIndependence(t *testing.T) {
	// combine is commutative+associative per contract; verify the result is
	// independent of the initial distribution.
	rng := rand.New(rand.NewSource(3))
	n := 300
	data := make([]KeyCount[int], n)
	for i := range data {
		data[i] = KeyCount[int]{Key: rng.Intn(7), Count: int64(i)}
	}
	comb := func(a, b KeyCount[int]) KeyCount[int] {
		return KeyCount[int]{Key: a.Key, Count: a.Count + b.Count}
	}
	key := func(kc KeyCount[int]) int { return kc.Key }

	r1, _ := ReduceByKey(DistributeIn(nil, data, 4), key, comb)
	shuffled := append([]KeyCount[int](nil), data...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	r2, _ := ReduceByKey(DistributeIn(nil, shuffled, 9), key, comb)

	m1, m2 := map[int]int64{}, map[int]int64{}
	for _, kc := range Collect(r1) {
		m1[kc.Key] = kc.Count
	}
	for _, kc := range Collect(r2) {
		m2[kc.Key] = kc.Count
	}
	if len(m1) != len(m2) {
		t.Fatalf("key sets differ: %v vs %v", m1, m2)
	}
	for k, v := range m1 {
		if m2[k] != v {
			t.Fatalf("key %d: %d vs %d", k, v, m2[k])
		}
	}
}

func TestCountByKey(t *testing.T) {
	data := []string{"a", "b", "a", "c", "a", "b"}
	pt := DistributeIn(nil, data, 3)
	counts, _ := CountByKey(pt, func(s string) string { return s })
	got := map[string]int64{}
	for _, kc := range Collect(counts) {
		got[kc.Key] = kc.Count
	}
	if got["a"] != 3 || got["b"] != 2 || got["c"] != 1 {
		t.Fatalf("counts = %v", got)
	}
}

func TestTotalCount(t *testing.T) {
	pt := DistributeIn(nil, make([]int, 77), 5)
	total, st := TotalCount(pt)
	if total != 77 {
		t.Fatalf("total = %d", total)
	}
	if st.MaxLoad > 5 {
		t.Fatalf("TotalCount load %d should be O(p)", st.MaxLoad)
	}

	// Several sizes ride the one all-reduce: the same two rounds and loads,
	// one total per Part, and AddVec leaves the servers' vectors alone.
	totals, stN := TotalCounts(pt, DistributeIn(nil, make([]int, 3), 5), NewPartIn[int](nil, 5))
	if len(totals) != 3 || totals[0] != 77 || totals[1] != 3 || totals[2] != 0 || stN != st {
		t.Fatalf("totals %v, stats %+v; want [77 3 0], %+v", totals, stN, st)
	}
	v := []int64{1, 2}
	if acc := AddVec(AddVec(nil, v), v); acc[0] != 2 || acc[1] != 4 || v[0] != 1 || v[1] != 2 {
		t.Fatalf("AddVec: %v, operand %v", acc, v)
	}
}

// TestAllReduce pins the one all-gather → combine: the fold runs in server
// order from the zero value (float sums are order-sensitive), the one round
// is exactly a Broadcast of one unit per server (load p, p² units moved),
// and op labels it — or, empty, leaves Broadcast's own.
func TestAllReduce(t *testing.T) {
	const p = 6
	ex, tr := tracedExec(t)

	sum, st := AllReduce(ex, []int64{5, 0, 7, 1, 0, 9}, Add[int64], "count")
	ones := NewPartIn[int64](nil, p)
	for s := range ones.Shards {
		ones.Shards[s] = []int64{1}
	}
	_, b := Broadcast(ones)
	if sum != 22 || st != b || st.Rounds != 1 || st.MaxLoad != p || st.TotalComm != p*p {
		t.Fatalf("sum %d, stats %+v; want 22, %+v", sum, st, b)
	}

	worst, _ := AllReduce(ex, []float64{0.25, 3, 0, 1.5, 3, 0.5}, func(w, d float64) float64 {
		if d > w {
			return d
		}
		return w
	}, "")
	if worst != 3 {
		t.Fatalf("max = %v", worst)
	}

	// (1e16 + 1) + 1 loses both ones in float64; 1 + 1 + 1e16 keeps them.
	// Only the server-order fold tells the two apart.
	lo, _ := AllReduce(ex, []float64{1e16, 1, 1, 0, 0, 0}, Add[float64], "mass")
	hi, _ := AllReduce(ex, []float64{1, 1, 1e16, 0, 0, 0}, Add[float64], "mass")
	if lo != 1e16 || hi != 1e16+2 {
		t.Fatalf("float fold order: %v, %v", lo, hi)
	}

	var ops []string
	for _, r := range tr.Rounds() {
		ops = append(ops, r.Op)
		if r.Servers != p || r.MaxLoad != p || r.TotalUnits != p*p {
			t.Fatalf("round %+v is not an O(p)-load all-gather", r)
		}
	}
	if want := []string{"count", "broadcast", "mass", "mass"}; !slices.Equal(ops, want) {
		t.Fatalf("round labels %v, want %v", ops, want)
	}
}

func TestSortLocal(t *testing.T) {
	shard := []int{3, 1, 2, 1, 3}
	SortLocal(shard, func(x int) int { return x })
	if !slices.Equal(shard, []int{1, 1, 2, 3, 3}) {
		t.Fatalf("sorted shard = %v", shard)
	}
}

// --- MultiSearch / semijoin ---

func TestMultiSearchMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := rng.Intn(10) + 2
		nx, ny := rng.Intn(200)+1, rng.Intn(50)
		xs := make([]int, nx)
		for i := range xs {
			xs[i] = rng.Intn(100)
		}
		ys := make([]int, ny)
		for i := range ys {
			ys[i] = rng.Intn(100)
		}
		preds, _ := MultiSearch(DistributeIn(nil, xs, p), DistributeIn(nil, ys, p),
			func(x int) int { return x }, func(y int) int { return y })
		if preds.Len() != nx {
			return false
		}
		for _, pr := range Collect(preds) {
			// Brute force predecessor: greatest y ≤ x.
			best, found := 0, false
			for _, y := range ys {
				if y <= pr.X && (!found || y > best) {
					best, found = y, true
				}
			}
			if found != pr.Found {
				return false
			}
			if found && pr.Y != best {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestSemijoinAntijoinKeys(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := rng.Intn(8) + 2
		xs := make([]int, rng.Intn(150)+1)
		for i := range xs {
			xs[i] = rng.Intn(30)
		}
		ys := make([]int, rng.Intn(30))
		for i := range ys {
			ys[i] = rng.Intn(30)
		}
		inY := map[int]bool{}
		for _, y := range ys {
			inY[y] = true
		}
		semi, _ := SemijoinKeys(DistributeIn(nil, xs, p), DistributeIn(nil, ys, p),
			func(x int) int { return x }, func(y int) int { return y })
		kept := 0
		for _, x := range xs {
			if inY[x] {
				kept++
			}
		}
		if semi.Len() != kept {
			return false
		}
		for _, x := range Collect(semi) {
			if !inY[x] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestLookupJoin(t *testing.T) {
	xs := []int{1, 2, 3, 4}
	ys := []KeyCount[int]{{Key: 2, Count: 20}, {Key: 4, Count: 40}}
	res, _ := LookupJoin(DistributeIn(nil, xs, 3), DistributeIn(nil, ys, 3),
		func(x int) int { return x }, func(kc KeyCount[int]) int { return kc.Key })
	found := 0
	for _, pr := range Collect(res) {
		if pr.Found {
			found++
			if pr.Y.Count != int64(pr.X)*10 {
				t.Fatalf("lookup mismatch: %+v", pr)
			}
		}
	}
	if found != 2 {
		t.Fatalf("found = %d, want 2", found)
	}
}

// --- ParallelPack ---

func TestParallelPackInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := rng.Intn(10) + 2
		n := rng.Intn(300) + 1
		cap := int64(rng.Intn(50) + 10)
		data := make([]int64, n)
		var total int64
		for i := range data {
			data[i] = rng.Int63n(cap) + 1
			total += data[i]
		}
		binned, nBins, _ := ParallelPack(DistributeIn(nil, data, p), func(x int64) int64 { return x }, cap)

		sums := map[int]int64{}
		for _, b := range Collect(binned) {
			if b.Bin < 0 || b.Bin >= nBins {
				return false
			}
			sums[b.Bin] += b.X
		}
		var check int64
		for bin, s := range sums {
			if s >= 2*cap {
				return false // each bin total < 2·cap
			}
			_ = bin
			check += s
		}
		if check != total {
			return false
		}
		// Bin count bound: ≤ 1 + ⌈total/cap⌉.
		return int64(nBins) <= 1+(total+cap-1)/cap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelPackIsOneAllGather: packing moves only the p local totals,
// to every server, in one round.
func TestParallelPackIsOneAllGather(t *testing.T) {
	data := make([]int64, 10000)
	for i := range data {
		data[i] = 1
	}
	const p = 16
	_, _, st := ParallelPack(DistributeIn(nil, data, p), func(x int64) int64 { return x }, 100)
	if st.MaxLoad != p || st.TotalComm != p*p {
		t.Fatalf("pack load %d, total %d; want p = %d, p² = %d", st.MaxLoad, st.TotalComm, p, p*p)
	}
	if st.Rounds != 1 {
		t.Fatalf("pack rounds = %d, want 1", st.Rounds)
	}
}
