package mpc

import (
	"testing"
)

// FuzzReduceByKey feeds arbitrary byte strings as key streams and checks
// the distributed reduce against a map-based fold, across varying server
// counts derived from the input.
func FuzzReduceByKey(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 2, 1}, uint8(4))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7}, uint8(3))
	f.Add([]byte{0, 255, 0, 255, 128}, uint8(9))
	f.Fuzz(func(t *testing.T, keys []byte, pRaw uint8) {
		p := int(pRaw)%16 + 1
		if len(keys) > 4096 {
			keys = keys[:4096]
		}
		data := make([]KeyCount[int64], len(keys))
		want := map[int64]int64{}
		for i, k := range keys {
			data[i] = KeyCount[int64]{Key: int64(k), Count: int64(i + 1)}
			want[int64(k)] += int64(i + 1)
		}
		reduced, st := ReduceByKey(DistributeIn(nil, data, p),
			func(kc KeyCount[int64]) int64 { return kc.Key },
			func(a, b KeyCount[int64]) KeyCount[int64] {
				return KeyCount[int64]{Key: a.Key, Count: a.Count + b.Count}
			})
		got := map[int64]int64{}
		for _, kc := range Collect(reduced) {
			if _, dup := got[kc.Key]; dup {
				t.Fatalf("duplicate key %d in output", kc.Key)
			}
			got[kc.Key] = kc.Count
		}
		if len(got) != len(want) {
			t.Fatalf("key sets differ: %d vs %d", len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("key %d: %d, want %d", k, got[k], v)
			}
		}
		if st.Rounds < 1 && len(keys) > 0 {
			t.Fatal("no rounds metered")
		}
	})
}

// FuzzSortBy checks the distributed sort against the obvious spec on
// arbitrary inputs and server counts.
func FuzzSortBy(f *testing.F) {
	f.Add([]byte{3, 1, 2}, uint8(2))
	f.Add([]byte{5, 5, 5, 5}, uint8(7))
	f.Fuzz(func(t *testing.T, vals []byte, pRaw uint8) {
		p := int(pRaw)%12 + 1
		if len(vals) > 4096 {
			vals = vals[:4096]
		}
		data := make([]int, len(vals))
		for i, v := range vals {
			data[i] = int(v)
		}
		sorted, _ := SortBy(DistributeIn(nil, data, p), func(a, b int) bool { return a < b })
		if sorted.Len() != len(data) {
			t.Fatalf("lost elements: %d vs %d", sorted.Len(), len(data))
		}
		prev := -1
		counts := map[int]int{}
		for _, shard := range sorted.Shards {
			for _, x := range shard {
				if x < prev {
					t.Fatal("not globally sorted")
				}
				prev = x
				counts[x]++
			}
		}
		for _, v := range vals {
			counts[int(v)]--
		}
		for _, c := range counts {
			if c != 0 {
				t.Fatal("multiset changed")
			}
		}
	})
}

// FuzzMultiSearch checks predecessor semantics on arbitrary X/Y sets.
func FuzzMultiSearch(f *testing.F) {
	f.Add([]byte{5, 10, 15}, []byte{7, 12}, uint8(3))
	f.Add([]byte{1}, []byte{}, uint8(2))
	f.Fuzz(func(t *testing.T, xsRaw, ysRaw []byte, pRaw uint8) {
		p := int(pRaw)%8 + 1
		if len(xsRaw) > 1024 {
			xsRaw = xsRaw[:1024]
		}
		if len(ysRaw) > 1024 {
			ysRaw = ysRaw[:1024]
		}
		xs := make([]int, len(xsRaw))
		for i, v := range xsRaw {
			xs[i] = int(v)
		}
		ys := make([]int, len(ysRaw))
		for i, v := range ysRaw {
			ys[i] = int(v)
		}
		preds, _ := MultiSearch(DistributeIn(nil, xs, p), DistributeIn(nil, ys, p),
			func(x int) int { return x }, func(y int) int { return y })
		if preds.Len() != len(xs) {
			t.Fatalf("result count %d, want %d", preds.Len(), len(xs))
		}
		for _, pr := range Collect(preds) {
			best, found := 0, false
			for _, y := range ys {
				if y <= pr.X && (!found || y > best) {
					best, found = y, true
				}
			}
			if found != pr.Found || (found && pr.Y != best) {
				t.Fatalf("pred(%d) = (%d,%v), want (%d,%v)", pr.X, pr.Y, pr.Found, best, found)
			}
		}
	})
}
