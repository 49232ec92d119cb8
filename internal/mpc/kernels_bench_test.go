package mpc

import (
	"fmt"
	"math/rand"
	"testing"

	"mpcjoin/internal/relation"
	xrt "mpcjoin/internal/runtime"
)

// kernels_bench_test.go holds the primitive-level benchmarks of the
// allocation-lean kernel work: steady-state Route, SortBy, GroupByKey and
// ReduceByKey at p = 16 over a fixed 16k-element instance. Run with
// -benchmem; bench/'s mpc.*_us and mpc.*_allocs per-layer metrics time the
// same shapes across commits. Those sort bare int64s. The *RowsKernel and
// MultiSearchKernel benchmarks run what the engines run — relation.Row
// payloads under EncodeKey keys — where the cost of moving a fat element
// through a sort shows: SortRowsKernel and MultiSearchKernel under 2- and
// 3-column keys, SemijoinRowsKernel in dist.Semijoin's shape (1-column
// keys) and ReduceByKeyRowsKernel in dist.ProjectAgg's (the projected
// row's 1 or 2 columns are the key, annotations summed).

const (
	benchP = 16
	benchN = 16384
)

func benchPart(n, p int) Part[int64] {
	rng := rand.New(rand.NewSource(42))
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(rng.Intn(n / 4))
	}
	return DistributeIn(nil, data, p)
}

func BenchmarkRouteKernel(b *testing.B) {
	pt := benchPart(benchN, benchP)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, st := Route(pt, func(_ int, x int64) int { return int(uint64(x) % benchP) })
		if res.Len() != benchN || st.Rounds != 1 {
			b.Fatal("route wrong")
		}
	}
}

func BenchmarkRebalanceKernel(b *testing.B) {
	// Skewed input: everything on server 0.
	pt := NewPartIn[int64](nil, benchP)
	pt.Shards[0] = make([]int64, benchN)
	for i := range pt.Shards[0] {
		pt.Shards[0][i] = int64(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := Rebalance(pt)
		if res.Len() != benchN {
			b.Fatal("rebalance wrong")
		}
	}
}

// BenchmarkSortByKernel drives the keyed Sort entry point — the path
// GroupByKey, ReduceByKey and every engine take — which runs the radix
// kernel for this int64 key. BenchmarkSortByFallbackKernel pins the
// comparison path (SortBy) for contrast.
func BenchmarkSortByKernel(b *testing.B) {
	pt := benchPart(benchN, benchP)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := Sort(pt, func(x int64) int64 { return x })
		if res.Len() != benchN {
			b.Fatal("sort wrong")
		}
	}
}

func BenchmarkSortByFallbackKernel(b *testing.B) {
	pt := benchPart(benchN, benchP)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := SortBy(pt, func(a, c int64) bool { return a < c })
		if res.Len() != benchN {
			b.Fatal("sort wrong")
		}
	}
}

func BenchmarkSortRowsKernel(b *testing.B) {
	for _, cols := range []int{2, 3} {
		b.Run(fmt.Sprintf("cols=%d", cols), func(b *testing.B) {
			pt, idx := DistributeIn(nil, fatRows(benchN, cols, 42), benchP), allCols(cols)
			key := func(r relation.Row[int64]) string { return relation.EncodeKey(r.Vals, idx) }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, _ := Sort(pt, key)
				if res.Len() != benchN {
					b.Fatal("sort wrong")
				}
			}
		})
	}
}

func BenchmarkMultiSearchKernel(b *testing.B) {
	for _, cols := range []int{2, 3} {
		b.Run(fmt.Sprintf("cols=%d", cols), func(b *testing.B) {
			xs, idx := DistributeIn(nil, fatRows(benchN, cols, 42), benchP), allCols(cols)
			ys := DistributeIn(nil, fatRows(benchN/4, cols, 43), benchP)
			key := func(r relation.Row[int64]) string { return relation.EncodeKey(r.Vals, idx) }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, _ := MultiSearch(xs, ys, key, key)
				if res.Len() != benchN {
					b.Fatal("multi-search wrong")
				}
			}
		})
	}
}

// domainRows is n rows of arity columns, each value uniform over [0, d),
// with a distinct annotation each.
func domainRows(n, arity, d int, seed int64) []relation.Row[int64] {
	rng := rand.New(rand.NewSource(seed))
	buf := make([]relation.Value, n*arity)
	rows := make([]relation.Row[int64], n)
	for i := range rows {
		vals := buf[i*arity : (i+1)*arity : (i+1)*arity]
		for c := range vals {
			vals[c] = relation.Value(rng.Intn(d))
		}
		rows[i] = relation.Row[int64]{Vals: vals, W: int64(i)}
	}
	return rows
}

func BenchmarkSemijoinRowsKernel(b *testing.B) {
	xs := DistributeIn(nil, domainRows(benchN, 2, benchN/4, 42), benchP)
	ys := DistributeIn(nil, domainRows(benchN/4, 2, benchN/4, 43), benchP)
	idx := []int{0}
	key := func(r relation.Row[int64]) string { return relation.EncodeKey(r.Vals, idx) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := SemijoinKeys(xs, ys, key, key)
		if res.Len() == 0 {
			b.Fatal("semijoin wrong")
		}
	}
}

func BenchmarkReduceByKeyRowsKernel(b *testing.B) {
	// About benchN/4 distinct keys either way: 4096 values in one column,
	// 64 × 64 in two.
	for _, c := range []struct{ cols, d int }{{1, benchN / 4}, {2, 64}} {
		b.Run(fmt.Sprintf("cols=%d", c.cols), func(b *testing.B) {
			pt, idx := DistributeIn(nil, domainRows(benchN, c.cols, c.d, 42), benchP), allCols(c.cols)
			key := func(r relation.Row[int64]) string { return relation.EncodeKey(r.Vals, idx) }
			add := func(a, c relation.Row[int64]) relation.Row[int64] {
				return relation.Row[int64]{Vals: a.Vals, W: a.W + c.W}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, _ := ReduceByKey(pt, key, add)
				if res.Len() == 0 {
					b.Fatal("reduce wrong")
				}
			}
		})
	}
}

func BenchmarkGroupByKeyKernel(b *testing.B) {
	pt := benchPart(benchN, benchP)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := GroupByKey(pt, func(x int64) int64 { return x })
		if res.Len() != benchN {
			b.Fatal("group wrong")
		}
	}
}

func BenchmarkReduceByKeyKernel(b *testing.B) {
	pt := benchPart(benchN, benchP)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := ReduceByKey(pt,
			func(x int64) int64 { return x },
			func(a, c int64) int64 { return a + c })
		if res.Len() == 0 {
			b.Fatal("reduce wrong")
		}
	}
}

// BenchmarkExchangeKernel measures the steady-state exchange alone: the
// outboxes are prebuilt once, so each iteration pays only inbox assembly
// and metering.
func BenchmarkExchangeKernel(b *testing.B) {
	pt := benchPart(benchN, benchP)
	out := make([][][]int64, benchP)
	xrt.Serial().ForEachShard(benchP, func(src int) {
		row := make([][]int64, benchP)
		for _, x := range pt.Shards[src] {
			d := int(uint64(x) % benchP)
			row[d] = append(row[d], x)
		}
		out[src] = row
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, st := ExchangeIn(nil, benchP, out)
		if res.Len() != benchN || st.MaxLoad == 0 {
			b.Fatal("exchange wrong")
		}
	}
}
