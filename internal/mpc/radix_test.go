package mpc

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mpcjoin/internal/relation"
	xrt "mpcjoin/internal/runtime"
)

// radix_test.go pins the radix sorting kernel to the comparison path it
// replaced: every keyed sort must produce bit-identical shard contents,
// shard boundaries and Stats — provenance tie-breaks included — whether
// the batch takes the radix or the comparison route.

// radixDistributions builds the input shapes the radix kernel must handle:
// uniform random, Zipf-skewed (heavy duplicate keys exercising provenance
// tie-breaks), pre-sorted, reverse-sorted, all-equal, and tiny batches
// below the insertion-sort cutoff.
func radixDistributions(n int) map[string][]int64 {
	rng := rand.New(rand.NewSource(7))
	uniform := make([]int64, n)
	for i := range uniform {
		uniform[i] = int64(rng.Intn(n/2)) - int64(n/4) // negatives included
	}
	zipf := make([]int64, n)
	zrng := rand.NewZipf(rand.New(rand.NewSource(9)), 1.3, 1, uint64(n/16))
	for i := range zipf {
		zipf[i] = int64(zrng.Uint64())
	}
	sorted := append([]int64(nil), uniform...)
	slices.Sort(sorted)
	reversed := append([]int64(nil), sorted...)
	slices.Reverse(reversed)
	equal := make([]int64, n)
	for i := range equal {
		equal[i] = 42
	}
	tiny := append([]int64(nil), uniform[:min(n, 9)]...)
	return map[string][]int64{
		"uniform":  uniform,
		"zipf":     zipf,
		"sorted":   sorted,
		"reversed": reversed,
		"allequal": equal,
		"tiny":     tiny,
	}
}

// encodeSlice images a key slice on the heap.
func encodeSlice[K cmp.Ordered](ks []K) (radixKeys, bool) {
	return encodeRadixKeys(len(ks), func(i int) K { return ks[i] }, 0, nil)
}

// TestSortRadixMatchesComparison is the radix-vs-SortFunc equivalence
// sweep: for every distribution, Sort (radix path for int64 keys) must
// reproduce SortBy (comparison path) exactly — per-shard element
// sequences and Stats — under both the serial and a parallel runtime.
// Zipf and all-equal inputs make the outcome depend entirely on the
// (src, idx) provenance tie-breaks, so any stability bug shows up as a
// reordered duplicate.
func TestSortRadixMatchesComparison(t *testing.T) {
	const p = 8
	for name, data := range radixDistributions(4096) {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				ex := ExecOn(nil, xrt.New(workers))
				want, wantSt := SortBy(DistributeIn(ex, data, p), func(a, b int64) bool { return a < b })
				got, gotSt := Sort(DistributeIn(ex, data, p), func(x int64) int64 { return x })
				if gotSt != wantSt {
					t.Fatalf("Stats diverged: radix %+v, comparison %+v", gotSt, wantSt)
				}
				for s := range want.Shards {
					if !slices.Equal(got.Shards[s], want.Shards[s]) {
						t.Fatalf("shard %d diverged:\nradix      %v\ncomparison %v", s, got.Shards[s], want.Shards[s])
					}
				}
			})
		}
	}
}

// TestSortRadixMatchesComparisonStringKeys runs the sweep with string keys
// in the shapes the engines produce (uniform 8- and 16-byte EncodeKey
// strings) plus shapes that force the comparison fallback (ragged and
// > 16-byte keys). All must agree with the comparison path exactly.
func TestSortRadixMatchesComparisonStringKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 2048
	mk := func(f func(i int) string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	inputs := map[string][]string{
		"uniform8": mk(func(i int) string {
			var b [8]byte
			v := uint64(rng.Intn(300))
			for j := range b {
				b[j] = byte(v >> (56 - 8*j))
			}
			return string(b[:])
		}),
		"uniform16": mk(func(i int) string {
			var b [16]byte
			v := uint64(rng.Intn(300))
			for j := 0; j < 8; j++ {
				b[8+j] = byte(v >> (56 - 8*j))
			}
			b[0] = byte(i % 3)
			return string(b[:])
		}),
		"ragged": mk(func(i int) string {
			return strings.Repeat("x", i%5) + fmt.Sprint(rng.Intn(100))
		}),
		"long": mk(func(i int) string {
			return strings.Repeat("k", 17) + fmt.Sprint(rng.Intn(50))
		}),
		"embedded-nul": mk(func(i int) string {
			var b [8]byte
			b[3] = byte(rng.Intn(3))
			return string(b[:])
		}),
	}
	const p = 8
	for name, data := range inputs {
		t.Run(name, func(t *testing.T) {
			want, wantSt := SortBy(DistributeIn(nil, data, p), func(a, b string) bool { return a < b })
			got, gotSt := Sort(DistributeIn(nil, data, p), func(x string) string { return x })
			if gotSt != wantSt {
				t.Fatalf("Stats diverged: radix %+v, comparison %+v", gotSt, wantSt)
			}
			for s := range want.Shards {
				if !slices.Equal(got.Shards[s], want.Shards[s]) {
					t.Fatalf("shard %d diverged", s)
				}
			}
		})
	}
}

// TestSortFloatFallback pins the dispatch decision for non-encodable key
// types: float keys must take the comparison path (bitwise images order
// NaN and -0 differently than <) and still match SortBy.
func TestSortFloatFallback(t *testing.T) {
	if radixEncodable[float64]() {
		t.Fatal("float64 must not be radix-encodable")
	}
	rng := rand.New(rand.NewSource(13))
	data := make([]float64, 1024)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	data[7] = math.Inf(1)
	data[13] = math.Inf(-1)
	data[21] = math.Copysign(0, -1)
	const p = 4
	want, wantSt := SortBy(DistributeIn(nil, data, p), func(a, b float64) bool { return a < b })
	got, gotSt := Sort(DistributeIn(nil, data, p), func(x float64) float64 { return x })
	if gotSt != wantSt {
		t.Fatalf("Stats diverged: %+v vs %+v", gotSt, wantSt)
	}
	for s := range want.Shards {
		if !slices.Equal(got.Shards[s], want.Shards[s]) {
			t.Fatalf("shard %d diverged", s)
		}
	}
}

// TestEncodeRadixKeysOrderPreserving checks the core property of the key
// image: for random pairs of every supported kind, a < b exactly when
// image(a) < image(b) lexicographically, and a == b exactly when the
// images are equal.
func TestEncodeRadixKeysOrderPreserving(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	checkPairs := func(t *testing.T, k radixKeys, cmps []int) {
		t.Helper()
		for i := 0; i+1 < len(cmps); i += 2 {
			a, b := i, i+1
			imgLess := radixCmp(k, a, k, b) < 0
			imgEq := radixCmp(k, a, k, b) == 0
			switch {
			case cmps[i] < cmps[i+1]:
				if !imgLess {
					t.Fatalf("pair %d: a < b but image not less", i/2)
				}
			case cmps[i] == cmps[i+1]:
				if !imgEq {
					t.Fatalf("pair %d: a == b but images differ", i/2)
				}
			default:
				if imgLess || imgEq {
					t.Fatalf("pair %d: a > b but image ≤", i/2)
				}
			}
		}
	}
	t.Run("int64", func(t *testing.T) {
		ks := make([]int64, 512)
		cmps := make([]int, len(ks))
		for i := range ks {
			ks[i] = rng.Int63() - (1 << 62)
		}
		order := append([]int64(nil), ks...)
		slices.Sort(order)
		for i, v := range ks {
			cmps[i], _ = slices.BinarySearch(order, v)
		}
		enc, ok := encodeSlice(ks)
		if !ok || enc.class != -1 || enc.w != 1 {
			t.Fatal("int64 batch must encode to one word")
		}
		checkPairs(t, enc, cmps)
	})
	t.Run("int8-negative", func(t *testing.T) {
		ks := []int8{-128, -1, 0, 1, 127, -1}
		enc, ok := encodeSlice(ks)
		if !ok {
			t.Fatal("int8 batch must encode")
		}
		for i := 0; i+1 < len(ks); i++ {
			if (ks[i] < ks[i+1]) != (radixCmp(enc, i, enc, i+1) < 0) {
				t.Fatalf("int8 order broken at %d", i)
			}
		}
	})
	t.Run("string16", func(t *testing.T) {
		ks := make([]string, 256)
		for i := range ks {
			var b [12]byte
			rng.Read(b[:])
			ks[i] = string(b[:])
		}
		enc, ok := encodeSlice(ks)
		if !ok || enc.class != 12 || enc.w != 2 {
			t.Fatalf("12-byte batch must encode two-word, got ok=%v class=%d", ok, enc.class)
		}
		for i := 0; i+1 < len(ks); i++ {
			wantLess := ks[i] < ks[i+1]
			gotLess := radixCmp(enc, i, enc, i+1) < 0
			if wantLess != gotLess {
				t.Fatalf("string order broken at %d: %q vs %q", i, ks[i], ks[i+1])
			}
		}
	})
	t.Run("rejects", func(t *testing.T) {
		if _, ok := encodeSlice([]string{"abc", "de"}); ok {
			t.Fatal("ragged strings must not encode")
		}
		if _, ok := encodeSlice([]string{strings.Repeat("x", radixMaxKeyBytes)}); !ok {
			t.Fatalf("%d-byte strings must encode", radixMaxKeyBytes)
		}
		if _, ok := encodeSlice([]string{strings.Repeat("x", radixMaxKeyBytes+1)}); ok {
			t.Fatalf("%d-byte strings must not encode", radixMaxKeyBytes+1)
		}
		if _, ok := encodeSlice([]float64{1, 2}); ok {
			t.Fatal("floats must not encode")
		}
	})
}

// TestRadixSortKeyedStable checks stability of the core kernel directly:
// payloads carrying their input position must come out position-ordered
// within equal keys, across the insertion-sort and counting-pass regimes
// and both key widths.
func TestRadixSortKeyedStable(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{0, 1, 2, radixSortCutoff, radixSortCutoff + 1, 1000} {
		for _, wide := range []bool{false, true} {
			t.Run(fmt.Sprintf("n=%d/wide=%v", n, wide), func(t *testing.T) {
				type pay struct {
					k   uint64
					pos int
				}
				es := make([]pay, n)
				img := radixKeys{n: n, w: 1, class: -1}
				if wide {
					img.w, img.class = 2, 12
				}
				img.words = make([]uint64, n*img.w)
				for i := range es {
					k := uint64(rng.Intn(7)) // few distinct keys → many ties
					es[i] = pay{k: k, pos: i}
					img.words[i] = k
					if wide {
						img.words[n+i] = 0x55
					}
				}
				radixSortKeyed(img, es)
				for i := 1; i < n; i++ {
					if es[i-1].k > es[i].k {
						t.Fatalf("not sorted at %d", i)
					}
					if es[i-1].k == es[i].k && es[i-1].pos > es[i].pos {
						t.Fatalf("unstable at %d: pos %d before %d", i, es[i-1].pos, es[i].pos)
					}
				}
			})
		}
	}
}

// permDistributions builds n w-word keys in the shapes sortPerm must
// handle. Only a few low bits of each word vary, so ties and skipped digits
// are common; word 0 is the most significant.
func permDistributions(n, w int) map[string][][]uint64 {
	rng := rand.New(rand.NewSource(int64(31*n + w)))
	zrng := rand.NewZipf(rand.New(rand.NewSource(37)), 1.3, 1, 40)
	mk := func(word func() uint64) [][]uint64 {
		keys := make([][]uint64, n)
		for i := range keys {
			keys[i] = make([]uint64, w)
			for c := range keys[i] {
				keys[i][c] = word()
			}
		}
		return keys
	}
	uniform := mk(func() uint64 { return uint64(rng.Intn(5)) << (8 * uint(rng.Intn(3))) })
	sorted := slices.Clone(uniform)
	slices.SortFunc(sorted, slices.Compare[[]uint64])
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	return map[string][][]uint64{
		"uniform":  uniform,
		"zipf":     mk(zrng.Uint64),
		"sorted":   sorted,
		"reversed": reversed,
		"allequal": mk(func() uint64 { return 42 }),
	}
}

// TestSortPermProperties pins the permutation kernel against a stable
// comparison oracle: for 1–5-word images of every distribution, across the
// insertion and counting-pass regimes, sortPerm returns the stable sorting
// permutation, nil exactly when the input already is in order, and the
// comparison fallback sortPermFunc computes the same permutation.
func TestSortPermProperties(t *testing.T) {
	sc := xrt.GetScratch()
	defer xrt.PutScratch(sc)
	for w := 1; w <= 5; w++ {
		for _, n := range []int{0, 1, 2, radixSortCutoff, radixSortCutoff + 1, 1000} {
			for name, keys := range permDistributions(n, w) {
				t.Run(fmt.Sprintf("w=%d/n=%d/%s", w, n, name), func(t *testing.T) {
					img := radixKeys{n: n, w: w, class: 8 * w, words: make([]uint64, n*w)}
					want := make([]uint32, n)
					for j, k := range keys {
						want[j] = uint32(j)
						for c, v := range k {
							img.words[c*n+j] = v
						}
					}
					cmpAt := func(i, j int) int { return slices.Compare(keys[i], keys[j]) }
					slices.SortStableFunc(want, func(a, b uint32) int { return cmpAt(int(a), int(b)) })
					inOrder := slices.IsSortedFunc(keys, slices.Compare[[]uint64])

					got := img.sortPerm(sc)
					if (got == nil) != inOrder {
						t.Fatalf("sortPerm returned nil=%v for an input with inOrder=%v", got == nil, inOrder)
					}
					if got != nil && !slices.Equal(got, want) {
						t.Fatalf("sortPerm is not the stable sorting permutation")
					}
					if got := sortPermFunc(n, cmpAt, sc); !slices.Equal(got, want) {
						t.Fatalf("sortPermFunc is not the stable sorting permutation")
					}
					sorted := img.sorted(got)
					for i := 1; i < n; i++ {
						if radixCmp(sorted, i-1, sorted, i) > 0 {
							t.Fatalf("sorted image out of order at %d", i)
						}
					}
				})
			}
		}
	}
}

// fatRows builds n rows of arity columns over a small domain (heavy key
// duplication, so provenance tie-breaks decide the order) with a distinct
// annotation each, so a reordered duplicate is visible.
func fatRows(n, arity int, seed int64) []relation.Row[int64] {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]relation.Row[int64], n)
	for i := range rows {
		vals := make([]relation.Value, arity)
		for c := range vals {
			vals[c] = relation.Value(rng.Intn(4) - 1)
		}
		rows[i] = relation.Row[int64]{Vals: vals, W: int64(i)}
	}
	return rows
}

func allCols(arity int) []int {
	idx := make([]int, arity)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func equalRows(a, b []relation.Row[int64]) bool {
	return slices.EqualFunc(a, b, func(x, y relation.Row[int64]) bool {
		return x.W == y.W && slices.Equal(x.Vals, y.Vals)
	})
}

// TestSortEncodeKeyAritiesRadixOnly runs Sort over the engines' key shape —
// relation.EncodeKey strings of 1 to 5 columns, and the 16-column limit —
// on fat rows: shards and Stats must equal SortBy's, and no phase may reach
// a comparison fallback (counted, not read off the code). One column more
// than the limit falls back and still agrees.
func TestSortEncodeKeyAritiesRadixOnly(t *testing.T) {
	const p, n, radixMaxWords = 8, 1500, radixMaxKeyBytes / 8
	for _, arity := range []int{1, 2, 3, 4, 5, radixMaxWords, radixMaxWords + 1} {
		t.Run(fmt.Sprintf("cols=%d", arity), func(t *testing.T) {
			rows, idx := fatRows(n, arity, int64(arity)), allCols(arity)
			key := func(r relation.Row[int64]) string { return relation.EncodeKey(r.Vals, idx) }
			want, wantSt := SortBy(DistributeIn(nil, rows, p), func(a, b relation.Row[int64]) bool { return key(a) < key(b) })
			before := comparisonSorts.Load()
			got, gotSt := Sort(DistributeIn(nil, rows, p), key)
			fallbacks := comparisonSorts.Load() - before
			if encodes := arity <= radixMaxWords; encodes == (fallbacks != 0) {
				t.Errorf("Sort ran %d comparison sorts for a %d-column key", fallbacks, arity)
			}
			if gotSt != wantSt {
				t.Fatalf("Stats diverged: radix %+v, comparison %+v", gotSt, wantSt)
			}
			for s := range want.Shards {
				if !equalRows(got.Shards[s], want.Shards[s]) {
					t.Fatalf("shard %d diverged", s)
				}
			}
		})
	}
}

// TestMultiSearchRadixMatchesComparison pins MultiSearch's radix phases to
// the comparison-only reference: for int64 keys and 1-, 2- and 3-column
// EncodeKey keys over a domain so small that every key has Y/X ties and
// spans several servers, predecessors per shard, Stats and the trace must
// be identical, and the radix run must reach no comparison fallback.
func TestMultiSearchRadixMatchesComparison(t *testing.T) {
	const p = 8
	type row = relation.Row[int64]
	pred := func(x, y row, found bool) (Pred[row, row], bool) {
		return Pred[row, row]{X: x, Y: y, Found: found}, true
	}
	check := func(t *testing.T, run func(ex *Exec, radix bool) (Part[Pred[row, row]], Stats)) {
		t.Helper()
		trWant, trGot := NewTracer(), NewTracer()
		want, wantSt := run(NewExec(context.Background(), 1).WithTracer(trWant), false)
		before := comparisonSorts.Load()
		got, gotSt := run(NewExec(context.Background(), 4).WithTracer(trGot), true)
		if d := comparisonSorts.Load() - before; d != 0 {
			t.Errorf("radix MultiSearch ran %d comparison sorts", d)
		}
		if gotSt != wantSt {
			t.Fatalf("Stats diverged: radix %+v, comparison %+v", gotSt, wantSt)
		}
		if !reflect.DeepEqual(trGot.Rounds(), trWant.Rounds()) {
			t.Fatal("traces diverged")
		}
		for s := range want.Shards {
			if !slices.EqualFunc(got.Shards[s], want.Shards[s], func(a, b Pred[row, row]) bool {
				return a.Found == b.Found && a.X.W == b.X.W && a.Y.W == b.Y.W
			}) {
				t.Fatalf("shard %d diverged", s)
			}
		}
	}
	for arity := 1; arity <= 3; arity++ {
		t.Run(fmt.Sprintf("cols=%d", arity), func(t *testing.T) {
			xs, ys, idx := fatRows(900, arity, 41), fatRows(300, arity, 43), allCols(arity)
			key := func(r row) string { return relation.EncodeKey(r.Vals, idx) }
			check(t, func(ex *Exec, radix bool) (Part[Pred[row, row]], Stats) {
				return multiSearch(DistributeIn(ex, xs, p), DistributeIn(ex, ys, p), key, key, radix, false, pred)
			})
		})
	}
	t.Run("int64", func(t *testing.T) {
		xs, ys := fatRows(900, 1, 47), fatRows(300, 1, 53)
		key := func(r row) int64 { return int64(r.Vals[0]) }
		check(t, func(ex *Exec, radix bool) (Part[Pred[row, row]], Stats) {
			return multiSearch(DistributeIn(ex, xs, p), DistributeIn(ex, ys, p), key, key, radix, false, pred)
		})
	})
}

// TestSortLocalRadixStable checks SortLocal's stable contract on both the
// radix path (int64, uniform strings) and the comparison fallback (ragged
// strings), against a SortStableFunc oracle.
func TestSortLocalRadixStable(t *testing.T) {
	type item struct {
		k   int64
		pos int
	}
	rng := rand.New(rand.NewSource(23))
	items := make([]item, 777)
	for i := range items {
		items[i] = item{k: int64(rng.Intn(50)) - 25, pos: i}
	}
	want := append([]item(nil), items...)
	slices.SortStableFunc(want, func(a, b item) int {
		if a.k != b.k {
			if a.k < b.k {
				return -1
			}
			return 1
		}
		return 0
	})
	SortLocal(items, func(it item) int64 { return it.k })
	if !slices.Equal(items, want) {
		t.Fatal("SortLocal (radix) diverged from the stable oracle")
	}

	type sitem struct {
		k   string
		pos int
	}
	sitems := make([]sitem, 300)
	for i := range sitems {
		sitems[i] = sitem{k: strings.Repeat("a", i%4) + fmt.Sprint(rng.Intn(9)), pos: i}
	}
	swant := append([]sitem(nil), sitems...)
	slices.SortStableFunc(swant, func(a, b sitem) int { return strings.Compare(a.k, b.k) })
	SortLocal(sitems, func(it sitem) string { return it.k })
	if !slices.Equal(sitems, swant) {
		t.Fatal("SortLocal (fallback) diverged from the stable oracle")
	}
}

var sinkInt64 Part[int64]

// TestSortAllocsBounded extends the AllocsPerRun contracts to the radix
// path: one keyed Sort at p = 16 over 16k int64 elements performs a
// bounded constant number of allocations — per shard the tag/key/radix
// buffers (≤ 8) plus the outbox pair, the exchange tables, and the final
// element buffers. 24p + 32 gives headroom without letting a per-element
// regression through (it sits two orders of magnitude below the
// pre-kernel 2318).
func TestSortAllocsBounded(t *testing.T) {
	const p = 16
	pt := benchPart(16384, p)
	key := func(x int64) int64 { return x }
	Sort(pt, key) // warm the scratch pool
	allocs := testing.AllocsPerRun(10, func() {
		sinkInt64, _ = Sort(pt, key)
	})
	bound := float64(24*p + 32)
	if allocs > bound {
		t.Errorf("Sort allocated %.1f times per call at p=%d, want ≤ %.0f", allocs, p, bound)
	}
}

// bytesPerOp is the heap bytes one call of f allocates, averaged over runs
// after a warm-up call (runtime.MemStats.TotalAlloc).
func bytesPerOp(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestKernelBytesBounded is TestSortAllocsBounded's byte-side twin for the
// two kernels that read the sort where it lands, at p = 16. MultiSearch over
// 16k×4k rows under 2-column keys measured 10.58 MB/op while it copied its
// rows into a merged item array and untagged the sorted inbox into a second
// one, and 7.23 MB/op once the local sort builds each item straight into
// its tagged slot and the scan reads the inbox through the permutation.
// ReduceByKey over 16k int64s measured 2.04 MB/op with its hash-map
// pre-combine, untagged copy and regrown run fold, and 1.00 MB/op folding
// the two sorts' runs in place. Each bound sits between its two readings,
// so a merged copy or a map cannot come back unnoticed.
func TestKernelBytesBounded(t *testing.T) {
	const p = 16
	xs := DistributeIn(nil, fatRows(16384, 2, 42), p)
	ys := DistributeIn(nil, fatRows(4096, 2, 43), p)
	idx := allCols(2)
	key := func(r relation.Row[int64]) string { return relation.EncodeKey(r.Vals, idx) }
	ints := benchPart(16384, p)
	for _, c := range []struct {
		name  string
		bound float64
		run   func()
	}{
		{"MultiSearch", 8.5e6, func() { MultiSearch(xs, ys, key, key) }},
		{"ReduceByKey", 1.5e6, func() {
			ReduceByKey(ints, func(x int64) int64 { return x }, func(a, b int64) int64 { return a + b })
		}},
	} {
		if got := bytesPerOp(5, c.run); got > c.bound {
			t.Errorf("%s allocated %.2f MB per call at p=%d, want ≤ %.2f MB", c.name, got/1e6, p, c.bound/1e6)
		}
	}
}

// ---------------------------------------------------------------------------
// Benchmarks
// ---------------------------------------------------------------------------

// BenchmarkRadixVsSortFunc compares the local radix kernel against
// slices.SortFunc on the canonical input shapes, at the shard size the
// cluster kernels see (16k/16 = 1k) and at full 16k. Run with:
//
//	go test -run NONE -bench RadixVsSortFunc -benchmem ./internal/mpc/
func BenchmarkRadixVsSortFunc(b *testing.B) {
	for name, data := range radixDistributions(16384) {
		if name == "tiny" {
			continue
		}
		for _, n := range []int{1024, 16384} {
			in := data[:n]
			b.Run(fmt.Sprintf("radix/%s/n=%d", name, n), func(b *testing.B) {
				buf := make([]int64, n)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(buf, in)
					enc, ok := encodeSlice(buf)
					if !ok {
						b.Fatal("int64 must encode")
					}
					radixSortKeyed(enc, buf)
				}
			})
			b.Run(fmt.Sprintf("sortfunc/%s/n=%d", name, n), func(b *testing.B) {
				buf := make([]int64, n)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(buf, in)
					slices.SortFunc(buf, func(a, c int64) int {
						if a != c {
							if a < c {
								return -1
							}
							return 1
						}
						return 0
					})
				}
			})
		}
	}
}
