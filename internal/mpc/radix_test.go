package mpc

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

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
			imgLess := !radixEq(k, a, k, b) && radixLE(k, a, k, b)
			imgEq := radixEq(k, a, k, b)
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
		enc, ok := encodeRadixKeys(ks)
		if !ok || enc.class != -1 || enc.hi != nil {
			t.Fatal("int64 batch must encode to one word")
		}
		checkPairs(t, enc, cmps)
	})
	t.Run("int8-negative", func(t *testing.T) {
		ks := []int8{-128, -1, 0, 1, 127, -1}
		enc, ok := encodeRadixKeys(ks)
		if !ok {
			t.Fatal("int8 batch must encode")
		}
		for i := 0; i+1 < len(ks); i++ {
			if (ks[i] < ks[i+1]) != (!radixEq(enc, i, enc, i+1) && radixLE(enc, i, enc, i+1)) {
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
		enc, ok := encodeRadixKeys(ks)
		if !ok || enc.class != 12 || enc.hi == nil {
			t.Fatalf("12-byte batch must encode two-word, got ok=%v class=%d", ok, enc.class)
		}
		for i := 0; i+1 < len(ks); i++ {
			wantLess := ks[i] < ks[i+1]
			gotLess := !radixEq(enc, i, enc, i+1) && radixLE(enc, i, enc, i+1)
			if wantLess != gotLess {
				t.Fatalf("string order broken at %d: %q vs %q", i, ks[i], ks[i+1])
			}
		}
	})
	t.Run("rejects", func(t *testing.T) {
		if _, ok := encodeRadixKeys([]string{"abc", "de"}); ok {
			t.Fatal("ragged strings must not encode")
		}
		if _, ok := encodeRadixKeys([]string{strings.Repeat("x", 17)}); ok {
			t.Fatal("17-byte strings must not encode")
		}
		if _, ok := encodeRadixKeys([]float64{1, 2}); ok {
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
				lo := make([]uint64, n)
				var hi []uint64
				if wide {
					hi = make([]uint64, n)
				}
				for i := range es {
					k := uint64(rng.Intn(7)) // few distinct keys → many ties
					es[i] = pay{k: k, pos: i}
					if wide {
						hi[i] = k
						lo[i] = 0x55
					} else {
						lo[i] = k
					}
				}
				class := -1
				if wide {
					class = 12
				}
				radixSortKeyed(radixKeys{lo: lo, hi: hi, class: class}, es)
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
					enc, ok := encodeRadixKeys(buf)
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
