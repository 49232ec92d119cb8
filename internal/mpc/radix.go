package mpc

import (
	"cmp"
	"reflect"
	"slices"
	"sync/atomic"
	"unsafe"

	xrt "mpcjoin/internal/runtime"
)

// radix.go is the keyed sorting kernel behind Sort, MultiSearch,
// GroupByKey, ReduceByKey and SortLocal: a stable LSD radix sort over an
// order-preserving image of the keys in uint64 words, replacing the
// comparison sorts those paths used to run. Comparison sorting pays a
// cache-missing indirect call per comparison (O(n log n) of them) and swaps
// whole elements; the radix kernel pays O(n) sequential passes over flat
// word arrays.
//
// Key encoding. A key type K is radix-encodable when an order- and
// equality-preserving mapping onto fixed-width unsigned words exists:
//
//   - signed integers: widen to int64, flip the sign bit (the EncodeKey
//     trick) — one uint64 word;
//   - unsigned integers: widen — one word;
//   - strings: big-endian bytes packed eight to a word, most-significant
//     word first, valid only when every key in the batch has the same
//     length (≤ radixMaxKeyBytes) — zero padding would otherwise merge "a"
//     and "a\x00", breaking injectivity and with it the provenance
//     tie-break order. The engines' keys are relation.EncodeKey strings
//     (exactly 8 bytes per column), so a k-column key is a k-word image.
//
// Everything else — floats (NaN ordering differs between < and a bitwise
// image), long or ragged strings — takes the comparison fallback,
// centralized here so the sort/reduce kernels themselves contain no
// comparison-sort call sites (a guard test pins that).
//
// Two kernels sort by an image. sortPerm sorts a permutation of the batch
// and never touches the elements — the sample sort's kernel, whose elements
// are fat tagged rows that should move once, into their final place.
// radixSortKeyed moves the elements with their words — SortLocal's kernel,
// for small fixed-size entries sorted in place.
//
// Encodability is decided per batch at run time: one reflect.Kind check per
// sort call, then a per-kind word function reading the keys through unsafe
// pointer reinterpretation (no per-element boxing). The decision is purely
// local — every batch is sorted into the same unique (key, provenance)
// total order whether it took the radix or the comparison path, so mixed
// decisions across shards or phases cannot change results.

// RadixKey is the constraint satisfied by key types the radix kernel can
// encode: fixed-width integers and strings. It is a subset of cmp.Ordered
// (floats are excluded). The sort primitives accept all of cmp.Ordered and
// test encodability dynamically; RadixKey documents — and lets callers
// assert statically — which keys take the radix path.
type RadixKey interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr | ~string
}

// radixKeys is the encoded image of one batch of n keys: w words per key,
// most-significant first, compared lexicographically. The words are stored
// column-major — word c of key j is words[c*n+j] — so a sorting pass streams
// one column. class tags the encoding domain: -1 for numeric keys, the
// uniform byte length for string keys. Two batches' images are mutually
// comparable only when their classes and widths match.
type radixKeys struct {
	n, w  int
	words []uint64
	class int
}

// col returns word column c of the image.
func (k radixKeys) col(c int) []uint64 { return k.words[c*k.n : (c+1)*k.n] }

// comparable reports whether k's and o's images order against each other.
func (k radixKeys) comparable(o radixKeys) bool { return k.class == o.class && k.w == o.w }

// radixCmp three-way compares image j of a with image i of b, which must be
// comparable. Injectivity of the encoding (numeric, or uniform-length
// strings of equal class) makes 0 equivalent to key equality.
func radixCmp(a radixKeys, j int, b radixKeys, i int) int {
	for c := 0; c < a.w; c++ {
		if x, y := a.words[c*a.n+j], b.words[c*b.n+i]; x != y {
			if x < y {
				return -1
			}
			return 1
		}
	}
	return 0
}

// sorted returns a heap copy of the image of the keys at positions idx, in
// idx order — a sort permutation, or the heads of its runs; all keys in
// input order when idx is nil: the form that outlives the scratch arena the
// image and idx were carved from.
func (k radixKeys) sorted(idx []uint32) radixKeys {
	out := k
	if idx == nil {
		out.words = slices.Clone(k.words)
		return out
	}
	out.n = len(idx)
	out.words = make([]uint64, out.n*k.w)
	for c := 0; c < k.w; c++ {
		src, dst := k.col(c), out.col(c)
		for i, j := range idx {
			dst[i] = src[j]
		}
	}
	return out
}

const (
	// signFlip maps int64 order onto uint64 order.
	signFlip = uint64(1) << 63

	// radixMaxKeyBytes is the longest string key the kernel images: 16
	// EncodeKey columns. LSD work grows with the bytes on which a batch
	// differs, so past some length a comparison sort, which stops at the
	// first differing byte, is the better kernel.
	radixMaxKeyBytes = 128
)

// numericWord returns K's order-preserving map onto one uint64 word, or nil
// when K is not an integer kind. The kind dispatch happens once per batch;
// the returned function reads its argument through an unsafe pointer (no
// boxing), which is sound because cmp.Ordered admits only types whose
// memory layout is exactly their kind's.
func numericWord[K cmp.Ordered]() func(k K) uint64 {
	switch reflect.TypeFor[K]().Kind() {
	case reflect.Int:
		return func(k K) uint64 { return uint64(int64(*(*int)(unsafe.Pointer(&k)))) ^ signFlip }
	case reflect.Int8:
		return func(k K) uint64 { return uint64(int64(*(*int8)(unsafe.Pointer(&k)))) ^ signFlip }
	case reflect.Int16:
		return func(k K) uint64 { return uint64(int64(*(*int16)(unsafe.Pointer(&k)))) ^ signFlip }
	case reflect.Int32:
		return func(k K) uint64 { return uint64(int64(*(*int32)(unsafe.Pointer(&k)))) ^ signFlip }
	case reflect.Int64:
		return func(k K) uint64 { return uint64(*(*int64)(unsafe.Pointer(&k))) ^ signFlip }
	case reflect.Uint:
		return func(k K) uint64 { return uint64(*(*uint)(unsafe.Pointer(&k))) }
	case reflect.Uint8:
		return func(k K) uint64 { return uint64(*(*uint8)(unsafe.Pointer(&k))) }
	case reflect.Uint16:
		return func(k K) uint64 { return uint64(*(*uint16)(unsafe.Pointer(&k))) }
	case reflect.Uint32:
		return func(k K) uint64 { return uint64(*(*uint32)(unsafe.Pointer(&k))) }
	case reflect.Uint64:
		return func(k K) uint64 { return *(*uint64)(unsafe.Pointer(&k)) }
	case reflect.Uintptr:
		return func(k K) uint64 { return uint64(*(*uintptr)(unsafe.Pointer(&k))) }
	}
	return nil
}

// radixEncodable reports whether K's kind can ever take the radix path
// (string batches additionally require uniform length ≤ radixMaxKeyBytes at
// encode time).
func radixEncodable[K cmp.Ordered]() bool {
	return reflect.TypeFor[K]().Kind() == reflect.String || numericWord[K]() != nil
}

// encodeRadixKeys builds the order-preserving image of the n ≥ 1 keys keyAt
// yields (each index is read exactly once, in order), or reports false when
// the batch is not radix-encodable. extra appends that many zeroed
// least-significant words per key for the caller to fill — how MultiSearch
// makes "Y before X on equal keys" part of the image. The words come from
// sc, or from the heap when sc is nil.
func encodeRadixKeys[K cmp.Ordered](n int, keyAt func(i int) K, extra int, sc *xrt.Scratch) (radixKeys, bool) {
	if reflect.TypeFor[K]().Kind() == reflect.String {
		return encodeStringKeys(n, keyAt, extra, sc)
	}
	word := numericWord[K]()
	if word == nil {
		return radixKeys{}, false
	}
	img := newRadixKeys(n, 1+extra, -1, sc)
	for j := 0; j < n; j++ {
		img.words[j] = word(keyAt(j))
	}
	return img, true
}

func newRadixKeys(n, w, class int, sc *xrt.Scratch) radixKeys {
	img := radixKeys{n: n, w: w, class: class}
	if sc != nil {
		img.words = sc.Words(n * w)
	} else {
		img.words = make([]uint64, n*w)
	}
	return img
}

// encodeStringKeys packs uniform-length string keys (≤ radixMaxKeyBytes)
// big-endian into ⌈length/8⌉ words per key, left-aligned. Uniform length
// makes the zero padding unambiguous — it would otherwise merge "a" and
// "a\x00" — so word order equals string order and equal words mean equal
// strings. Ragged or longer batches report false.
func encodeStringKeys[K cmp.Ordered](n int, keyAt func(i int) K, extra int, sc *xrt.Scratch) (radixKeys, bool) {
	k := keyAt(0)
	length := len(*(*string)(unsafe.Pointer(&k)))
	if length > radixMaxKeyBytes {
		return radixKeys{}, false
	}
	w := (length + 7) / 8
	img := newRadixKeys(n, w+extra, length, sc)
	for j := 0; j < n; j++ {
		if j > 0 {
			k = keyAt(j)
		}
		s := *(*string)(unsafe.Pointer(&k))
		if len(s) != length {
			return radixKeys{}, false
		}
		for c := 0; c < w; c++ {
			img.words[c*n+j] = beWord(s[8*c:])
		}
	}
	return img, true
}

// beWord packs the first 8 bytes of s big-endian into a word, zero-padding
// a shorter s on the right.
func beWord(s string) uint64 {
	if len(s) >= 8 {
		return uint64(s[0])<<56 | uint64(s[1])<<48 | uint64(s[2])<<40 | uint64(s[3])<<32 |
			uint64(s[4])<<24 | uint64(s[5])<<16 | uint64(s[6])<<8 | uint64(s[7])
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		v |= uint64(s[i]) << (56 - 8*i)
	}
	return v
}

// radixSortCutoff is the batch size below which a stable insertion sort on
// the encoded words beats setting up counting passes.
const radixSortCutoff = 48

// sortPerm returns the permutation that stably sorts the batch by its
// image — perm[i] is the input position of the i-th key, equal keys in
// input order — or nil when the input order already is that answer. It is
// the kernel of every sampleSort phase: only 12 bytes per element move per
// pass (index and active word), never the element, however fat. Stability
// is load-bearing: the phases feed batches whose arrival order is the
// (src, idx) provenance order, and stable key-sorting them reproduces the
// full (key, src, idx) total order the comparison path computes.
//
// LSD counting passes, 8-bit digits, least-significant word first. Digits
// on which every key agrees are skipped (one OR-of-XOR scan per word), so
// nearly-uniform key distributions pay almost nothing. The permutation and
// the ping-pong buffers are carved from sc and die with it.
func (k radixKeys) sortPerm(sc *xrt.Scratch) []uint32 {
	n := k.n
	inOrder := true
	for j := 1; j < n && inOrder; j++ {
		inOrder = radixCmp(k, j-1, k, j) <= 0
	}
	if inOrder {
		return nil
	}
	perm := sc.Perm(n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	if n <= radixSortCutoff {
		for i := 1; i < n; i++ {
			j := i - 1
			for ; j >= 0 && radixCmp(k, int(perm[j]), k, i) > 0; j-- {
				perm[j+1] = perm[j]
			}
			perm[j+1] = uint32(i)
		}
		return perm
	}
	permB, cur, curB := sc.Perm(n), sc.Words(n), sc.Words(n)
	for c := k.w - 1; c >= 0; c-- {
		col := k.col(c)
		var diff uint64
		for _, v := range col {
			diff |= v ^ col[0]
		}
		if diff == 0 {
			continue
		}
		for j, i := range perm {
			cur[j] = col[i]
		}
		for shift := uint(0); shift < 64; shift += 8 {
			if (diff>>shift)&0xff == 0 {
				continue
			}
			var count [256]uint32
			for _, v := range cur {
				count[(v>>shift)&0xff]++
			}
			sum := uint32(0)
			for d, cnt := range count {
				count[d] = sum
				sum += cnt
			}
			for j, v := range cur {
				d := (v >> shift) & 0xff
				at := count[d]
				count[d]++
				permB[at], curB[at] = perm[j], v
			}
			perm, permB = permB, perm
			cur, curB = curB, cur
		}
	}
	return perm
}

// permAt reads position i of a sortPerm result, nil being the identity.
func permAt(perm []uint32, i int) int {
	if perm == nil {
		return i
	}
	return int(perm[i])
}

// radixSortKeyed stably sorts es in place by the encoded keys k, moving
// each element together with its key words through ping-pong buffers (k is
// left permuted arbitrarily). It is SortLocal's kernel and deliberately not
// sortPerm's "permute, then gather": SortLocal's callers sort small
// fixed-size entries (spmv's 16-byte vector entries) under one-word keys,
// where moving the element with its word costs about what moving an index
// would, and the gather's extra buffer and pass only add.
func radixSortKeyed[E any](k radixKeys, es []E) {
	n, w := len(es), k.w
	if n != k.n {
		panic("mpc: radixSortKeyed key/element length mismatch")
	}
	if n <= 1 {
		return
	}
	if n <= radixSortCutoff {
		insertionSortKeyed(k, es)
		return
	}
	src, srcE := k.words, es
	var (
		dst    []uint64
		dstE   []E
		passes int
	)
	for c := w - 1; c >= 0; c-- {
		var diff uint64
		for _, v := range src[c*n : (c+1)*n] {
			diff |= v ^ src[c*n]
		}
		for shift := uint(0); shift < 64; shift += 8 {
			if (diff>>shift)&0xff == 0 {
				continue
			}
			if dst == nil {
				dst, dstE = make([]uint64, len(src)), make([]E, n)
			}
			col := src[c*n : (c+1)*n]
			var count [256]int
			for _, v := range col {
				count[(v>>shift)&0xff]++
			}
			sum := 0
			for d, cnt := range count {
				count[d] = sum
				sum += cnt
			}
			if w == 1 {
				for j, v := range col {
					d := (v >> shift) & 0xff
					at := count[d]
					count[d]++
					dstE[at], dst[at] = srcE[j], v
				}
			} else {
				for j, v := range col {
					d := (v >> shift) & 0xff
					at := count[d]
					count[d]++
					dstE[at] = srcE[j]
					for o := 0; o < len(src); o += n {
						dst[o+at] = src[o+j]
					}
				}
			}
			src, dst = dst, src
			srcE, dstE = dstE, srcE
			passes++
		}
	}
	if passes%2 == 1 {
		copy(es, srcE)
	}
}

// insertionSortKeyed is the stable small-batch path of radixSortKeyed:
// each element sinks to its place by adjacent swaps with its key words.
func insertionSortKeyed[E any](k radixKeys, es []E) {
	for i := 1; i < k.n; i++ {
		for j := i; j > 0 && radixCmp(k, j-1, k, j) > 0; j-- {
			es[j-1], es[j] = es[j], es[j-1]
			for o := j; o < len(k.words); o += k.n {
				k.words[o-1], k.words[o] = k.words[o], k.words[o-1]
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Comparison fallbacks
// ---------------------------------------------------------------------------

// sortPermFunc and sortStableFunc are the comparison fallbacks for batches
// the radix kernel cannot encode. They are the only comparison-sort call
// sites serving the sort/reduce kernels — sort.go, reduce.go and
// multisearch.go deliberately contain none
// (TestNoComparisonSortsInHotKernels pins that), so a future edit cannot
// quietly put a hot path back on slices.SortFunc — and they count their
// calls, so a test can assert that a batch which should have encoded never
// reached them.

// comparisonSorts counts the fallback sorts run since process start.
var comparisonSorts atomic.Int64

// sortPermFunc is sortPerm by comparison: the permutation that stably
// sorts n elements under the three-way comparison cmpAt of two positions.
// Ties break by position, which makes the order total (so the unstable
// pdqsort is deterministic) and the result the stable one.
func sortPermFunc(n int, cmpAt func(i, j int) int, sc *xrt.Scratch) []uint32 {
	comparisonSorts.Add(1)
	perm := sc.Perm(n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	slices.SortFunc(perm, func(a, b uint32) int {
		if c := cmpAt(int(a), int(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return perm
}

func sortStableFunc[E any](es []E, cmpf func(a, b E) int) {
	comparisonSorts.Add(1)
	slices.SortStableFunc(es, cmpf)
}
