package runtime

import (
	"math/rand"
	stdruntime "runtime"
	"sync/atomic"
	"testing"
)

func TestNewSizing(t *testing.T) {
	if got := New(4).Workers(); got != 4 {
		t.Fatalf("New(4).Workers() = %d", got)
	}
	if got := New(0).Workers(); got != stdruntime.GOMAXPROCS(0) {
		t.Fatalf("New(0).Workers() = %d, want GOMAXPROCS", got)
	}
	if Serial().Workers() != 1 {
		t.Fatal("Serial() must have exactly one worker")
	}
	if New(1) != Serial() {
		t.Fatal("New(1) should be the Serial runtime")
	}
}

func TestForEachShardCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 64} {
		for _, n := range []int{0, 1, 2, 7, 100, 1000} {
			rt := New(workers)
			counts := make([]atomic.Int32, n)
			rt.ForEachShard(n, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestForEachShardSerialOrder(t *testing.T) {
	var order []int
	Serial().ForEachShard(5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order = %v", order)
		}
	}
}

func TestForEachShardPanicPropagation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rt := New(workers)
		func() {
			defer func() {
				r := recover()
				if r != "boom" {
					t.Fatalf("workers=%d: recovered %v, want boom", workers, r)
				}
			}()
			rt.ForEachShard(16, func(i int) {
				if i == 3 {
					panic("boom")
				}
			})
		}()
	}
}

// serialExchange is the reference semantics ExchangeCtx must reproduce.
func serialExchange(pDst int, out [][][]int) ([][]int, []int64) {
	shards := make([][]int, pDst)
	recv := make([]int64, pDst)
	for src := range out {
		for dst := range out[src] {
			msg := out[src][dst]
			if len(msg) == 0 {
				continue
			}
			shards[dst] = append(shards[dst], msg...)
			recv[dst] += int64(len(msg))
		}
	}
	return shards, recv
}

func TestExchangeMatchesSerialReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		pSrc := rng.Intn(8) + 1
		pDst := rng.Intn(8) + 1
		out := make([][][]int, pSrc)
		for src := range out {
			out[src] = make([][]int, pDst)
			for dst := range out[src] {
				msg := make([]int, rng.Intn(5))
				for i := range msg {
					msg[i] = rng.Intn(1000)
				}
				if len(msg) > 0 {
					out[src][dst] = msg
				}
			}
		}
		wantShards, wantRecv := serialExchange(pDst, out)
		for _, workers := range []int{1, 2, 8} {
			gotShards, gotRecv, _ := ExchangeCtx(nil, New(workers), pDst, out)
			for dst := 0; dst < pDst; dst++ {
				if gotRecv[dst] != wantRecv[dst] {
					t.Fatalf("workers=%d dst=%d recv=%d want %d", workers, dst, gotRecv[dst], wantRecv[dst])
				}
				if len(gotShards[dst]) != len(wantShards[dst]) {
					t.Fatalf("workers=%d dst=%d shard len %d want %d", workers, dst, len(gotShards[dst]), len(wantShards[dst]))
				}
				for i := range wantShards[dst] {
					if gotShards[dst][i] != wantShards[dst][i] {
						t.Fatalf("workers=%d dst=%d element %d: %d want %d (src-order violated)",
							workers, dst, i, gotShards[dst][i], wantShards[dst][i])
					}
				}
			}
		}
	}
}

func TestExchangeEmptyInboxStaysNil(t *testing.T) {
	out := [][][]int{{nil, {1}}, {nil, {2}}}
	shards, recv, _ := ExchangeCtx(nil, New(4), 2, out)
	if shards[0] != nil || recv[0] != 0 {
		t.Fatalf("empty inbox not nil: %v recv=%d", shards[0], recv[0])
	}
	if len(shards[1]) != 2 || recv[1] != 2 {
		t.Fatalf("inbox 1 wrong: %v recv=%d", shards[1], recv[1])
	}
}

// TestScratchCarvesDisjointZeroed pins the arena contract the sort kernels
// lean on: every carve within one callback — of any element type, across a
// growth of the backing array — is zeroed, capacity-limited and disjoint
// from the others, and a reset hands the same storage out again zeroed.
func TestScratchCarvesDisjointZeroed(t *testing.T) {
	Serial().ForEachShardScratch(2, func(int, *Scratch) {}) // a pooled, used arena
	Serial().ForEachShardScratch(2, func(_ int, sc *Scratch) {
		var words [][]uint64
		var perms [][]uint32
		for n := 1; n <= 512; n *= 2 {
			w, p, is := sc.Words(n), sc.Perm(n), sc.Ints(n)
			if len(w) != n || cap(w) != n || len(p) != n || cap(p) != n || len(is) != n {
				t.Fatalf("carve of %d has len/cap %d/%d, %d/%d, %d", n, len(w), cap(w), len(p), cap(p), len(is))
			}
			for i := range w {
				if w[i] != 0 || p[i] != 0 || is[i] != 0 {
					t.Fatalf("carve of %d not zeroed at %d", n, i)
				}
				w[i], p[i], is[i] = ^uint64(0), ^uint32(0), -1
			}
			words, perms = append(words, w), append(perms, p)
		}
		for k, w := range words {
			for i := range w {
				if w[i] != ^uint64(0) || perms[k][i] != ^uint32(0) {
					t.Fatalf("carve %d was overwritten by a later carve", k)
				}
			}
		}
	})
}
