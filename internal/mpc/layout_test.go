package mpc

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	xrt "mpcjoin/internal/runtime"
)

// TestLayoutOffsetsArePrefixSums: block b starts at the sum of the sizes
// before it, empty blocks take no servers, and the zero Layout is empty.
func TestLayoutOffsetsArePrefixSums(t *testing.T) {
	var zero Layout
	if zero.Total() != 0 {
		t.Fatalf("zero Layout spans %d servers", zero.Total())
	}
	sizes := []int{3, 0, 2, 0, 0, 5, 1}
	var lay Layout
	at := 0
	for b, sz := range sizes {
		if got := lay.Add(sz); got != b {
			t.Fatalf("Add #%d returned block %d", b, got)
		}
		if lay.off[b] != at {
			t.Fatalf("block %d starts at %d, want %d", b, lay.off[b], at)
		}
		at += sz
	}
	for b, sz := range sizes {
		if lay.Size(b) != sz {
			t.Fatalf("Size(%d) = %d, want %d", b, lay.Size(b), sz)
		}
	}
	if lay.Total() != at {
		t.Fatalf("Total = %d, want %d", lay.Total(), at)
	}
}

// TestRouteBlocksOutOfBlockPanics: an index outside its block — past the
// end, negative, or into an empty block — panics naming the op, even when
// the destination it would land on exists.
func TestRouteBlocksOutOfBlockPanics(t *testing.T) {
	var lay Layout
	a, empty, c := lay.Add(2), lay.Add(0), lay.Add(3)
	for _, bad := range [][2]int{{a, 2}, {a, -1}, {empty, 0}, {c, 3}} {
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, "test.blocks") {
					t.Fatalf("emit(%d, %d): panic %v, want one naming the op", bad[0], bad[1], r)
				}
			}()
			RouteBlocks(nil, lay, "test.blocks", 1, func(int, *xrt.Scratch) func(bool, func(int, int, int)) {
				return func(_ bool, emit func(b, i, x int)) { emit(bad[0], bad[1], 7) }
			})
		}()
	}
}

// TestRouteBlocksEmptyLayoutIsOneServer: a layout with no servers routes
// onto one server, which receives nothing.
func TestRouteBlocksEmptyLayoutIsOneServer(t *testing.T) {
	var lay Layout
	lay.Add(0)
	got, st := RouteBlocks(nil, lay, "test.empty", 3, func(int, *xrt.Scratch) func(bool, func(int, int, int)) { return nil })
	if got.P() != 1 || got.Len() != 0 || st.Rounds != 1 || st.MaxLoad != 0 {
		t.Fatalf("empty layout: P=%d len=%d stats %+v", got.P(), got.Len(), st)
	}
}

// blockCase is a random allocation step: a layout with empty blocks and
// sources that send every element to a few (block, index) cells.
type blockCase struct {
	lay  Layout
	nSrc int
	data [][]int
	cell func(x, k int) (b, i int) // the k-th of x%3+1 cells of x
}

func newBlockCase(seed int64) blockCase {
	rng := rand.New(rand.NewSource(seed))
	var lay Layout
	var live []int
	for range 6 {
		sz := rng.Intn(4)
		if b := lay.Add(sz); sz > 0 {
			live = append(live, b)
		}
	}
	lay.Add(1)
	live = append(live, len(lay.off)-2)
	bc := blockCase{lay: lay, nSrc: 5, data: make([][]int, 5)}
	for src := range bc.data {
		for range rng.Intn(40) {
			bc.data[src] = append(bc.data[src], rng.Intn(1000))
		}
	}
	bc.cell = func(x, k int) (int, int) {
		b := live[(x+k)%len(live)]
		return b, (x * (k + 7)) % lay.Size(b)
	}
	return bc
}

// route runs the case through RouteBlocks.
func (bc blockCase) route(ex *Exec) (Part[int], Stats) {
	return RouteBlocks(ex, bc.lay, "test.route", bc.nSrc, func(src int, _ *xrt.Scratch) func(bool, func(int, int, int)) {
		if len(bc.data[src]) == 0 {
			return nil
		}
		return func(_ bool, emit func(b, i, x int)) {
			for _, x := range bc.data[src] {
				for k := 0; k <= x%3; k++ {
					b, i := bc.cell(x, k)
					emit(b, i, x)
				}
			}
		}
	})
}

// handBuilt is the same round spelled out: a counted outbox per source
// addressed by server number, then ExchangeToIn onto the layout's total.
func (bc blockCase) handBuilt(ex *Exec) (Part[int], Stats) {
	pDst := bc.lay.Total()
	out := make([][][]int, bc.nSrc)
	for src, shard := range bc.data {
		if len(shard) == 0 {
			continue
		}
		out[src] = buildOutbox(nil, flat(pDst), "hand", func(_ bool, emit func(int, int, int)) {
			for _, x := range shard {
				for k := 0; k <= x%3; k++ {
					b, i := bc.cell(x, k)
					emit(0, bc.lay.off[b]+i, x)
				}
			}
		})
	}
	TraceOp(ex, "test.route")
	return ExchangeToIn(ex, pDst, out)
}

// TestRouteBlocksMatchesHandBuilt: the primitive's Part, Stats and trace
// record equal a hand-built outbox and exchange on the same input, on
// either carrier and under a fault plane that drops a message and crashes
// a destination — the retried round lands identical inboxes.
func TestRouteBlocksMatchesHandBuilt(t *testing.T) {
	specs := map[string]*FaultSpec{
		"fault-free":   nil,
		"drop+crash-1": {Seed: 4, CrashRound: 1, DropProb: 0.9, MaxRetries: 12},
	}
	for seed := int64(1); seed <= 8; seed++ {
		bc := newBlockCase(seed)
		trWant := NewTracer()
		want, wantSt := bc.handBuilt(NewExec(context.Background(), 1).WithTracer(trWant))
		for name, spec := range specs {
			for _, carrier := range []string{"in-proc", "wire"} {
				for _, way := range []string{"RouteBlocks", "hand-built"} {
					ex, fp := execWith(2, spec)
					if carrier == "wire" {
						ex = ex.WithWire(&loopWire{})
					}
					tr := NewTracer()
					ex = ex.WithTracer(tr)
					var got Part[int]
					var st Stats
					if way == "RouteBlocks" {
						got, st = bc.route(ex)
					} else {
						got, st = bc.handBuilt(ex)
					}
					label := fmt.Sprintf("seed %d, %s, %s, %s", seed, name, carrier, way)
					if !slices.EqualFunc(got.Shards, want.Shards, slices.Equal[[]int]) {
						t.Fatalf("%s: shards %v, want %v", label, got.Shards, want.Shards)
					}
					if st != wantSt {
						t.Fatalf("%s: stats %+v, want %+v", label, st, wantSt)
					}
					if !reflect.DeepEqual(tr.Rounds(), trWant.Rounds()) {
						t.Fatalf("%s: trace %+v, want %+v", label, tr.Rounds(), trWant.Rounds())
					}
					if spec != nil {
						if rep := fp.Report(); rep.Drops == 0 || rep.Crashes == 0 {
							t.Fatalf("%s: plane dropped %d and crashed %d, want both", label, rep.Drops, rep.Crashes)
						}
					}
				}
			}
		}
	}
}
