package mpc

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
)

// lookupInputs is a random keyed instance: xs with duplicate keys, ys with
// at most one element per key (LookupJoin's contract), over a domain small
// enough that hits, strict predecessors and misses all occur.
func lookupInputs(nx, ny int, seed int64) (xs, ys []KeyCount[int64]) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nx; i++ {
		xs = append(xs, KeyCount[int64]{Key: int64(rng.Intn(40)) - 5, Count: int64(i)})
	}
	for _, k := range rng.Perm(40)[:min(ny, 40)] {
		ys = append(ys, KeyCount[int64]{Key: int64(k) - 5, Count: int64(1000 + k)})
	}
	return xs, ys
}

func kcKey(kc KeyCount[int64]) int64 { return kc.Key }

// TestLookupCallsEachKeyOnce: the scan knows whether a predecessor is an
// exact match from the keys it sorted by, so every form of the lookup calls
// xkey once per x and ykey once per y — not again per result row to ask
// "was it exact?".
func TestLookupCallsEachKeyOnce(t *testing.T) {
	xs, ys := lookupInputs(500, 30, 1)
	forms := map[string]func(x, y Part[KeyCount[int64]], kx, ky func(KeyCount[int64]) int64){
		"Lookup": func(x, y Part[KeyCount[int64]], kx, ky func(KeyCount[int64]) int64) {
			Lookup(x, y, kx, ky, func(a, b KeyCount[int64], found bool) (int64, bool) { return a.Count + b.Count, found })
		},
		"LookupJoin":   func(x, y Part[KeyCount[int64]], kx, ky func(KeyCount[int64]) int64) { LookupJoin(x, y, kx, ky) },
		"SemijoinKeys": func(x, y Part[KeyCount[int64]], kx, ky func(KeyCount[int64]) int64) { SemijoinKeys(x, y, kx, ky) },
		"MultiSearch":  func(x, y Part[KeyCount[int64]], kx, ky func(KeyCount[int64]) int64) { MultiSearch(x, y, kx, ky) },
	}
	for name, run := range forms {
		var nx, ny atomic.Int64
		ex := NewExec(context.Background(), 4)
		run(DistributeIn(ex, xs, 8), DistributeIn(ex, ys, 8),
			func(kc KeyCount[int64]) int64 { nx.Add(1); return kc.Key },
			func(kc KeyCount[int64]) int64 { ny.Add(1); return kc.Key })
		if nx.Load() != int64(len(xs)) || ny.Load() != int64(len(ys)) {
			t.Errorf("%s: xkey called %d times for %d xs, ykey %d times for %d ys", name, nx.Load(), len(xs), ny.Load(), len(ys))
		}
	}
}

// TestReduceByKeyCallsKeyBounded: ReduceByKey reads run boundaries off the
// sort's key image, so key runs once per element in each of the sort's two
// encodes (the local one and the final one) plus O(p²) times outside the
// data — the coordinator's ≤ p² samples and p−1 splitters, each server's
// two edge keys: 2n + p² + 3p − 1 on this all-distinct instance. A
// pre-combine that hashes every key, or a run fold that calls key again,
// adds n per pass (a hash-map pre-combine plus a key-calling fold made it
// 4n + p² + 3p − 1); on the engines' string keys every call is an EncodeKey
// allocation.
func TestReduceByKeyCallsKeyBounded(t *testing.T) {
	const n, p = 8192, 16
	data := make([]KeyCount[int64], n)
	for i, k := range rand.New(rand.NewSource(5)).Perm(n) {
		data[i] = KeyCount[int64]{Key: int64(k), Count: 1}
	}
	var calls atomic.Int64
	ex := NewExec(context.Background(), 4)
	reduced, _ := ReduceByKey(DistributeIn(ex, data, p),
		func(kc KeyCount[int64]) int64 { calls.Add(1); return kc.Key },
		func(a, b KeyCount[int64]) KeyCount[int64] {
			return KeyCount[int64]{Key: a.Key, Count: a.Count + b.Count}
		})
	if reduced.Len() != n {
		t.Fatalf("%d distinct keys reduced to %d", n, reduced.Len())
	}
	if bound := int64(2*n + p*p + 4*p); calls.Load() > bound {
		t.Errorf("key called %d times for %d distinct keys at p=%d, want ≤ 2n + p² + 4p = %d", calls.Load(), n, p, bound)
	}
}

// TestLookupEqualsFilterMapOverLookupJoin pins the fused form to the
// dataflow it replaces: a visitor run inside the scan produces, shard for
// shard and element for element, what Map∘Filter(.Found) over LookupJoin's
// pairs produces, at the same Stats and trace — on either carrier and
// under a fault plane that loses the sort's partition round once.
func TestLookupEqualsFilterMapOverLookupJoin(t *testing.T) {
	type kc = KeyCount[int64]
	visit := func(x, y kc, found bool) (kc, bool) { return kc{Key: x.Count, Count: y.Count}, found && x.Count%3 != 0 }
	scopes := map[string]func() (*Exec, *FaultPlane){
		"in-proc": func() (*Exec, *FaultPlane) { return NewExec(context.Background(), 4), nil },
		"wire":    func() (*Exec, *FaultPlane) { return NewExec(context.Background(), 1).WithWire(&loopWire{}), nil },
		"faulted": func() (*Exec, *FaultPlane) { return execWith(2, &FaultSpec{Seed: 3, CrashRound: 2}) },
	}
	for _, c := range []struct{ nx, ny, p int }{{600, 30, 8}, {600, 30, 1}, {0, 30, 4}, {200, 0, 4}, {0, 0, 3}, {5, 40, 16}} {
		xs, ys := lookupInputs(c.nx, c.ny, int64(c.nx+c.ny+c.p))
		for name, scope := range scopes {
			t.Run(fmt.Sprintf("nx=%d,ny=%d,p=%d/%s", c.nx, c.ny, c.p, name), func(t *testing.T) {
				trWant, trGot := NewTracer(), NewTracer()
				ex := NewExec(context.Background(), 1).WithTracer(trWant)
				pairs, wantSt := LookupJoin(DistributeIn(ex, xs, c.p), DistributeIn(ex, ys, c.p), kcKey, kcKey)
				want := Map(Filter(pairs, func(pr Pred[kc, kc]) bool { _, keep := visit(pr.X, pr.Y, pr.Found); return keep }),
					func(pr Pred[kc, kc]) kc { v, _ := visit(pr.X, pr.Y, pr.Found); return v })

				ex, fp := scope()
				ex = ex.WithTracer(trGot)
				got, gotSt := Lookup(DistributeIn(ex, xs, c.p), DistributeIn(ex, ys, c.p), kcKey, kcKey, visit)
				if gotSt != wantSt {
					t.Errorf("Stats %+v, want %+v", gotSt, wantSt)
				}
				if !reflect.DeepEqual(trGot.Rounds(), trWant.Rounds()) {
					t.Error("traces diverged")
				}
				for s := range want.Shards {
					if !slices.Equal(got.Shards[s], want.Shards[s]) {
						t.Fatalf("shard %d: got %v, want %v", s, got.Shards[s], want.Shards[s])
					}
				}
				if fp != nil && c.nx+c.ny > 0 && fp.Report().Crashes == 0 {
					t.Error("fault plane crashed no round (the test exercises no retry)")
				}
			})
		}
	}
}

// TestMultiSearchKeepsPredecessorSemantics: an x whose nearest y is
// strictly smaller has a predecessor (MultiSearch: Found, keys differ) but
// no match (LookupJoin: not Found, same Y; SemijoinKeys: dropped).
func TestMultiSearchKeepsPredecessorSemantics(t *testing.T) {
	type kc = KeyCount[int64]
	xs := []kc{{Key: 1}, {Key: 5}, {Key: 7}, {Key: 10}}
	ys := []kc{{Key: 3, Count: 30}, {Key: 7, Count: 70}}
	wantPred := []Pred[kc, kc]{
		{X: xs[0]},
		{X: xs[1], Y: ys[0], Found: true},
		{X: xs[2], Y: ys[1], Found: true},
		{X: xs[3], Y: ys[1], Found: true},
	}
	for _, p := range []int{1, 3} {
		preds, _ := MultiSearch(DistributeIn(nil, xs, p), DistributeIn(nil, ys, p), kcKey, kcKey)
		if got := Collect(preds); !slices.Equal(got, wantPred) {
			t.Errorf("p=%d: MultiSearch = %+v, want %+v", p, got, wantPred)
		}
		looked, _ := LookupJoin(DistributeIn(nil, xs, p), DistributeIn(nil, ys, p), kcKey, kcKey)
		for i, pr := range Collect(looked) {
			want := wantPred[i]
			want.Found = want.Found && want.X.Key == want.Y.Key
			if pr != want {
				t.Errorf("p=%d: LookupJoin[%d] = %+v, want %+v", p, i, pr, want)
			}
		}
		semi, _ := SemijoinKeys(DistributeIn(nil, xs, p), DistributeIn(nil, ys, p), kcKey, kcKey)
		if got := Collect(semi); !slices.Equal(got, xs[2:3]) {
			t.Errorf("p=%d: SemijoinKeys = %+v, want %+v", p, got, xs[2:3])
		}
	}
}

// TestSplitEqualsTwoFilterMaps: Split's outputs are the two Filter∘Map
// pairs it replaces, shard for shard, with one call of f per element.
func TestSplitEqualsTwoFilterMaps(t *testing.T) {
	xs, _ := lookupInputs(300, 0, 9)
	for _, p := range []int{1, 7} {
		pt := DistributeIn(NewExec(context.Background(), 4), xs, p)
		pt.Shards[p-1] = nil // an empty shard stays empty on both sides
		var calls atomic.Int64
		yes, no := Split(pt, func(kc KeyCount[int64]) (int64, bool) { calls.Add(1); return kc.Count, kc.Key%2 == 0 })
		if int(calls.Load()) != pt.Len() {
			t.Errorf("p=%d: f called %d times for %d elements", p, calls.Load(), pt.Len())
		}
		count := func(kc KeyCount[int64]) int64 { return kc.Count }
		wantYes := Map(Filter(pt, func(kc KeyCount[int64]) bool { return kc.Key%2 == 0 }), count)
		wantNo := Map(Filter(pt, func(kc KeyCount[int64]) bool { return kc.Key%2 != 0 }), count)
		for s := 0; s < p; s++ {
			if !slices.Equal(yes.Shards[s], wantYes.Shards[s]) || !slices.Equal(no.Shards[s], wantNo.Shards[s]) {
				t.Fatalf("p=%d shard %d: Split = %v | %v, want %v | %v", p, s, yes.Shards[s], no.Shards[s], wantYes.Shards[s], wantNo.Shards[s])
			}
		}
	}
}
