package mpc

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// The boundary fix-ups of MultiSearch and ReduceByKey ride the sample
// sort's partition round. These tests pin what that round must deliver:
// every X its global predecessor, every key whole on the server a
// tie-broken sort gives its first copy — in three rounds.

type kc = KeyCount[int64]

// straddlingInput is a multi-search instance built to stress the carry:
// k Y keys with m equal-keyed copies each (distinct payloads, so the wrong
// copy is visible), Xs on every server at every key and between them, and
// Ys only on servers s with s%3 != 1 — those hold Xs alone. Shards are
// listed server-major, which is the input order the sort ties break by.
func straddlingInput(p, k, m int, seed int64) (xs, ys [][]kc) {
	rng := rand.New(rand.NewSource(seed))
	xs, ys = make([][]kc, p), make([][]kc, p)
	yServers := []int{}
	for s := 0; s < p; s++ {
		if s%3 != 1 || p == 1 {
			yServers = append(yServers, s)
		}
	}
	payload := int64(0)
	for key := 0; key < k; key++ {
		for c := 0; c < m; c++ {
			s := yServers[rng.Intn(len(yServers))]
			payload++
			ys[s] = append(ys[s], kc{Key: int64(3 * key), Count: 1000 + payload})
		}
	}
	for i := 0; i < 6*k*p; i++ {
		s := rng.Intn(p)
		xs[s] = append(xs[s], kc{Key: int64(rng.Intn(3*k+4)) - 2, Count: int64(i)})
	}
	return xs, ys
}

// bruteForcePreds is MultiSearch by definition: each x, in (key, input)
// order, with the greatest y in (key, input) order whose key is ≤ x's.
func bruteForcePreds(xs, ys [][]kc) []Pred[kc, kc] {
	allX, allY := slices.Concat(xs...), slices.Concat(ys...)
	slices.SortStableFunc(allX, func(a, b kc) int { return cmp.Compare(a.Key, b.Key) })
	var out []Pred[kc, kc]
	for _, x := range allX {
		pr := Pred[kc, kc]{X: x}
		for _, y := range allY {
			if y.Key <= x.Key && (!pr.Found || y.Key >= pr.Y.Key) {
				pr.Y, pr.Found = y, true
			}
		}
		out = append(out, pr)
	}
	return out
}

func partOf(ex *Exec, shards [][]kc) Part[kc] {
	pt := NewPartIn[kc](ex, len(shards))
	for s, shard := range shards {
		pt.Shards[s] = slices.Clone(shard)
	}
	return pt
}

// TestMultiSearchCarriesPredecessorsAcrossBuckets: equal-keyed Ys
// straddle every bucket boundary and some servers hold no Y, yet every X
// gets its predecessor from what landed with its bucket. The result is
// brute force's, and shard for shard, with the same Stats and trace, the
// comparison-only sort's — on the in-process carrier, over a wire, and
// under a plane that loses the partition round once.
func TestMultiSearchCarriesPredecessorsAcrossBuckets(t *testing.T) {
	pred := func(x, y kc, found bool) (Pred[kc, kc], bool) { return Pred[kc, kc]{X: x, Y: y, Found: found}, true }
	scopes := map[string]func() (*Exec, *FaultPlane){
		"in-proc": func() (*Exec, *FaultPlane) { return NewExec(context.Background(), 4), nil },
		"wire":    func() (*Exec, *FaultPlane) { return NewExec(context.Background(), 1).WithWire(&loopWire{}), nil },
		"faulted": func() (*Exec, *FaultPlane) { return execWith(2, &FaultSpec{Seed: 7, CrashRound: 2}) },
	}
	cases := []struct{ p, k, m int }{{1, 6, 3}, {2, 6, 5}, {16, 12, 33}, {16, 1, 2}}
	for _, c := range cases {
		xs, ys := straddlingInput(c.p, c.k, c.m, int64(c.p*100+c.k))
		if c.k == 1 { // fewer elements than servers: most buckets are empty
			xs, ys = [][]kc{{{Key: 5}}, {{Key: -1, Count: 1}}, {{Key: 0, Count: 2}}}, [][]kc{{{Key: 0, Count: 7}}, nil, {{Key: 0, Count: 8}}}
			xs, ys = append(xs, make([][]kc, c.p-3)...), append(ys, make([][]kc, c.p-3)...)
		}
		want := bruteForcePreds(xs, ys)
		for name, scope := range scopes {
			t.Run(fmt.Sprintf("p=%d,k=%d/%s", c.p, c.k, name), func(t *testing.T) {
				trRef, trGot := NewTracer(), NewTracer()
				exRef := NewExec(context.Background(), 1).WithTracer(trRef)
				ref, refSt := multiSearch(partOf(exRef, xs), partOf(exRef, ys), kcKey, kcKey, false, false, pred)
				ex, fp := scope()
				ex = ex.WithTracer(trGot)
				got, st := multiSearch(partOf(ex, xs), partOf(ex, ys), kcKey, kcKey, true, false, pred)
				if g := Collect(got); !slices.Equal(g, want) {
					t.Fatalf("predecessors differ from brute force:\n got %v\nwant %v", g, want)
				}
				for s := range ref.Shards {
					if !slices.Equal(got.Shards[s], ref.Shards[s]) {
						t.Fatalf("shard %d differs from the comparison-only sort's", s)
					}
				}
				if st != refSt || !reflect.DeepEqual(trGot.Rounds(), trRef.Rounds()) {
					t.Errorf("Stats %+v / trace differ from the comparison-only sort's %+v", st, refSt)
				}
				if st.Rounds != 2 {
					t.Errorf("%d rounds, want 2", st.Rounds)
				}
				if fp != nil && fp.Report().Crashes == 0 {
					t.Error("the fault plane lost no round (the test exercises no retry)")
				}
			})
		}
	}
}

// precombined is what ReduceByKey's local sort leaves on each server: the
// shard stably sorted by key, each run folded left into one element.
func precombined(shards [][]kc) [][]kc {
	out := make([][]kc, len(shards))
	for s, shard := range shards {
		sorted := slices.Clone(shard)
		slices.SortStableFunc(sorted, func(a, b kc) int { return cmp.Compare(a.Key, b.Key) })
		for _, x := range sorted {
			if n := len(out[s]); n > 0 && out[s][n-1].Key == x.Key {
				out[s][n-1].Count += x.Count
			} else {
				out[s] = append(out[s], x)
			}
		}
	}
	return out
}

// TestReduceByKeyKeepsKeysWhole: ReduceByKey's partition round lands every
// key on one server — the one where a tie-broken sort of the same
// pre-combined shards puts the key's first copy, which is where stitching
// straddling runs used to leave it — in two rounds, at most 2p−1 units
// above that sort's partition load. Instances run from fewer elements than
// servers (repeated splitters) to one hot key and many straddling keys.
func TestReduceByKeyKeepsKeysWhole(t *testing.T) {
	add := func(a, b kc) kc { return kc{Key: a.Key, Count: a.Count + b.Count} }
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := []int{1, 2, 3, 5, 8, 16}[rng.Intn(6)]
		n, keys := rng.Intn(12*p+1), 1+rng.Intn(3*p+1)
		if seed%2 == 1 { // fewer elements than servers: splitters repeat
			n, keys = rng.Intn(p+1), 1+rng.Intn(3)
		}
		shards := make([][]kc, p)
		for i := 0; i < n; i++ {
			s := rng.Intn(p)
			shards[s] = append(shards[s], kc{Key: int64(rng.Intn(keys)), Count: int64(1 + rng.Intn(9))})
		}

		trRef, trGot := NewTracer(), NewTracer()
		sorted, _ := Sort(partOf(NewExec(context.Background(), 1).WithTracer(trRef), precombined(shards)), kcKey)
		owner, sum := map[int64]int{}, map[int64]int64{}
		for s, shard := range sorted.Shards {
			for _, x := range shard {
				if _, seen := owner[x.Key]; !seen {
					owner[x.Key] = s
				}
				sum[x.Key] += x.Count
			}
		}

		got, st := ReduceByKey(partOf(NewExec(context.Background(), 4).WithTracer(trGot), shards), kcKey, add)
		if st.Rounds != 2 {
			t.Errorf("seed %d: %d rounds, want 2", seed, st.Rounds)
		}
		n = 0
		for s, shard := range got.Shards {
			for i, x := range shard {
				if owner[x.Key] != s || x.Count != sum[x.Key] || (i > 0 && shard[i-1].Key >= x.Key) {
					t.Fatalf("seed %d p=%d: server %d holds %+v; the key's first copy sorts to server %d, its sum is %d",
						seed, p, s, x, owner[x.Key], sum[x.Key])
				}
				n++
			}
		}
		if n != len(owner) {
			t.Fatalf("seed %d: %d keys reduced, want %d", seed, n, len(owner))
		}
		if ref, rounds := trRef.Rounds(), trGot.Rounds(); len(ref) == 2 && rounds[1].MaxLoad > ref[1].MaxLoad+2*p-1 {
			t.Errorf("seed %d p=%d: partition load %d, above the tie-broken %d + 2p−1", seed, p, rounds[1].MaxLoad, ref[1].MaxLoad)
		}
	}
}

// TestFusedPrimitivesTakeTwoRounds: every multi-search form and every
// reduce-by-key form is one sample sort — the samples' all-gather, from
// which every server picks the splitters, and the partition.
func TestFusedPrimitivesTakeTwoRounds(t *testing.T) {
	xs, ys := lookupInputs(400, 30, 2)
	ex := NewExec(context.Background(), 2)
	x, y := DistributeIn(ex, xs, 8), DistributeIn(ex, ys, 8)
	_, ms := MultiSearch(x, y, kcKey, kcKey)
	_, lk := Lookup(x, y, kcKey, kcKey, func(a, _ kc, found bool) (kc, bool) { return a, found })
	_, lj := LookupJoin(x, y, kcKey, kcKey)
	_, sj := SemijoinKeys(x, y, kcKey, kcKey)
	_, rk := ReduceByKey(x, kcKey, func(a, b kc) kc { return kc{Key: a.Key, Count: a.Count + b.Count} })
	_, ck := CountByKey(x, kcKey)
	for name, st := range map[string]Stats{"MultiSearch": ms, "Lookup": lk, "LookupJoin": lj, "SemijoinKeys": sj, "ReduceByKey": rk, "CountByKey": ck} {
		if st.Rounds != 2 {
			t.Errorf("%s ran %d rounds, want 2", name, st.Rounds)
		}
	}
}
