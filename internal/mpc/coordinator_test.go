package mpc

import (
	"context"
	"reflect"
	"slices"
	"testing"
)

// reply is the round-trip tests' decision element: three words, so a
// mislabelled element type shows up in the trace's Bytes (stats are one
// word wider than the int64 pairs they are decided from).
type reply struct{ Src, Sum, N int64 }

// decideReplies is the tests' coordinator: one reply per source pair,
// addressed to the pair's key modulo p, carrying the running sum.
func decideReplies(p int) func(all []KeyCount[int]) [][]reply {
	return func(all []KeyCount[int]) [][]reply {
		rows := make([][]reply, p)
		var run int64
		for i, kc := range all {
			run += kc.Count
			rows[kc.Key%p] = append(rows[kc.Key%p], reply{Src: int64(kc.Key), Sum: run, N: int64(i)})
		}
		return rows
	}
}

// statsPart places shards[s] on server s.
func statsPart(ex *Exec, shards [][]KeyCount[int]) Part[KeyCount[int]] {
	pt := NewPartIn[KeyCount[int]](ex, len(shards))
	copy(pt.Shards, shards)
	return pt
}

// handRolled is the protocol Coordinate and Agree replace, spelled out the
// way the 13 call sites used to: label, Gather, read shard 0, decide, place
// the decision on server 0, label, ExchangeIn / Broadcast.
func handRolled(ex *Exec, shards [][]KeyCount[int], gatherOp, replyOp string, agree bool) (Part[reply], Stats) {
	in := statsPart(ex, shards)
	p := in.P()
	if gatherOp != "" {
		TraceOp(ex, gatherOp)
	}
	gathered, st1 := Gather(in, 0)
	rows := decideReplies(p)(gathered.Shards[0])
	if replyOp != "" {
		TraceOp(ex, replyOp)
	}
	if agree {
		res := NewPartIn[reply](ex, p)
		res.Shards[0] = slices.Concat(rows...)
		out, st2 := Broadcast(res)
		return out, Seq(st1, st2)
	}
	out := make([][][]reply, p)
	out[0] = rows
	replied, st2 := ExchangeIn(ex, p, out)
	return replied, Seq(st1, st2)
}

// viaPrimitive runs the same step through Coordinate or Agree. The agree
// form returns the decision once; it is compared against every server's
// copy of the hand-rolled broadcast.
func viaPrimitive(ex *Exec, shards [][]KeyCount[int], gatherOp, replyOp string, agree bool) (Part[reply], Stats) {
	in := statsPart(ex, shards)
	p := in.P()
	if !agree {
		return Coordinate(in, gatherOp, replyOp, decideReplies(p))
	}
	known, st := Agree(in, gatherOp, replyOp, func(all []KeyCount[int]) []reply {
		return slices.Concat(decideReplies(p)(all)...)
	})
	everywhere := NewPartIn[reply](ex, p)
	for s := range everywhere.Shards {
		everywhere.Shards[s] = known
	}
	return everywhere, st
}

// TestCoordinatorRoundTripMatchesHandRolled: for both forms, the replies,
// the Stats and the traced rounds (labels, loads, Bytes) equal the
// hand-rolled Gather + ExchangeIn / Broadcast sequence on the same input —
// on skewed input, on an empty input, on server sets of several sizes, with
// the primitives' own labels, over the wire carrier, and under a fault
// plane that loses the reply round once (absorbed, bit-identical).
func TestCoordinatorRoundTripMatchesHandRolled(t *testing.T) {
	inputs := map[string][][]KeyCount[int]{
		"one-per-server": {{{Key: 0, Count: 3}}, {{Key: 1, Count: 0}}, {{Key: 2, Count: 9}}, {{Key: 3, Count: 1}}},
		"skewed":         {nil, {{Key: 5, Count: 2}, {Key: 6, Count: 2}, {Key: 12, Count: 7}}, nil, nil, {{Key: 1, Count: 1}}, nil, nil},
		"empty":          make([][]KeyCount[int], 5),
		"one-server":     {{{Key: 4, Count: 4}, {Key: 9, Count: 1}}},
	}
	labels := map[string][2]string{"labelled": {"t.up", "t.down"}, "default": {"", ""}}
	scopes := map[string]func() (*Exec, *FaultPlane){
		"in-proc": func() (*Exec, *FaultPlane) { return NewExec(context.Background(), 1), nil },
		"wire":    func() (*Exec, *FaultPlane) { return NewExec(context.Background(), 1).WithWire(&loopWire{}), nil },
		"reply-round-lost": func() (*Exec, *FaultPlane) {
			fp := NewFaultPlane(FaultSpec{Seed: 11, CrashRound: 2})
			return NewExec(context.Background(), 4).WithFaults(fp), fp
		},
	}
	for iname, shards := range inputs {
		for lname, ops := range labels {
			for _, agree := range []bool{false, true} {
				trWant := NewTracer()
				want, wantStats := handRolled(NewExec(context.Background(), 1).WithTracer(trWant), shards, ops[0], ops[1], agree)
				if rounds := trWant.Rounds(); len(rounds) != 2 || rounds[1].Servers != len(shards) {
					t.Fatalf("%s: hand-rolled reference traced %+v", iname, rounds)
				}
				for sname, scope := range scopes {
					name := iname + "/" + lname + "/" + sname + map[bool]string{false: "/scatter", true: "/agree"}[agree]
					ex, fp := scope()
					tr := NewTracer()
					got, st := viaPrimitive(ex.WithTracer(tr), shards, ops[0], ops[1], agree)
					if !reflect.DeepEqual(got.Shards, want.Shards) {
						t.Errorf("%s: replies %v, hand-rolled %v", name, got.Shards, want.Shards)
					}
					if st != wantStats {
						t.Errorf("%s: stats %+v, hand-rolled %+v", name, st, wantStats)
					}
					if !reflect.DeepEqual(tr.Rounds(), trWant.Rounds()) {
						t.Errorf("%s: trace\n%+v\nhand-rolled\n%+v", name, tr.Rounds(), trWant.Rounds())
					}
					if fp != nil {
						if rep := fp.Report(); rep.Crashes != 1 || rep.Retried != 1 || rep.Events[0].Round != 2 {
							t.Errorf("%s: fault plane did not lose the reply round exactly once: %+v", name, rep)
						}
					}
				}
			}
		}
	}
}

// TestAgreeGathersEachInputInItsOwnRound: extra inputs cost one gather
// round apiece, in argument order, and decide sees them concatenated.
func TestAgreeGathersEachInputInItsOwnRound(t *testing.T) {
	ex, tr := tracedExec(t)
	a := statsPart(ex, [][]KeyCount[int]{{{Key: 1, Count: 10}}, nil, {{Key: 2, Count: 20}}})
	b := statsPart(ex, [][]KeyCount[int]{nil, {{Key: 3, Count: 30}}, nil})
	nA := a.Len()
	got, st := Agree(a, "", "t.layout", func(all []KeyCount[int]) []int64 {
		var first, second int64
		for _, kc := range all[:nA] {
			first += kc.Count
		}
		for _, kc := range all[nA:] {
			second += kc.Count
		}
		return []int64{first, second}
	}, b)
	if !slices.Equal(got, []int64{30, 30}) {
		t.Fatalf("decision %v", got)
	}
	var ops []string
	var units []int64
	for _, r := range tr.Rounds() {
		ops, units = append(ops, r.Op), append(units, r.TotalUnits)
	}
	if !slices.Equal(ops, []string{"gather", "gather", "t.layout"}) || !slices.Equal(units, []int64{2, 1, 6}) || st.Rounds != 3 {
		t.Fatalf("rounds %v moving %v, stats %+v", ops, units, st)
	}
}

// TestOverlayMatchesTheFold: Overlay equals the shard-wise fold it
// replaced, for parts wider than, as wide as and narrower than p.
func TestOverlayMatchesTheFold(t *testing.T) {
	parts := []Part[int]{
		DistributeIn(nil, []int{1, 2, 3, 4, 5, 6, 7}, 7),
		DistributeIn(nil, []int{10, 20, 30}, 3),
		DistributeIn(nil, []int{100}, 2),
		NewPartIn[int](nil, 5),
	}
	const p = 3
	want := NewPartIn[int](nil, p)
	for _, pt := range parts {
		for s, shard := range pt.Shards {
			want.Shards[s%p] = append(want.Shards[s%p], shard...)
		}
	}
	got := Overlay(nil, p, parts...)
	if !reflect.DeepEqual(got.Shards, want.Shards) {
		t.Fatalf("Overlay %v, fold %v", got.Shards, want.Shards)
	}
	got.Shards[0][0] = -1
	if parts[0].Shards[0][0] != 1 {
		t.Fatal("Overlay aliases its input's shards")
	}
	if one := Overlay(nil, 7, parts[0]); !reflect.DeepEqual(one.Shards, parts[0].Shards) {
		t.Fatalf("Overlay of one part onto its own width moved rows: %v", one.Shards)
	}
}
