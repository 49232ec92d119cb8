package mpc

import (
	"context"
	"reflect"
	"slices"
	"testing"
	"unsafe"
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

// handRolled is the protocol Agree replaces, spelled out: label,
// Broadcast, and every server decides on its own inbox. It returns the
// decision of every server.
func handRolled(ex *Exec, shards [][]KeyCount[int], op string) (Part[reply], Stats) {
	in := statsPart(ex, shards)
	p := in.P()
	if op != "" {
		TraceOp(ex, op)
	}
	known, st := Broadcast(in)
	decided := NewPartIn[reply](ex, p)
	for s, inbox := range known.Shards {
		decided.Shards[s] = slices.Concat(decideReplies(p)(inbox)...)
	}
	return decided, st
}

// viaAgree runs the same step through Agree, which returns the decision
// once; it is compared against every server's hand-rolled decision.
func viaAgree(ex *Exec, shards [][]KeyCount[int], op string) (Part[reply], Stats) {
	in := statsPart(ex, shards)
	p := in.P()
	known, st := Agree(in, op, func(all []KeyCount[int]) []reply {
		return slices.Concat(decideReplies(p)(all)...)
	})
	everywhere := NewPartIn[reply](ex, p)
	for s := range everywhere.Shards {
		everywhere.Shards[s] = known
	}
	return everywhere, st
}

// TestCoordinatorRoundTripMatchesHandRolled: Agree's decision, Stats and
// traced round (label, loads, Bytes) equal the hand-rolled Broadcast plus
// a decision on every server's inbox — on skewed input, on an empty input,
// on server sets of several sizes, with Agree's own label and Broadcast's,
// over the wire carrier, and under a fault plane that loses the all-gather
// round once (absorbed, bit-identical).
func TestCoordinatorRoundTripMatchesHandRolled(t *testing.T) {
	inputs := map[string][][]KeyCount[int]{
		"one-per-server": {{{Key: 0, Count: 3}}, {{Key: 1, Count: 0}}, {{Key: 2, Count: 9}}, {{Key: 3, Count: 1}}},
		"skewed":         {nil, {{Key: 5, Count: 2}, {Key: 6, Count: 2}, {Key: 12, Count: 7}}, nil, nil, {{Key: 1, Count: 1}}, nil, nil},
		"empty":          make([][]KeyCount[int], 5),
		"one-server":     {{{Key: 4, Count: 4}, {Key: 9, Count: 1}}},
	}
	labels := map[string]string{"labelled": "t.agree", "default": ""}
	scopes := map[string]func() (*Exec, *FaultPlane){
		"in-proc": func() (*Exec, *FaultPlane) { return NewExec(context.Background(), 1), nil },
		"wire":    func() (*Exec, *FaultPlane) { return NewExec(context.Background(), 1).WithWire(&loopWire{}), nil },
		"all-gather-round-lost": func() (*Exec, *FaultPlane) {
			fp := NewFaultPlane(FaultSpec{Seed: 11, CrashRound: 1})
			return NewExec(context.Background(), 4).WithFaults(fp), fp
		},
	}
	for iname, shards := range inputs {
		for lname, op := range labels {
			trWant := NewTracer()
			want, wantStats := handRolled(NewExec(context.Background(), 1).WithTracer(trWant), shards, op)
			if rounds := trWant.Rounds(); len(rounds) != 1 || rounds[0].Servers != len(shards) {
				t.Fatalf("%s: hand-rolled reference traced %+v", iname, rounds)
			}
			for sname, scope := range scopes {
				name := iname + "/" + lname + "/" + sname
				ex, fp := scope()
				tr := NewTracer()
				got, st := viaAgree(ex.WithTracer(tr), shards, op)
				if !reflect.DeepEqual(got.Shards, want.Shards) {
					t.Errorf("%s: decisions %v, hand-rolled %v", name, got.Shards, want.Shards)
				}
				if st != wantStats {
					t.Errorf("%s: stats %+v, hand-rolled %+v", name, st, wantStats)
				}
				if !reflect.DeepEqual(tr.Rounds(), trWant.Rounds()) {
					t.Errorf("%s: trace\n%+v\nhand-rolled\n%+v", name, tr.Rounds(), trWant.Rounds())
				}
				if fp != nil {
					if rep := fp.Report(); rep.Crashes != 1 || rep.Retried != 1 || rep.Events[0].Round != 1 {
						t.Errorf("%s: fault plane did not lose the all-gather round exactly once: %+v", name, rep)
					}
				}
			}
		}
	}
}

// TestAgreeGathersEachInputInItsOwnRound: extra inputs cost one all-gather
// round apiece, in argument order, each under the one label, and decide
// sees them concatenated.
func TestAgreeGathersEachInputInItsOwnRound(t *testing.T) {
	ex, tr := tracedExec(t)
	a := statsPart(ex, [][]KeyCount[int]{{{Key: 1, Count: 10}}, nil, {{Key: 2, Count: 20}}})
	b := statsPart(ex, [][]KeyCount[int]{nil, {{Key: 3, Count: 30}}, nil})
	nA := a.Len()
	got, st := Agree(a, "t.layout", func(all []KeyCount[int]) []int64 {
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
	var loads []int
	var units []int64
	for _, r := range tr.Rounds() {
		ops, loads, units = append(ops, r.Op), append(loads, r.MaxLoad), append(units, r.TotalUnits)
	}
	if !slices.Equal(ops, []string{"t.layout", "t.layout"}) || !slices.Equal(loads, []int{2, 1}) ||
		!slices.Equal(units, []int64{6, 3}) || st.Rounds != 2 {
		t.Fatalf("rounds %v at loads %v moving %v, stats %+v", ops, loads, units, st)
	}
}

// perDestination is Broadcast with every destination's message a copy of
// its own, so the round takes the per-destination assembly.
func perDestination[T any](pt Part[T]) (Part[T], Stats) {
	p := pt.P()
	out := make([][][]T, p)
	for src := range out {
		out[src] = make([][]T, p)
		for dst := range out[src] {
			out[src][dst] = slices.Clone(pt.Shards[src])
		}
	}
	TraceOp(pt.scope(), "broadcast")
	return ExchangeIn(pt.scope(), p, out)
}

// TestBroadcastSharesOneInbox: the shards of an in-process Broadcast are
// one backing array, and its result, Stats and trace equal a
// per-destination copy's — load |in| on every server, p·|in| units moved.
func TestBroadcastSharesOneInbox(t *testing.T) {
	for _, c := range []struct{ n, p int }{{7, 4}, {1, 16}, {40, 3}, {5, 1}} {
		data := make([]int, c.n)
		for i := range data {
			data[i] = i * 13 % 7
		}
		trWant, trGot := NewTracer(), NewTracer()
		want, wantSt := perDestination(DistributeIn(NewExec(context.Background(), 2).WithTracer(trWant), data, c.p))
		got, st := Broadcast(DistributeIn(NewExec(context.Background(), 2).WithTracer(trGot), data, c.p))
		if !reflect.DeepEqual(got.Shards, want.Shards) || st != wantSt || !reflect.DeepEqual(trGot.Rounds(), trWant.Rounds()) {
			t.Fatalf("n=%d p=%d: Broadcast %v %+v %+v, per destination %v %+v %+v",
				c.n, c.p, got.Shards, st, trGot.Rounds(), want.Shards, wantSt, trWant.Rounds())
		}
		if st.MaxLoad != c.n || st.TotalComm != int64(c.p*c.n) || st.Rounds != 1 {
			t.Fatalf("n=%d p=%d: stats %+v", c.n, c.p, st)
		}
		for s, shard := range got.Shards {
			if unsafe.SliceData(shard) != unsafe.SliceData(got.Shards[0]) || cap(shard) != c.n {
				t.Fatalf("n=%d p=%d: shard %d is not the one shared inbox", c.n, c.p, s)
			}
		}
		if unsafe.SliceData(want.Shards[0]) == unsafe.SliceData(want.Shards[c.p-1]) && c.p > 1 {
			t.Fatalf("n=%d p=%d: per-destination copies share storage", c.n, c.p)
		}
	}
}

// TestBroadcastRetriesToIdenticalInboxes: a broadcast round that loses a
// message (its attempt is assembled per destination) or a crashed
// destination retries to the fault-free inboxes, Stats and trace, and the
// attempt that succeeds hands out the one shared inbox.
func TestBroadcastRetriesToIdenticalInboxes(t *testing.T) {
	const p = 6
	data := []int{4, 8, 15, 16, 23, 42, 7, 9, 1}
	trWant := NewTracer()
	want, wantSt := Broadcast(DistributeIn(NewExec(context.Background(), 1).WithTracer(trWant), data, p))
	for name, spec := range map[string]FaultSpec{
		"drop":  {Seed: 9, DropProb: 0.5, MaxRetries: 8},
		"crash": {Seed: 2, CrashRound: 1},
	} {
		ex, fp := execWith(3, &spec)
		tr := NewTracer()
		got, st := Broadcast(DistributeIn(ex.WithTracer(tr), data, p))
		if !reflect.DeepEqual(got.Shards, want.Shards) || st != wantSt || !reflect.DeepEqual(tr.Rounds(), trWant.Rounds()) {
			t.Errorf("%s: retried broadcast %v %+v, fault-free %v %+v", name, got.Shards, st, want.Shards, wantSt)
		}
		for s := range got.Shards {
			if unsafe.SliceData(got.Shards[s]) != unsafe.SliceData(got.Shards[0]) {
				t.Errorf("%s: shard %d is not the shared inbox", name, s)
			}
		}
		rep := fp.Report()
		if lost := rep.Drops + rep.Crashes; lost == 0 || rep.Retried != lost {
			t.Errorf("%s: the plane lost nothing or did not retry every loss: %+v", name, rep)
		}
		if name == "drop" && rep.Drops == 0 || name == "crash" && rep.Crashes != 1 {
			t.Errorf("%s: the plane injected the wrong fault: %+v", name, rep)
		}
	}
}

// recordingWire is a loopWire that keeps every delivered inbox.
type recordingWire struct {
	loopWire
	inboxes []*WireInbox
}

func (w *recordingWire) ExchangeRound(ctx context.Context, r *WireRound) (*WireInbox, error) {
	in, err := w.loopWire.ExchangeRound(ctx, r)
	w.inboxes = append(w.inboxes, in)
	return in, err
}

// TestAgreeOverWireEveryInboxIsDecided: over the wire carrier every
// destination receives its own copy of the all-gather, and every copy
// decodes to the inbox decide read.
func TestAgreeOverWireEveryInboxIsDecided(t *testing.T) {
	shards := [][]KeyCount[int]{{{Key: 3, Count: 1}}, nil, {{Key: 1, Count: 5}, {Key: 2, Count: 6}}, {{Key: 0, Count: 2}}}
	w := &recordingWire{}
	ex := NewExec(context.Background(), 1).WithWire(w)
	var read []KeyCount[int]
	_, st := Agree(statsPart(ex, shards), "", func(all []KeyCount[int]) []int {
		read = slices.Clone(all)
		return nil
	})
	if len(w.inboxes) != 1 || st.Rounds != 1 {
		t.Fatalf("%d wire rounds, stats %+v; want one all-gather", len(w.inboxes), st)
	}
	if want := slices.Concat(shards...); !slices.Equal(read, want) {
		t.Fatalf("decide read %v, want %v", read, want)
	}
	for dst, segs := range w.inboxes[0].Segs {
		var inbox []KeyCount[int]
		for _, sg := range segs {
			var err error
			if inbox, err = appendRaw(inbox, sg.Units, sg.Payload); err != nil {
				t.Fatal(err)
			}
		}
		if !slices.Equal(inbox, read) {
			t.Errorf("destination %d received %v, decide read %v", dst, inbox, read)
		}
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
