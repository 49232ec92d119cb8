package mpc

// wire_test.go covers the mpc-side wire carrier with an in-memory fake:
// round numbering, the per-type codec gate, the raw element codec, and the
// abort paths for a misbehaving transport. End-to-end TCP behavior lives
// in internal/transport's tests.

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"mpcjoin/internal/relation"
	"mpcjoin/internal/semiring"
)

// loopWire is a correct in-memory Wire: it assembles inboxes exactly as
// the in-process Exchange would, honoring drop and crash directives, and
// records the rounds it carried. Like a socket it delivers a copy of every
// payload in untyped memory — a wire that aliased the outboxes would keep
// their objects reachable and hide any decode that rebuilds pointers from
// bytes.
type loopWire struct {
	rounds []WireRound
	closed bool
}

func (w *loopWire) Close() error { w.closed = true; return nil }

func (w *loopWire) ExchangeRound(_ context.Context, r *WireRound) (*WireInbox, error) {
	cp := *r
	cp.Msgs = make([]WireMsg, len(r.Msgs))
	for i, m := range r.Msgs {
		m.Payload = bytes.Clone(m.Payload)
		cp.Msgs[i] = m
	}
	w.rounds = append(w.rounds, cp)

	in := &WireInbox{Segs: make([][]WireMsg, r.PDst), Recv: make([]int64, r.PDst)}
	for i, m := range cp.Msgs {
		if i == r.Drop {
			continue
		}
		if m.To == r.Crash {
			in.Lost += int64(m.Units)
			continue
		}
		in.Segs[m.To] = append(in.Segs[m.To], m)
		in.Recv[m.To] += int64(m.Units)
	}
	return in, nil
}

type pair struct{ A, B int64 }

func TestWireExchangeMatchesInline(t *testing.T) {
	data := make([]pair, 64)
	for i := range data {
		data[i] = pair{A: int64(i), B: int64(i * i)}
	}
	run := func(ex *Exec) (Part[pair], Stats) {
		pt := DistributeIn(ex, data, 8)
		return Route(pt, func(_ int, x pair) int { return int(x.A) % 8 })
	}
	gotI, stI := run(NewExec(context.Background(), 1))

	w := &loopWire{}
	gotW, stW := run(NewExec(context.Background(), 1).WithWire(w))

	if stI != stW {
		t.Fatalf("Stats diverge: inline %+v, wire %+v", stI, stW)
	}
	for s := range gotI.Shards {
		if len(gotI.Shards[s]) != len(gotW.Shards[s]) {
			t.Fatalf("shard %d sizes diverge", s)
		}
		for i := range gotI.Shards[s] {
			if gotI.Shards[s][i] != gotW.Shards[s][i] {
				t.Fatalf("shard %d element %d diverges: %+v vs %+v", s, i, gotI.Shards[s][i], gotW.Shards[s][i])
			}
		}
	}
	if len(w.rounds) != 1 || w.rounds[0].Seq != 1 {
		t.Fatalf("wire carried %d rounds, first seq %d; want 1 round, seq 1", len(w.rounds), w.rounds[0].Seq)
	}
}

func TestWireSeqIncrementsPerRound(t *testing.T) {
	w := &loopWire{}
	ex := NewExec(context.Background(), 1).WithWire(w)
	pt := DistributeIn(ex, []int64{1, 2, 3, 4}, 4)
	pt, _ = Route(pt, func(_ int, x int64) int { return int(x) % 4 })
	_, _ = Route(pt, func(_ int, x int64) int { return int(x+1) % 4 })
	if len(w.rounds) != 2 || w.rounds[0].Seq != 1 || w.rounds[1].Seq != 2 {
		t.Fatalf("rounds = %+v", w.rounds)
	}
}

// shortWire delivers only a prefix of each message's units — a transport
// that silently loses data. Without a fault plane the barrier must abort
// the execution rather than hand short inboxes to the algorithm.
type shortWire struct{ loopWire }

func (w *shortWire) ExchangeRound(ctx context.Context, r *WireRound) (*WireInbox, error) {
	in, err := w.loopWire.ExchangeRound(ctx, r)
	if err != nil {
		return nil, err
	}
	for dst, segs := range in.Segs {
		if len(segs) == 0 {
			continue
		}
		sg := segs[len(segs)-1]
		elem := len(sg.Payload) / sg.Units
		sg.Units--
		sg.Payload = sg.Payload[:sg.Units*elem]
		in.Recv[dst] -= 1
		if sg.Units == 0 {
			in.Segs[dst] = segs[:len(segs)-1]
		} else {
			segs[len(segs)-1] = sg
		}
		break
	}
	return in, nil
}

// TestWireShortDeliveryAborts pins the short-delivery exits of the barrier
// loop: without a plane nothing can retry, so it is a transport error;
// under a plane it is a detected drop, retried up to the budget and then
// the typed budget error.
func TestWireShortDeliveryAborts(t *testing.T) {
	cases := map[string]struct {
		spec     *FaultSpec
		attempts int // 0 = transport error
	}{
		"no-plane":   {nil, 0},
		"no-retries": {&FaultSpec{Seed: 1, StragglerProb: 1, MaxRetries: -1}, 1},
		"retries-2":  {&FaultSpec{Seed: 1, StragglerProb: 1, MaxRetries: 2}, 3},
	}
	for name, tc := range cases {
		var err error
		func() {
			defer Recover(&err)
			ex, _ := execWith(1, tc.spec)
			pt := DistributeIn(ex.WithWire(&shortWire{}), []int64{1, 2, 3, 4, 5, 6, 7, 8}, 4)
			Route(pt, func(_ int, x int64) int { return int(x) % 4 })
		}()
		var fbe *FaultBudgetError
		switch {
		case err == nil:
			t.Errorf("%s: short delivery went undetected", name)
		case tc.attempts == 0:
			if errors.As(err, &fbe) || !strings.Contains(err.Error(), "transport") {
				t.Errorf("%s: err = %v, want a transport error", name, err)
			}
		case !errors.As(err, &fbe) || fbe.Attempts != tc.attempts || fbe.Kind != "drop" || fbe.Round != 1:
			t.Errorf("%s: err = %v, want a drop budget error after %d attempts of round 1", name, err, tc.attempts)
		}
	}
}

// errWire fails every round.
type errWire struct{}

func (errWire) Close() error { return nil }
func (errWire) ExchangeRound(context.Context, *WireRound) (*WireInbox, error) {
	return nil, errors.New("boom")
}

func TestWireErrorSurfacesAtRoot(t *testing.T) {
	var err error
	func() {
		defer Recover(&err)
		ex := NewExec(context.Background(), 1).WithWire(errWire{})
		pt := DistributeIn(ex, []int64{1, 2}, 2)
		Route(pt, func(_ int, x int64) int { return int(x) % 2 })
	}()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want the wire's error", err)
	}
}

// wireGate is wireCodecOf's decision for one element type: whether the
// payload is the structural encoding, and whether the inbox is rebuilt
// from the delivered bytes.
type wireGate struct{ columnar, rebuild bool }

func gateOf[T any]() wireGate {
	cw, rebuild := wireCodecOf[T]()
	return wireGate{cw != nil, rebuild}
}

// TestWireCodecGate pins the per-type decision that is the only gate in
// front of appendRaw and the structural decoders (relation's weight bytes
// included): an element type holding a pointer anywhere a decoder would
// copy it from bytes must never be rebuilt.
func TestWireCodecGate(t *testing.T) {
	type row = relation.Row[int64]
	var (
		raw      = wireGate{columnar: false, rebuild: true}
		columnar = wireGate{columnar: true, rebuild: true}
		opaque   = wireGate{columnar: false, rebuild: false}
		opaqueCW = wireGate{columnar: true, rebuild: false}
	)
	cases := []struct {
		name      string
		got, want wireGate
	}{
		{"int64", gateOf[int64](), raw},
		{"pair", gateOf[pair](), raw},
		{"struct{}", gateOf[struct{}](), raw},
		{"[3]pair", gateOf[[3]pair](), raw},
		{"KeyCount[int64]", gateOf[KeyCount[int64]](), raw},
		{"Row[int64]", gateOf[row](), columnar},
		{"Row[struct{}]", gateOf[relation.Row[struct{}]](), columnar},
		{"SidedRow[bool]", gateOf[relation.SidedRow[bool]](), columnar},
		{"Row[Provenance]", gateOf[relation.Row[semiring.Provenance]](), opaqueCW},
		{"SidedRow[Provenance]", gateOf[relation.SidedRow[semiring.Provenance]](), opaqueCW},
		{"gcElem", gateOf[gcElem](), opaque},
		{"string", gateOf[string](), opaque},
		{"*int64", gateOf[*int64](), opaque},
		{"any", gateOf[any](), opaque},
		{"[2]string", gateOf[[2]string](), opaque},
		{"tagged[Row[int64]]", gateOf[tagged[row]](), opaque},
		{"KeyCount[string]", gateOf[KeyCount[string]](), opaque},
		{"struct with a func", gateOf[struct {
			A int64
			F func()
		}](), opaque},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("%s: gate %+v, want %+v", tc.name, tc.got, tc.want)
		}
	}
}

func TestRawCodecRoundTrip(t *testing.T) {
	xs := []pair{{1, 2}, {3, 4}, {5, 6}}
	b := rawBytes(xs)
	if len(b) != 3*16 {
		t.Fatalf("rawBytes length %d, want 48", len(b))
	}
	got, err := appendRaw[pair](nil, 3, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if got[i] != xs[i] {
			t.Fatalf("element %d: %+v != %+v", i, got[i], xs[i])
		}
	}
}

func TestRawCodecZeroSize(t *testing.T) {
	xs := []struct{}{{}, {}, {}}
	b := rawBytes(xs)
	if b != nil {
		t.Fatalf("zero-size payload = %v, want nil", b)
	}
	got, err := appendRaw[struct{}](nil, 3, nil)
	if err != nil || len(got) != 3 {
		t.Fatalf("decode: %v, %d elements", err, len(got))
	}
}

func TestAppendRawRejectsBadLengths(t *testing.T) {
	if _, err := appendRaw[int64](nil, 2, make([]byte, 15)); err == nil {
		t.Error("accepted 15 bytes for 2 int64s")
	}
	if _, err := appendRaw[int64](nil, -1, nil); err == nil {
		t.Error("accepted negative units")
	}
	if _, err := appendRaw[struct{}](nil, 1, []byte{1}); err == nil {
		t.Error("accepted payload bytes for zero-size elements")
	}
}
