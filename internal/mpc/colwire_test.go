package mpc

// colwire_test.go: the ColumnarWire seam end to end inside mpc. When the
// exchanged element type implements the structural codec (relation.Row
// does), wired rounds must carry the columnar payload — not the raw
// memory snapshot — and still reproduce inline results and Stats
// bit-for-bit. Transport-level coverage (TCP, real peers) lives in
// internal/transport's equivalence suite; this test pins the dispatch.

import (
	"context"
	"strings"
	"testing"

	"mpcjoin/internal/relation"
)

func rowFixture(n int) []relation.Row[int64] {
	rows := make([]relation.Row[int64], n)
	for i := range rows {
		rows[i] = relation.Row[int64]{
			Vals: []relation.Value{relation.Value(i % 5), relation.Value(i)},
			W:    int64(i * 3),
		}
	}
	return rows
}

func TestWireExchangeColumnarMatchesInline(t *testing.T) {
	data := rowFixture(96)
	run := func(ex *Exec) (Part[relation.Row[int64]], Stats) {
		pt := DistributeIn(ex, data, 6)
		return Route(pt, func(_ int, r relation.Row[int64]) int { return int(r.Vals[0]) % 6 })
	}
	gotI, stI := run(NewExec(context.Background(), 1))

	w := &loopWire{}
	gotW, stW := run(NewExec(context.Background(), 1).WithWire(w))

	if stI != stW {
		t.Fatalf("Stats diverge: inline %+v, wire %+v", stI, stW)
	}
	for s := range gotI.Shards {
		if len(gotI.Shards[s]) != len(gotW.Shards[s]) {
			t.Fatalf("shard %d sizes diverge: %d vs %d", s, len(gotI.Shards[s]), len(gotW.Shards[s]))
		}
		for i := range gotI.Shards[s] {
			a, b := gotI.Shards[s][i], gotW.Shards[s][i]
			if a.W != b.W || len(a.Vals) != len(b.Vals) {
				t.Fatalf("shard %d element %d diverges: %+v vs %+v", s, i, a, b)
			}
			for c := range a.Vals {
				if a.Vals[c] != b.Vals[c] {
					t.Fatalf("shard %d element %d col %d: %d vs %d", s, i, c, a.Vals[c], b.Vals[c])
				}
			}
		}
	}

	// The round must have shipped the structural encoding: a columnar
	// message leads with its mode byte and decodes with relation's codec —
	// a raw Row snapshot (slice headers) would be units × 40 bytes and
	// meaningless across processes.
	if len(w.rounds) != 1 || len(w.rounds[0].Msgs) == 0 {
		t.Fatalf("wire carried %d rounds", len(w.rounds))
	}
	for _, m := range w.rounds[0].Msgs {
		if m.Payload[0] != 0 {
			t.Fatalf("message %d→%d mode byte %d, want 0 (uniform columnar)", m.From, m.To, m.Payload[0])
		}
		dec, rest, err := relation.DecodeRowColumns[int64](nil, m.Units, m.Payload)
		if err != nil || len(rest) != 0 || len(dec) != m.Units {
			t.Fatalf("message %d→%d payload does not decode as columnar rows: %v (%d trailing)", m.From, m.To, err, len(rest))
		}
	}
}

// corruptWire flips a byte inside the first delivered payload and
// truncates it. The carrier must abort the execution with a transport
// error, never panic or hand the algorithm corrupt rows.
type corruptWire struct{ loopWire }

func (w *corruptWire) ExchangeRound(ctx context.Context, r *WireRound) (*WireInbox, error) {
	in, err := w.loopWire.ExchangeRound(ctx, r)
	if err != nil {
		return nil, err
	}
	for dst, segs := range in.Segs {
		if len(segs) == 0 {
			continue
		}
		sg := segs[0]
		sg.Payload = append([]byte(nil), sg.Payload...)
		sg.Payload[len(sg.Payload)-1] ^= 0xFF
		sg.Payload = sg.Payload[:len(sg.Payload)-3]
		in.Segs[dst][0] = sg
		break
	}
	return in, nil
}

func TestWireColumnarCorruptionAborts(t *testing.T) {
	routes := map[string]func(ex *Exec){
		"decoded": func(ex *Exec) {
			pt := DistributeIn(ex, rowFixture(32), 4)
			Route(pt, func(_ int, r relation.Row[int64]) int { return int(r.Vals[1]) % 4 })
		},
		// A pointer-bearing element is never decoded, only compared with
		// what was sent; a payload that does not compare equal is corrupt.
		"compared": func(ex *Exec) {
			pt := DistributeIn(ex, []gcElem{{ID: 1, Vals: []int64{1}}, {ID: 2}, {ID: 3}}, 4)
			Route(pt, func(_ int, x gcElem) int { return int(x.ID) % 4 })
		},
	}
	for name, route := range routes {
		var err error
		func() {
			defer Recover(&err)
			route(NewExec(context.Background(), 1).WithWire(&corruptWire{}))
		}()
		if err == nil {
			t.Errorf("%s: corrupt payload went undetected", name)
		} else if !strings.Contains(err.Error(), "transport") {
			t.Errorf("%s: err = %v, want a transport error", name, err)
		}
	}
}

// TestColumnarDecodeAllocsBounded: decoding one columnar message performs
// a constant number of allocations — the typed row append, the single
// carved value backing, and codec scratch — independent of row count.
func TestColumnarDecodeAllocsBounded(t *testing.T) {
	rows := rowFixture(4096)
	payload := relation.AppendRowColumns(nil, rows)
	var zero relation.Row[int64]
	avg := testing.AllocsPerRun(20, func() {
		if _, err := zero.DecodeWireColumns(nil, len(rows), payload); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 4 {
		t.Fatalf("columnar decode averaged %.1f allocs per message, want ≤ 4", avg)
	}
}
