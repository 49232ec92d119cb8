package relation

import (
	"math/rand"
	"testing"
)

// colwire_test.go: round-trip and corruption oracles for the columnar wire
// codec. Every encode must decode to bit-identical rows, and every
// truncation or corruption of a valid payload must surface as an error,
// never a panic or silent misdecode.

func roundTripRows[W comparable](t *testing.T, rows []Row[W]) []Row[W] {
	t.Helper()
	payload := AppendRowColumns(nil, rows)
	dec, rest, err := DecodeRowColumns[W](nil, len(rows), payload)
	if err != nil {
		t.Fatalf("decode of valid payload failed: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("decode left %d trailing bytes", len(rest))
	}
	if len(dec) != len(rows) {
		t.Fatalf("decoded %d rows, want %d", len(dec), len(rows))
	}
	for i := range rows {
		if len(dec[i].Vals) != len(rows[i].Vals) {
			t.Fatalf("row %d arity %d, want %d", i, len(dec[i].Vals), len(rows[i].Vals))
		}
		for c := range rows[i].Vals {
			if dec[i].Vals[c] != rows[i].Vals[c] {
				t.Fatalf("row %d col %d: %d, want %d", i, c, dec[i].Vals[c], rows[i].Vals[c])
			}
		}
		if dec[i].W != rows[i].W {
			t.Fatalf("row %d weight %v, want %v", i, dec[i].W, rows[i].W)
		}
	}
	return dec
}

// TestRowColumnsRoundTrip covers the codec's modes: dictionary-heavy
// columns, all-distinct (plain) columns, a mix, empty messages, zero-arity
// rows, and negative values (sign must survive the u64 transit).
func TestRowColumnsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := map[string][]Row[int64]{
		"empty": nil,
		"one":   {{Vals: []Value{-3, 9}, W: 42}},
		"zeroArity": {
			{Vals: nil, W: 1}, {Vals: nil, W: 2}, {Vals: nil, W: 3},
		},
	}
	dictHeavy := make([]Row[int64], 200)
	for i := range dictHeavy {
		dictHeavy[i] = Row[int64]{Vals: []Value{Value(i % 3), Value(-(i % 5))}, W: rng.Int63()}
	}
	cases["dictHeavy"] = dictHeavy
	plain := make([]Row[int64], 100)
	for i := range plain {
		plain[i] = Row[int64]{Vals: []Value{Value(i) - 50, Value(rng.Int63())}, W: int64(i)}
	}
	cases["allDistinct"] = plain
	mixed := make([]Row[int64], 64)
	for i := range mixed {
		mixed[i] = Row[int64]{Vals: []Value{Value(i % 2), Value(i)}, W: -int64(i)}
	}
	cases["mixedColumns"] = mixed

	for name, rows := range cases {
		t.Run(name, func(t *testing.T) { roundTripRows(t, rows) })
	}
}

// TestRowColumnsRaggedFallback: mixed arities take mode 1 and still
// round-trip exactly.
func TestRowColumnsRaggedFallback(t *testing.T) {
	rows := []Row[int64]{
		{Vals: []Value{1, 2, 3}, W: 10},
		{Vals: []Value{4}, W: 20},
		{Vals: nil, W: 30},
		{Vals: []Value{5, 6}, W: 40},
	}
	payload := AppendRowColumns(nil, rows)
	if payload[0] != 1 {
		t.Fatalf("ragged message encoded as mode %d, want 1", payload[0])
	}
	roundTripRows(t, rows)
}

// TestRowColumnsZeroSizeWeights: W = struct{} ships no weight section.
func TestRowColumnsZeroSizeWeights(t *testing.T) {
	rows := []Row[struct{}]{
		{Vals: []Value{1, 2}}, {Vals: []Value{1, 3}}, {Vals: []Value{2, 2}},
	}
	roundTripRows(t, rows)
}

// TestRowColumnsDictionaryEngages: a key-repetitive message must actually
// use dictionary encoding and beat the raw snapshot size it replaces.
func TestRowColumnsDictionaryEngages(t *testing.T) {
	rows := make([]Row[int64], 512)
	for i := range rows {
		rows[i] = Row[int64]{Vals: []Value{Value(i % 4), Value(i % 7)}, W: 1}
	}
	payload := AppendRowColumns(nil, rows)
	// mode + arity + 2×(dictLen + dict + codes) + weights
	want := 1 + 4 + (4 + 8*4 + 4*512) + (4 + 8*7 + 4*512) + 8*512
	if len(payload) != want {
		t.Fatalf("dictionary-heavy payload is %d bytes, want %d (dictionaries not engaging?)", len(payload), want)
	}
}

// TestRowColumnsDecodeRejectsCorruption: every strict-prefix truncation of
// valid payloads errors, as do targeted corruptions (bad mode, oversized
// dictionary, out-of-range code, trailing bytes via the wire seam).
func TestRowColumnsDecodeRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, rows := range [][]Row[int64]{
		{{Vals: []Value{1, 2}, W: 5}, {Vals: []Value{1, 3}, W: 6}, {Vals: []Value{1, 2}, W: 7}},
		func() []Row[int64] {
			rs := make([]Row[int64], 40)
			for i := range rs {
				rs[i] = Row[int64]{Vals: []Value{Value(rng.Int63()), Value(i % 2)}, W: int64(i)}
			}
			return rs
		}(),
		{{Vals: []Value{1, 2, 3}, W: 1}, {Vals: []Value{4}, W: 2}}, // mode 1
	} {
		payload := AppendRowColumns(nil, rows)
		for k := 0; k < len(payload); k++ {
			if _, _, err := DecodeRowColumns[int64](nil, len(rows), payload[:k]); err == nil {
				t.Fatalf("decode of %d-byte prefix of %d-byte payload succeeded", k, len(payload))
			}
		}
	}

	rows := []Row[int64]{{Vals: []Value{1}, W: 5}, {Vals: []Value{1}, W: 6}}
	valid := AppendRowColumns(nil, rows)

	bad := append([]byte(nil), valid...)
	bad[0] = 9
	if _, _, err := DecodeRowColumns[int64](nil, 2, bad); err == nil {
		t.Fatal("accepted unknown mode byte")
	}

	bad = append([]byte(nil), valid...)
	bad[5] = 200 // dictLen for column 0: far larger than the row count
	if _, _, err := DecodeRowColumns[int64](nil, 2, bad); err == nil {
		t.Fatal("accepted dictionary larger than row count")
	}

	// Out-of-range code: dictLen=1, so any nonzero code byte is invalid.
	// Layout: mode(1) arity(4) dictLen(4) dict(8) codes(2×4) weights.
	bad = append([]byte(nil), valid...)
	bad[1+4+4+8] = 7
	if _, _, err := DecodeRowColumns[int64](nil, 2, bad); err == nil {
		t.Fatal("accepted out-of-range dictionary code")
	}

	// Trailing bytes are an error at the wire seam.
	var zero Row[int64]
	if _, err := zero.DecodeWireColumns(nil, 2, append(append([]byte(nil), valid...), 0xEE)); err == nil {
		t.Fatal("wire seam accepted trailing bytes")
	}
	if dec, err := zero.DecodeWireColumns(nil, 2, valid); err != nil || len(dec) != 2 {
		t.Fatalf("wire seam rejected valid payload: %v", err)
	}
}

// TestSidedRowColumnsRoundTrip: the routers' sided stream (left/right flag
// + row) round-trips in element order, including sides of differing arity
// — the shape that forces per-side column groups.
func TestSidedRowColumnsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	type sided = SidedRow[int64]
	for _, n := range []int{0, 1, 9, 200} {
		els := make([]sided, n)
		for i := range els {
			if rng.Intn(2) == 0 {
				els[i] = sided{Left: true, Row: Row[int64]{Vals: []Value{Value(i % 4), 7, Value(-i)}, W: int64(i)}}
			} else {
				els[i] = sided{Row: Row[int64]{Vals: []Value{Value(i % 3)}, W: -int64(i)}}
			}
		}
		payload := AppendSidedRowColumns(nil, els)
		got, err := DecodeSidedRowColumns[int64](nil, n, payload)
		if err != nil {
			t.Fatalf("n=%d: decode failed: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: decoded %d elements", n, len(got))
		}
		for i := range els {
			if got[i].Left != els[i].Left || got[i].Row.W != els[i].Row.W ||
				len(got[i].Row.Vals) != len(els[i].Row.Vals) {
				t.Fatalf("element %d diverged: %+v want %+v", i, got[i], els[i])
			}
			for c := range els[i].Row.Vals {
				if got[i].Row.Vals[c] != els[i].Row.Vals[c] {
					t.Fatalf("element %d col %d: %d want %d", i, c, got[i].Row.Vals[c], els[i].Row.Vals[c])
				}
			}
		}
		// Truncations of the sided stream also error.
		for k := 0; k < len(payload); k++ {
			if _, err := DecodeSidedRowColumns[int64](nil, n, payload[:k]); err == nil {
				t.Fatalf("n=%d: decode of %d-byte prefix succeeded", n, k)
			}
		}
	}
}
