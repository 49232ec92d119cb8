package mpc

import (
	"fmt"
	"testing"

	xrt "mpcjoin/internal/runtime"
)

// kernels_test.go pins down the two contracts of the counted-exchange
// kernel: destination ordering is bit-for-bit identical to the serial
// append-grown outboxes it replaced, and steady-state routing performs a
// small documented constant number of allocations per server.

// appendRouteOracle is the pre-counted-exchange reference: serial
// append-grown outboxes concatenated in ascending source order. Counted
// Route must reproduce its shard contents exactly, element order included.
func appendRouteOracle(pt Part[int64], dest func(src int, x int64) int) [][]int64 {
	p := pt.P()
	out := make([][][]int64, p)
	for src, shard := range pt.Shards {
		row := make([][]int64, p)
		for _, x := range shard {
			d := dest(src, x)
			row[d] = append(row[d], x)
		}
		out[src] = row
	}
	shards := make([][]int64, p)
	for dst := 0; dst < p; dst++ {
		for src := 0; src < p; src++ {
			shards[dst] = append(shards[dst], out[src][dst]...)
		}
	}
	return shards
}

// adversarialParts builds the shard shapes most likely to break a counted
// build: every shard empty, all data on one server (one giant shard, the
// rest empty), a single-server cluster, and a mixed case with interleaved
// empty shards.
func adversarialParts() map[string]Part[int64] {
	giant := NewPartIn[int64](nil, 8)
	giant.Shards[3] = make([]int64, 4096)
	for i := range giant.Shards[3] {
		giant.Shards[3][i] = int64(i * 7)
	}

	single := NewPartIn[int64](nil, 1)
	for i := 0; i < 100; i++ {
		single.Shards[0] = append(single.Shards[0], int64(i))
	}

	mixed := NewPartIn[int64](nil, 8)
	for s := 0; s < 8; s += 2 {
		for i := 0; i < 50*(s+1); i++ {
			mixed.Shards[s] = append(mixed.Shards[s], int64(s*1000+i))
		}
	}

	return map[string]Part[int64]{
		"all-empty":       NewPartIn[int64](nil, 8),
		"one-giant-shard": giant,
		"p=1":             single,
		"interleaved":     mixed,
	}
}

// TestCountedRouteMatchesSerialOracle checks, for every adversarial shard
// shape and under both the serial and an 8-worker runtime, that counted
// Route reproduces the append-built serial oracle's output exactly.
func TestCountedRouteMatchesSerialOracle(t *testing.T) {
	dests := map[string]func(src int, x int64) int{
		"mod-p":      func(_ int, x int64) int { return int(uint64(x) % 8) },
		"all-to-one": func(_ int, _ int64) int { return 5 },
		"by-src":     func(src int, _ int64) int { return src },
	}
	for ptName, pt := range adversarialParts() {
		for dName, d := range dests {
			dest := d
			if pt.P() == 1 {
				dest = func(_ int, _ int64) int { return 0 }
			}
			want := appendRouteOracle(pt, dest)
			for _, workers := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", ptName, dName, workers), func(t *testing.T) {
					scoped := pt
					scoped.ex = ExecOn(nil, xrt.New(workers))
					got, st := Route(scoped, dest)
					if st.Rounds != 1 {
						t.Fatalf("Route rounds = %d, want 1", st.Rounds)
					}
					if got.P() != pt.P() {
						t.Fatalf("Route produced %d shards, want %d", got.P(), pt.P())
					}
					for s := range want {
						if len(got.Shards[s]) != len(want[s]) {
							t.Fatalf("shard %d: got %d elements, want %d", s, len(got.Shards[s]), len(want[s]))
						}
						for i := range want[s] {
							if got.Shards[s][i] != want[s][i] {
								t.Fatalf("shard %d element %d: got %d, want %d (ordering broken)",
									s, i, got.Shards[s][i], want[s][i])
							}
						}
					}
				})
			}
		}
	}
}

// TestBuildOutboxFillCountMismatchPanics verifies the kernel's misuse
// guard: a scan that emits different destination sequences on the two
// passes must panic, not silently corrupt the round.
func TestBuildOutboxFillCountMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("buildOutbox accepted a count/fill mismatch")
		}
	}()
	calls := 0
	buildOutbox[int64](nil, flat(4), "test", func(fill bool, emit func(int, int, int64)) {
		calls++
		emit(0, calls%4, 1) // different destination each pass
	})
}

// TestBuildOutboxOutOfRangePanics checks the destination range guard fires
// on the count pass, naming the calling primitive.
func TestBuildOutboxOutOfRangePanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("buildOutbox accepted an out-of-range destination")
		}
	}()
	buildOutbox[int64](nil, flat(4), "test", func(fill bool, emit func(int, int, int64)) {
		emit(0, 4, 1)
	})
}

var sinkRows [][]int64 // defeat dead-code elimination in alloc tests

// flat is the one-block layout of p servers: block 0, index = server.
func flat(p int) Layout {
	var lay Layout
	lay.Add(p)
	return lay
}

// TestBuildOutboxAllocs asserts the kernel's allocation contract: with a
// worker arena supplying the count vector, one build performs a small
// constant number of heap allocations — the destination row table, the
// shared backing buffer, and the two emit closures with their capture
// cells (6 total as measured) — regardless of element count.
func TestBuildOutboxAllocs(t *testing.T) {
	data := make([]int64, 4096)
	for i := range data {
		data[i] = int64(i)
	}
	scan := func(fill bool, emit func(b, i int, x int64)) {
		for _, x := range data {
			emit(0, int(uint64(x)%7), x)
		}
	}
	lay := flat(7)
	rt := xrt.Serial()
	// Warm the scratch pool and the arena so steady state is measured.
	rt.ForEachShardScratch(1, func(_ int, sc *xrt.Scratch) {
		sinkRows = buildOutbox[int64](sc, lay, "test", scan)
	})
	allocs := testing.AllocsPerRun(50, func() {
		rt.ForEachShardScratch(1, func(_ int, sc *xrt.Scratch) {
			sinkRows = buildOutbox[int64](sc, lay, "test", scan)
		})
	})
	if allocs > 6 {
		t.Errorf("buildOutbox allocated %.1f times per build, want ≤ 6 (row table, backing buffer, emit closures)", allocs)
	}
}

var sinkPart Part[int64]

// TestRouteAllocsBounded asserts the steady-state allocation bound of a
// full single-pass Route round: out table (1) + per-source
// buildOutboxDests (row table + backing buffer — 2p) + exchange
// shard/recv tables (2) + per-destination inbox (≤ p) + small change.
// 4p + 16 is the ceiling — the append-grown build this lineage replaced
// performed O(p² log(N/p²)) allocations (1950 measured at p = 16,
// N = 16k), and the counted two-pass build's emit closures cost ~6p
// (104 measured); the dests-array build drops both.
func TestRouteAllocsBounded(t *testing.T) {
	const p = 16
	pt := benchPart(16384, p)
	dest := func(_ int, x int64) int { return int(uint64(x) % p) }
	Route(pt, dest) // warm the scratch pool
	allocs := testing.AllocsPerRun(20, func() {
		sinkPart, _ = Route(pt, dest)
	})
	bound := float64(4*p + 16)
	if allocs > bound {
		t.Errorf("Route allocated %.1f times per round at p=%d, want ≤ %.0f", allocs, p, bound)
	}
}

// TestBuildOutboxDestsMatchesBuildOutbox checks the single-pass builder
// reproduces the counted two-pass build bit-for-bit — same row layout
// (contiguous ascending-destination segments of one buffer, nil rows for
// empty destinations), same element order — on the adversarial shapes.
func TestBuildOutboxDestsMatchesBuildOutbox(t *testing.T) {
	for name, pt := range adversarialParts() {
		p := pt.P()
		for src, shard := range pt.Shards {
			dests := make([]int, len(shard))
			for j, x := range shard {
				dests[j] = int(uint64(x) % uint64(p))
			}
			want := buildOutbox[int64](nil, flat(p), "oracle", func(fill bool, emit func(int, int, int64)) {
				for j, x := range shard {
					emit(0, dests[j], x)
				}
			})
			got := buildOutboxDests(nil, p, "test", dests, shard)
			if len(got) != len(want) {
				t.Fatalf("%s src %d: row count %d, want %d", name, src, len(got), len(want))
			}
			for d := range want {
				if (got[d] == nil) != (want[d] == nil) {
					t.Fatalf("%s src %d dst %d: nil-ness mismatch", name, src, d)
				}
				if len(got[d]) != len(want[d]) {
					t.Fatalf("%s src %d dst %d: %d elements, want %d", name, src, d, len(got[d]), len(want[d]))
				}
				for i := range want[d] {
					if got[d][i] != want[d][i] {
						t.Fatalf("%s src %d dst %d elem %d: %d, want %d", name, src, d, i, got[d][i], want[d][i])
					}
				}
			}
		}
	}
}

// TestBuildOutboxDestsOutOfRangePanics checks both range guards.
func TestBuildOutboxDestsOutOfRangePanics(t *testing.T) {
	for _, bad := range []int{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("buildOutboxDests accepted destination %d of range [0,4)", bad)
				}
			}()
			buildOutboxDests(nil, 4, "test", []int{bad}, []int64{7})
		}()
	}
}

// TestBuildOutboxDestsLengthMismatchPanics checks the dests/src shape guard.
func TestBuildOutboxDestsLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("buildOutboxDests accepted mismatched dests/src lengths")
		}
	}()
	buildOutboxDests(nil, 4, "test", []int{0, 1}, []int64{7})
}

// TestBuildOutboxDestsAllocs asserts the single-pass builder's allocation
// contract: with a worker arena supplying the count vector, one build
// performs exactly two heap allocations — the destination row table and
// the shared backing buffer — regardless of element count.
func TestBuildOutboxDestsAllocs(t *testing.T) {
	data := make([]int64, 4096)
	dests := make([]int, len(data))
	for i := range data {
		data[i] = int64(i)
		dests[i] = i % 7
	}
	rt := xrt.Serial()
	build := func(_ int, sc *xrt.Scratch) {
		sinkRows = buildOutboxDests(sc, 7, "test", dests, data)
	}
	rt.ForEachShardScratch(1, build)
	allocs := testing.AllocsPerRun(50, func() {
		rt.ForEachShardScratch(1, build)
	})
	if allocs > 2 {
		t.Errorf("buildOutboxDests allocated %.1f times per build, want ≤ 2 (row table, backing buffer)", allocs)
	}
}
