package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"slices"
	"testing"
	"time"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("odd median = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 9, 2}); got != 3 {
		t.Errorf("even median = %v, want 3", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.50, 50}, {0.95, 95}, {0.99, 99}, {1, 100}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("p%.0f of 1..100 = %v, want %v", 100*c.q, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("p95 of one sample = %v, want 7", got)
	}
}

func TestHighestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0.50}, {19, 0.50}, {20, 0.50}, // p75 of 20 has 5 beyond
		{40, 0.75},              // exactly 10 beyond p75
		{99, 0.75}, {100, 0.90}, // 10 beyond p90 needs 100
		{199, 0.90}, {200, 0.95}, // 10 beyond p95 needs 200
		{400, 0.95}, {999, 0.95}, {1000, 0.99},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("n=%d: highest percentile %v, want %v (beyond: p75 %d p90 %d p95 %d p99 %d)",
				c.n, got, c.want, beyond(c.n, .75), beyond(c.n, .90), beyond(c.n, .95), beyond(c.n, .99))
		}
	}
	if got := beyond(400, 0.95); got != 20 {
		t.Errorf("beyond(400, p95) = %d, want 20", got)
	}
}

func TestPassOfMediansIgnoresOneNoisyRep(t *testing.T) {
	var s samples
	for rep := 0; rep < 5; rep++ {
		a, b := 100.0, 10.0
		if rep == 3 {
			a = 900 // one stalled rep
		}
		s.add("a", a)
		s.add("b", b)
		s.add("b", b) // b runs twice per pass
	}
	if got := s.passOfMedians(5); got != 120 {
		t.Errorf("pass of medians = %v, want 120 (a once, b twice)", got)
	}
	if !slices.Equal(s.order, []string{"a", "b"}) {
		t.Errorf("class order %v, want first-seen order", s.order)
	}
}

func TestSelfTimes(t *testing.T) {
	// root 0..100 with children 10..40 and 30..60 (overlapping: union 50),
	// a grandchild 15..25 under the first child, and a child that overruns
	// its parent (90..130, clipped to 10).
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},
		{Name: "leaf", Start: 15, End: 25, Parent: 1},
		{Name: "late", Start: 90, End: 130, Parent: 0},
	}
	want := []int64{100 - 50 - 10, 30 - 10, 30, 10, 40}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}

	// Properly nested spans: self times add up to the root's duration.
	nested := []span{
		{Name: "pass", Start: 0, End: 1000, Parent: -1},
		{Name: "op", Start: 0, End: 600, Parent: 0},
		{Name: "plan", Start: 10, End: 110, Parent: 1},
		{Name: "execute", Start: 110, End: 590, Parent: 1},
		{Name: "op", Start: 600, End: 990, Parent: 0},
	}
	shares, total := selfShares(nested)
	if total != rootTotal(nested) || total != 1000 {
		t.Errorf("self times sum to %d, root spans to %d, want both 1000", total, rootTotal(nested))
	}
	if got := shares["execute"]; got != 0.48 {
		t.Errorf("execute share %v, want 0.48", got)
	}
}

func TestTracerNilIsSilent(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	ran := false
	if d := tr.timed("y", id, 0, func() { ran = true; time.Sleep(time.Millisecond) }); !ran || d < time.Millisecond {
		t.Errorf("nil tracer: fn ran %v, took %v", ran, d)
	}
}

// rowsOf flattens an instance for comparison.
func rowsOf(in *instance) [][]int64 {
	var out [][]int64
	for _, e := range in.q.Edges {
		for _, r := range in.data[e.Name].Rows {
			row := []int64{r.W}
			for _, v := range r.Vals {
				row = append(row, int64(v))
			}
			out = append(out, row)
		}
	}
	return out
}

func TestInstancesFollowTheSeed(t *testing.T) {
	for _, key := range []string{"b4", "z", "sl", "lz"} {
		gen := func(seed int64) *instance {
			in, err := genInstance(key, specs(1)[key], rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			return in
		}
		a, b, c := gen(7), gen(7), gen(8)
		if !reflect.DeepEqual(rowsOf(a), rowsOf(b)) {
			t.Errorf("%s: same seed produced different rows", key)
		}
		if reflect.DeepEqual(rowsOf(a), rowsOf(c)) {
			t.Errorf("%s: different seeds produced the same rows", key)
		}
		if len(a.pub) != len(a.data) {
			t.Errorf("%s: public spelling has %d relations, want %d", key, len(a.pub), len(a.data))
		}
	}
}

func TestBlockInstancesKeepTheirOutputSize(t *testing.T) {
	// Relabelling and shuffling must not change what the generator
	// promised: b4 has OUT = blocks·4·4 whatever the seed.
	for _, seed := range []int64{1, 99} {
		in, err := genInstance("b4", specs(1)["b4"], rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := reference(in.q, in.data)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Len() != 2048*16 {
			t.Errorf("seed %d: OUT = %d, want %d", seed, ref.Len(), 2048*16)
		}
	}
}

func TestGraphFollowsTheSeedButItsShapeDoesNot(t *testing.T) {
	gen := func(seed int64) ([]int64, []int64) {
		edges, label, err := genGraph(2000, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		var flat []int64
		for _, e := range edges {
			flat = append(flat, int64(e.Src), int64(e.Dst), e.W)
		}
		levels := seqBFS(buildAdjacency(edges), int(label[0]))
		return flat, []int64{int64(len(edges)), slices.Max(levels), slices.Min(levels)}
	}
	a, shapeA := gen(7)
	b, _ := gen(7)
	c, shapeC := gen(8)
	if !slices.Equal(a, b) {
		t.Error("same seed produced different edges")
	}
	if slices.Equal(a, c) {
		t.Error("different seeds produced the same edges")
	}
	// Edge count, BFS depth from the start vertex and reachability (no
	// level is -1) decide rounds_per_pass and must not move with the seed.
	if !slices.Equal(shapeA, shapeC) || shapeA[2] < 0 {
		t.Errorf("shape (edges, BFS depth, lowest level) %v under seed 7, %v under seed 8", shapeA, shapeC)
	}
}

func TestMixedScheduleFollowsTheSeed(t *testing.T) {
	gen := func(seed int64) *serviceWorkload {
		w := &serviceWorkload{mixed: true, shrink: 1}
		if err := w.generate(seed); err != nil {
			t.Fatal(err)
		}
		return w
	}
	a, b, c := gen(3), gen(3), gen(4)
	if !reflect.DeepEqual(a.schedule, b.schedule) {
		t.Error("same seed produced different request sequences")
	}
	if reflect.DeepEqual(a.schedule, c.schedule) {
		t.Error("different seeds produced the same request sequence")
	}
	for i := range a.ids {
		if !bytes.Equal(a.ids[i].body, b.ids[i].body) {
			t.Fatalf("identity %d: same seed, different request body", i)
		}
	}
	if !reflect.DeepEqual(a.uploads, b.uploads) {
		t.Error("same seed produced different dataset uploads")
	}
	if bytes.Equal(a.uploads["f16_r1"], c.uploads["f16_r1"]) {
		t.Error("different seeds uploaded the same rows")
	}
	if len(a.ids) != mixedIDs {
		t.Fatalf("%d identities, want %d", len(a.ids), mixedIDs)
	}

	// The read multiset is fixed by construction: every identity is read
	// at least once per block and the counts do not depend on the seed.
	count := func(w *serviceWorkload, blk int) []int {
		n := make([]int, mixedIDs)
		for cl := 0; cl < clients; cl++ {
			for _, id := range w.schedule[blk][cl] {
				n[id]++
			}
		}
		return n
	}
	for blk := 0; blk < 2; blk++ {
		ca, cc := count(a, blk), count(c, blk)
		if !slices.Equal(ca, cc) {
			t.Errorf("block %d: read counts depend on the seed", blk)
		}
		if slices.Min(ca) < 1 {
			t.Errorf("block %d: an identity is never read", blk)
		}
		if ca[0] <= ca[1] || ca[1] <= ca[7] {
			t.Errorf("block %d: counts %v... are not Zipf-shaped", blk, ca[:8])
		}
	}
	graphs := 0
	for _, id := range a.ids {
		if id.class == "graph" {
			graphs++
		}
	}
	if graphs != 4 {
		t.Errorf("%d graph identities, want 4", graphs)
	}
}

func TestColdCycleMix(t *testing.T) {
	n := map[string]int{}
	for _, c := range coldCycle {
		n[c]++
	}
	want := map[string]int{"q_big": 2, "q_os": 2, "q_small": 3, "q_line": 2, "q_scalar": 1}
	if !reflect.DeepEqual(n, want) {
		t.Errorf("cold cycle mix %v, want %v", n, want)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricTableMeetsTheContract(t *testing.T) {
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not allowed", name)
		}
		if !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is not allowed", name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better %q", name, better)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(workloadDefs) < 2 || len(workloadDefs) > 8 {
		t.Errorf("%d workloads, want 2..8", len(workloadDefs))
	}
	for _, w := range workloadDefs {
		check(w.Name, "x", "lower")
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if _, err := newWorkload(w.Name, 1); err != nil {
			t.Errorf("%s is listed but cannot run: %v", w.Name, err)
		}
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(endToEnd))
	}
	var setupBound, maxBound float64
	for _, m := range endToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be seconds, lower is better")
			}
		}
	}
	if setupBound == 0 || setupBound != maxBound {
		t.Errorf("setup_s must be present with the largest bound (has %v, largest %v)", setupBound, maxBound)
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(perLayer))
	}
	for _, m := range perLayer {
		check(m.Name, m.Unit, m.Better)
	}
}

func TestBenchmarkJSONIsGenerated(t *testing.T) {
	want, err := describe()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(want))
	}
	var doc map[string]any
	if err := json.Unmarshal(want, &doc); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(doc))
	for k := range doc {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if !slices.Equal(keys, []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}) {
		t.Errorf("keys %v", keys)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no ../BENCHMARK.json beside this module: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("../BENCHMARK.json differs from `bench -describe`; regenerate it")
	}
}

// TestSmoke drives every workload once, untraced and traced, with one rep:
// the whole harness end to end without the full load.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run takes several seconds")
	}
	dir := t.TempDir()
	start := time.Now()
	for _, wd := range workloadDefs {
		for _, traced := range []bool{false, true} {
			res, err := run(config{workload: wd.Name, seed: 5, trace: traced, smoke: true, outDir: dir, log: io.Discard})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wd.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", wd.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wd.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or unit %q != %q", wd.Name, traced, d.Name, m.Unit, d.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wd.Name, d.Name, m.Value)
				}
			}
		}
		if _, err := os.Stat(dir + "/trace-" + wd.Name + ".json"); err != nil {
			t.Errorf("%s: no trace file: %v", wd.Name, err)
		}
	}
	t.Logf("smoke set took %v", time.Since(start))
}
