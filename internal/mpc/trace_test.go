package mpc

import (
	"context"
	"slices"
	"testing"
)

// tracedExec returns a scope whose rounds are recorded by the returned
// tracer.
func tracedExec(t *testing.T) (*Exec, *Tracer) {
	t.Helper()
	tr := NewTracer()
	return NewExec(context.Background(), 1).WithTracer(tr), tr
}

func TestTracerRecordsExchangeDistribution(t *testing.T) {
	ex, tr := tracedExec(t)
	// 2 sources, 5 destinations; destination 2 receives 3 units.
	out := [][][]int{
		{{1}, nil, {2, 3}, nil, nil},
		{nil, nil, {4}, nil, {5}},
	}
	_, st := ExchangeToIn(ex, 5, out)

	rounds := tr.Rounds()
	if len(rounds) != 1 {
		t.Fatalf("rounds = %d, want 1", len(rounds))
	}
	rt := rounds[0]
	if rt.Round != 1 || rt.Op != "exchange" {
		t.Fatalf("round/op = %d/%q", rt.Round, rt.Op)
	}
	if rt.Servers != 5 || rt.Receivers != 3 {
		t.Fatalf("servers/receivers = %d/%d", rt.Servers, rt.Receivers)
	}
	if rt.MaxLoad != int(st.MaxLoad) || rt.MaxLoad != 3 {
		t.Fatalf("maxLoad = %d (stats %d)", rt.MaxLoad, st.MaxLoad)
	}
	if rt.TotalUnits != st.TotalComm || rt.TotalUnits != 5 {
		t.Fatalf("totalUnits = %d (stats %d)", rt.TotalUnits, st.TotalComm)
	}
	// Sorted loads: [0 0 1 1 3]; nearest-rank p50 is the 3rd (= 1), p99
	// the 5th (= 3).
	if rt.P50Load != 1 || rt.P99Load != 3 {
		t.Fatalf("p50/p99 = %d/%d", rt.P50Load, rt.P99Load)
	}
	if rt.MeanLoad != 1.0 || rt.Imbalance != 3.0 {
		t.Fatalf("mean/imbalance = %v/%v", rt.MeanLoad, rt.Imbalance)
	}
	if rt.Bytes != rt.TotalUnits*8 { // int elements
		t.Fatalf("bytes = %d", rt.Bytes)
	}
}

func TestTracerLabelsPrimitives(t *testing.T) {
	ex, tr := tracedExec(t)
	pt := DistributeIn(ex, []int{5, 1, 4, 2, 3, 0}, 3)

	routed, _ := Route(pt, func(_ int, x int) int { return x % 3 })
	_, _ = Broadcast(routed)
	_, _ = Rebalance(routed)

	rounds := tr.Rounds()
	if len(rounds) != 3 {
		t.Fatalf("rounds = %d, want 3", len(rounds))
	}
	want := []string{"route", "broadcast", "rebalance"}
	for i, w := range want {
		if rounds[i].Op != w {
			t.Fatalf("round %d op = %q, want %q", i+1, rounds[i].Op, w)
		}
		if rounds[i].Round != i+1 {
			t.Fatalf("round %d numbered %d", i+1, rounds[i].Round)
		}
	}
}

func TestTracerFirstLabelWins(t *testing.T) {
	ex, tr := tracedExec(t)
	pt := DistributeIn(ex, []int{1, 2, 3}, 2)

	// An outer label set before an inner primitive labels itself must
	// survive: Broadcast labels its own round, and the round reads
	// "outer.phase".
	TraceOp(ex, "outer.phase")
	_, _ = Broadcast(pt)
	_, _ = Route(pt, func(_ int, x int) int { return 0 })

	rounds := tr.Rounds()
	if len(rounds) != 2 {
		t.Fatalf("rounds = %d, want 2", len(rounds))
	}
	if rounds[0].Op != "outer.phase" {
		t.Fatalf("round 1 op = %q, want outer.phase", rounds[0].Op)
	}
	// The label was consumed; the next round names itself normally.
	if rounds[1].Op != "route" {
		t.Fatalf("round 2 op = %q, want route", rounds[1].Op)
	}
}

func TestTracerSortLabels(t *testing.T) {
	ex, tr := tracedExec(t)
	pt := DistributeIn(ex, []int64{9, 3, 7, 1, 8, 2, 6, 4, 5, 0}, 4)
	_, _ = SortBy(pt, func(a, b int64) bool { return a < b })

	// The samples' all-gather round is the splitter step: no round
	// carries splitters back.
	var ops []string
	for _, rt := range tr.Rounds() {
		ops = append(ops, rt.Op)
	}
	if want := []string{"sort.samples", "sort.partition"}; !slices.Equal(ops, want) {
		t.Fatalf("sort rounds %v, want %v", ops, want)
	}
}

func TestTracerResetAndUntraced(t *testing.T) {
	ex, tr := tracedExec(t)
	pt := DistributeIn(ex, []int{1, 2, 3}, 2)
	_, _ = Broadcast(pt)
	if len(tr.Rounds()) != 1 {
		t.Fatalf("rounds = %d", len(tr.Rounds()))
	}
	tr.Reset()
	if len(tr.Rounds()) != 0 {
		t.Fatalf("rounds after reset = %d", len(tr.Rounds()))
	}

	// An untraced scope records nothing and TraceOp is a no-op.
	plain := NewExec(context.Background(), 1)
	TraceOp(plain, "ignored")
	TraceOp(nil, "ignored")
	pt2 := DistributeIn(plain, []int{1, 2}, 2)
	_, _ = Broadcast(pt2)
	if plain.Tracer() != nil {
		t.Fatal("plain scope has a tracer")
	}
	if len(tr.Rounds()) != 0 {
		t.Fatalf("tracer saw untraced rounds: %d", len(tr.Rounds()))
	}
}

func TestTracerIdenticalResultsAndStats(t *testing.T) {
	run := func(ex *Exec) (Part[int64], Stats) {
		pt := DistributeIn(ex, []int64{42, 17, 99, 3, 8, 56, 23, 71, 5, 64, 12, 88}, 4)
		sorted, st1 := SortBy(pt, func(a, b int64) bool { return a < b })
		g, st2 := Route(sorted, func(int, int64) int { return 0 })
		return g, Seq(st1, st2)
	}
	plainRes, plainSt := run(NewExec(context.Background(), 1))
	tr := NewTracer()
	tracedRes, tracedSt := run(NewExec(context.Background(), 1).WithTracer(tr))

	if plainSt != tracedSt {
		t.Fatalf("stats differ: %+v vs %+v", plainSt, tracedSt)
	}
	a, b := plainRes.Shards[0], tracedRes.Shards[0]
	if len(a) != len(b) {
		t.Fatalf("result sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	if len(tr.Rounds()) == 0 {
		t.Fatal("traced run recorded no rounds")
	}
}

func TestQuantileNearestRank(t *testing.T) {
	sorted := []int64{0, 0, 1, 2, 10}
	cases := []struct {
		q    float64
		want int64
	}{
		{0.0, 0}, {0.5, 1}, {0.99, 10}, {1.0, 10},
	}
	for _, c := range cases {
		if got := quantile(sorted, c.q); got != c.want {
			t.Fatalf("quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile != 0")
	}
}
