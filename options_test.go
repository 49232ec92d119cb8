package mpcjoin

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"mpcjoin/internal/transport"
)

// matmulFixture returns a tiny matmul-class query and instance, enough to
// exercise every option path end to end.
func matmulFixture() (*Query, Instance[int64]) {
	q := NewQuery().
		Relation("R1", "A", "B").
		Relation("R2", "B", "C").
		GroupBy("A", "C")
	data := Instance[int64]{
		"R1": NewRelation[int64]("A", "B"),
		"R2": NewRelation[int64]("B", "C"),
	}
	for i := int64(0); i < 40; i++ {
		data["R1"].Add(1, Value(i%8), Value(i%5))
		data["R2"].Add(1, Value(i%5), Value(i%7))
	}
	return q, data
}

// TestOptionsMatrix sweeps valid and conflicting option combinations:
// valid sets must execute, conflicting sets must fail at Execute with
// ErrOptionConflict (or a validation error) before any work runs.
func TestOptionsMatrix(t *testing.T) {
	cases := []struct {
		name     string
		opts     []Option
		conflict bool // want ErrOptionConflict
		invalid  bool // want some non-conflict option error
	}{
		{name: "none"},
		{name: "servers", opts: []Option{WithServers(8)}},
		{name: "baseline", opts: []Option{WithEngine(EngineYannakakis)}},
		{name: "tree", opts: []Option{WithEngine(EngineTree)}},
		{name: "auto", opts: []Option{WithEngine(EngineAuto)}},
		{name: "engine-by-name", opts: []Option{WithEngine("matmul-outsens")}},
		{name: "engine-repeated", opts: []Option{WithEngine(EngineYannakakis), WithEngine(EngineTree)}}, // last wins, like every repeated option
		{name: "oracle+baseline-overridden", opts: []Option{WithOutOracle(40), WithEngine(EngineYannakakis), WithEngine(EngineAuto)}},
		{name: "seed+estimator", opts: []Option{WithSeed(7), WithEstimator(64, 3)}},
		{name: "estimator+seed", opts: []Option{WithEstimator(64, 3), WithSeed(7)}},
		{name: "estimator-defaults", opts: []Option{WithEstimator(0, 0)}},
		{name: "estimator-smallest", opts: []Option{WithEstimator(2, 1)}},
		{name: "oracle", opts: []Option{WithOutOracle(40)}},
		{name: "oracle+tree", opts: []Option{WithOutOracle(40), WithEngine(EngineTree)}},
		{name: "workers", opts: []Option{WithWorkers(4)}},
		{name: "workers-auto", opts: []Option{WithWorkers(0)}},
		{name: "trace", opts: []Option{WithTrace()}},
		{name: "faults", opts: []Option{WithFaults(FaultSpec{Seed: 5, DropProb: 0.3, MaxRetries: 8})}},
		{name: "transport-inproc", opts: []Option{WithTransport(InProcTransport())}},
		{name: "transport-zero", opts: []Option{WithTransport(ExchangeTransport{})}},
		{name: "faults+retry", opts: []Option{WithFaults(FaultSpec{Seed: 5, DropProb: 0.3}), WithRetry(8)}},
		{name: "retry+faults", opts: []Option{WithRetry(8), WithFaults(FaultSpec{Seed: 5, DropProb: 0.3})}},
		{name: "everything", opts: []Option{
			WithServers(8), WithSeed(3), WithEstimator(32, 2), WithWorkers(2),
			WithTrace(), WithFaults(FaultSpec{DropProb: 0.2}), WithRetry(10),
		}},

		{name: "baseline+oracle", opts: []Option{WithEngine(EngineYannakakis), WithOutOracle(40)}, conflict: true},
		{name: "oracle+baseline", opts: []Option{WithOutOracle(40), WithEngine(EngineYannakakis)}, conflict: true},
		{name: "retry-alone", opts: []Option{WithRetry(3)}, conflict: true},
		{name: "engine-unknown", opts: []Option{WithEngine("quantum")}, invalid: true},
		{name: "engine-illegal-for-class", opts: []Option{WithEngine("line")}, invalid: true},
		{name: "servers-zero", opts: []Option{WithServers(0)}, invalid: true},
		{name: "servers-negative", opts: []Option{WithServers(-4)}, invalid: true},
		{name: "estimator-negative", opts: []Option{WithEstimator(-3, 0)}, invalid: true}, // used to panic in makeslice
		{name: "estimator-k-one", opts: []Option{WithEstimator(1, 0)}, invalid: true},     // (K−1)/v_K ≡ 0
		{name: "estimator-reps-negative", opts: []Option{WithEstimator(0, -1)}, invalid: true},
		{name: "faults-bad-spec", opts: []Option{WithFaults(FaultSpec{CrashProb: 1.5})}, invalid: true},
	}

	q, data := matmulFixture()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Execute[int64](Ints(), q, data, tc.opts...)
			switch {
			case tc.conflict:
				if !errors.Is(err, ErrOptionConflict) {
					t.Fatalf("want ErrOptionConflict, got %v", err)
				}
			case tc.invalid:
				if err == nil {
					t.Fatal("want option validation error, got nil")
				}
				if errors.Is(err, ErrOptionConflict) {
					t.Fatalf("want plain validation error, got conflict: %v", err)
				}
			default:
				if err != nil {
					t.Fatalf("valid combination failed: %v", err)
				}
				if len(res.Rows) == 0 {
					t.Fatal("no rows")
				}
			}
		})
	}
}

// TestOptionsOrderIndependent: WithEstimator's derived seed must not
// depend on whether WithSeed comes before or after it (the old apply-time
// derivation was order-dependent).
func TestOptionsOrderIndependent(t *testing.T) {
	q, data := matmulFixture()
	a, err := Execute[int64](Ints(), q, data, WithSeed(42), WithEstimator(64, 3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute[int64](Ints(), q, data, WithEstimator(64, 3), WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats {
		t.Errorf("option order changed stats: %+v vs %+v", a.Stats, b.Stats)
	}
	if len(a.Rows) != len(b.Rows) {
		t.Errorf("option order changed row count: %d vs %d", len(a.Rows), len(b.Rows))
	}
}

// TestOptionsFaultResult: a fault-injected run reports Result.Faults and
// keeps Rows/Stats identical to the fault-free run; an unabsorbable
// schedule surfaces ErrFaultBudgetExceeded.
func TestOptionsFaultResult(t *testing.T) {
	q, data := matmulFixture()
	free, err := Execute[int64](Ints(), q, data, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if free.Faults != nil {
		t.Fatal("fault-free run must not carry a FaultReport")
	}

	faulted, err := Execute[int64](Ints(), q, data, WithSeed(3),
		WithFaults(FaultSpec{Seed: 2, CrashProb: 0.2, DropProb: 0.2}), WithRetry(10))
	if err != nil {
		t.Fatal(err)
	}
	if faulted.Faults == nil {
		t.Fatal("faulted run must carry a FaultReport")
	}
	if faulted.Stats != free.Stats {
		t.Errorf("faulted stats %+v != fault-free %+v", faulted.Stats, free.Stats)
	}
	if len(faulted.Rows) != len(free.Rows) {
		t.Fatalf("row count differs: %d vs %d", len(faulted.Rows), len(free.Rows))
	}
	for i := range free.Rows {
		if faulted.Rows[i].Annot != free.Rows[i].Annot {
			t.Fatalf("row %d annot differs", i)
		}
	}

	_, err = Execute[int64](Ints(), q, data, WithSeed(3),
		WithFaults(FaultSpec{Seed: 2, CrashProb: 1}), WithRetry(1))
	if !errors.Is(err, ErrFaultBudgetExceeded) {
		t.Fatalf("want ErrFaultBudgetExceeded, got %v", err)
	}
	var fbe *FaultBudgetError
	if !errors.As(err, &fbe) {
		t.Fatalf("want *FaultBudgetError, got %T", err)
	}
}

// TestOptionsTransportTCP exercises WithTransport through the public API:
// the same query over two loopback shuffle peers must give the same rows
// and Stats as the in-process default, and an unreachable peer tier must
// fail Execute with a connection error rather than wrong answers.
func TestOptionsTransportTCP(t *testing.T) {
	addrs, release, err := transport.Loopback(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(release)

	q, data := matmulFixture()
	inp, err := Execute[int64](Ints(), q, data, WithSeed(4), WithServers(8))
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := Execute[int64](Ints(), q, data, WithSeed(4), WithServers(8),
		WithTransport(TCPTransport(addrs...)))
	if err != nil {
		t.Fatalf("tcp execute: %v", err)
	}
	if tcp.Stats != inp.Stats {
		t.Errorf("Stats diverge: inproc %+v, tcp %+v", inp.Stats, tcp.Stats)
	}
	if len(tcp.Rows) != len(inp.Rows) {
		t.Fatalf("row count differs: %d vs %d", len(tcp.Rows), len(inp.Rows))
	}
	for i := range inp.Rows {
		if tcp.Rows[i].Annot != inp.Rows[i].Annot {
			t.Fatalf("row %d annot differs", i)
		}
	}

	// Nothing listens on a reserved port: Execute must surface the dial
	// failure, not fall back silently to the in-process path.
	_, err = Execute[int64](Ints(), q, data, WithTransport(TCPTransport("127.0.0.1:1")))
	if err == nil || !strings.Contains(err.Error(), "transport") {
		t.Fatalf("want a transport connect error, got %v", err)
	}
}

// TestLineEngineReturnsUnderAnyOutOracle: WithOutOracle is unvalidated
// public input and the line engine takes its square root; an oracle of
// math.MaxInt64 used to spin in that root forever, before any round barrier
// a deadline could cancel at. It must return, with the answer the oracle
// never changes.
func TestLineEngineReturnsUnderAnyOutOracle(t *testing.T) {
	q := NewQuery().
		Relation("R1", "A", "B").
		Relation("R2", "B", "C").
		Relation("R3", "C", "D").
		GroupBy("A", "D")
	data := Instance[int64]{
		"R1": NewRelation[int64]("A", "B"),
		"R2": NewRelation[int64]("B", "C"),
		"R3": NewRelation[int64]("C", "D"),
	}
	for i := int64(0); i < 60; i++ {
		data["R1"].Add(1, Value(i%9), Value(i%5))
		data["R2"].Add(1, Value(i%5), Value(i%7))
		data["R3"].Add(1, Value(i%7), Value(i%4))
	}
	want, err := Execute[int64](Ints(), q, data, WithEngine("line"))
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res *Result[int64]
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Execute[int64](Ints(), q, data, WithEngine("line"), WithOutOracle(math.MaxInt64))
		done <- outcome{res, err}
	}()
	select {
	case got := <-done:
		if got.err != nil {
			t.Fatal(got.err)
		}
		if !reflect.DeepEqual(got.res.Rows, want.Rows) {
			t.Errorf("rows under the oracle differ: got %v, want %v", got.res.Rows, want.Rows)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Execute did not return within the deadline")
	}
}
