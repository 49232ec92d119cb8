package mpcjoin

import (
	"errors"
	"reflect"
	"strings"
	"testing"

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
		{name: "workers", opts: []Option{WithWorkers(4)}},
		{name: "workers-auto", opts: []Option{WithWorkers(0)}},
		{name: "trace", opts: []Option{WithTrace()}},
		{name: "faults", opts: []Option{WithFaults(FaultSpec{Seed: 5, DropProb: 0.3, MaxRetries: 8})}},
		{name: "transport-inproc", opts: []Option{WithTransport(InProcTransport())}},
		{name: "transport-zero", opts: []Option{WithTransport(ExchangeTransport{})}},
		{name: "faults+retry", opts: []Option{WithFaults(FaultSpec{Seed: 5, DropProb: 0.3}), WithRetry(8)}},
		{name: "retry+faults", opts: []Option{WithRetry(8), WithFaults(FaultSpec{Seed: 5, DropProb: 0.3})}},
		{name: "everything", opts: []Option{
			WithServers(8), WithSeed(3), WithWorkers(2),
			WithTrace(), WithFaults(FaultSpec{DropProb: 0.2}), WithRetry(10),
		}},

		{name: "retry-alone", opts: []Option{WithRetry(3)}, conflict: true},
		{name: "engine-unknown", opts: []Option{WithEngine("quantum")}, invalid: true},
		{name: "engine-illegal-for-class", opts: []Option{WithEngine("line")}, invalid: true},
		{name: "servers-zero", opts: []Option{WithServers(0)}, invalid: true},
		{name: "servers-negative", opts: []Option{WithServers(-4)}, invalid: true},
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

// TestOptionsOrderIndependent: the fault schedule's seed, derived from
// WithSeed when the spec leaves it 0, and the retry budget must not depend
// on the order of WithSeed, WithFaults and WithRetry.
func TestOptionsOrderIndependent(t *testing.T) {
	q, data := matmulFixture()
	spec := FaultSpec{DropProb: 0.3, CrashProb: 0.1}
	a, err := Execute[int64](Ints(), q, data, WithSeed(42), WithFaults(spec), WithRetry(12))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute[int64](Ints(), q, data, WithRetry(12), WithFaults(spec), WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if a.Faults.Injected == 0 {
		t.Fatal("schedule injected nothing (weak seed)")
	}
	if !reflect.DeepEqual(a.Faults, b.Faults) {
		t.Errorf("option order changed the fault schedule: %+v vs %+v", a.Faults, b.Faults)
	}
	if a.Stats != b.Stats || !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Errorf("option order changed the result: %+v vs %+v", a.Stats, b.Stats)
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
