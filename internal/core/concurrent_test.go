package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	stdruntime "runtime"
	"sync"
	"testing"
	"time"

	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/planner"
	"mpcjoin/internal/relation"
)

// TestConcurrentExecutionsIsolated documents the fix for the historical
// global-runtime race: Options.Workers used to swap a process-global
// runtime, so two concurrent Execute calls wanting different pool sizes
// stomped each other. With per-execution scoping, concurrent executions
// with mixed Workers and Servers must produce results and Stats
// bit-identical to their serial baselines. Run under -race.
func TestConcurrentExecutionsIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	configs := []struct {
		q    *hypergraph.Query
		opts Options
	}{
		{hypergraph.MatMulQuery(), Options{Servers: 8, Seed: 1}},
		{hypergraph.LineQuery(3), Options{Servers: 16, Seed: 2}},
		{hypergraph.Fig1StarLike(), Options{Servers: 5, Seed: 6}},
		{hypergraph.StarQuery(3), Options{Servers: 8, Seed: 3, Engine: planner.EngineYannakakis}},
		{hypergraph.Fig3Twig(), Options{Servers: 5, Seed: 4, Engine: planner.EngineTree}},
	}
	type baseline struct {
		rel *relation.Relation[int64]
		st  mpc.Stats
	}
	instances := make([]map[string]*relation.Relation[int64], len(configs))
	baselines := make([]baseline, len(configs))
	for i, c := range configs {
		instances[i] = randomInstance(rng, c.q, 18, 5)
		o := c.opts
		o.Workers = 1 // serial reference semantics
		rel, st, err := Execute(intSR, c.q, instances[i], o)
		if err != nil {
			t.Fatalf("config %d baseline: %v", i, err)
		}
		rel.SortRows()
		baselines[i] = baseline{rel: rel, st: st}
	}

	// 12 concurrent executions (≥ 8), cycling configs and worker counts;
	// -1 means GOMAXPROCS in core.Options.
	workerMix := []int{2, 4, -1, 3}
	var wg sync.WaitGroup
	errs := make([]error, 12)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g % len(configs)
			o := configs[i].opts
			o.Workers = workerMix[g%len(workerMix)]
			rel, st, err := Execute(intSR, configs[i].q, instances[i], o)
			if err != nil {
				errs[g] = fmt.Errorf("config %d workers %d: %v", i, o.Workers, err)
				return
			}
			rel.SortRows()
			if st != baselines[i].st {
				errs[g] = fmt.Errorf("config %d workers %d: stats %+v, serial baseline %+v", i, o.Workers, st, baselines[i].st)
				return
			}
			if !relation.Equal(intSR, intEq, rel, baselines[i].rel) {
				errs[g] = fmt.Errorf("config %d workers %d: result differs from serial baseline", i, o.Workers)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// slowSR is IntSumProd with a sleep in Mul — a synthetic workload whose
// rounds take real wall time, so a mid-round cancellation is observable.
type slowSR struct{ d time.Duration }

func (slowSR) Zero() int64            { return 0 }
func (slowSR) One() int64             { return 1 }
func (slowSR) Add(a, b int64) int64   { return a + b }
func (s slowSR) Mul(a, b int64) int64 { time.Sleep(s.d); return a * b }
func (slowSR) Equal(a, b int64) bool  { return a == b }

// TestExecuteContextCancel cancels a deliberately slow execution mid-run
// and asserts it returns context.Canceled promptly — within one MPC round,
// not after running to completion — and that no execution goroutines leak.
func TestExecuteContextCancel(t *testing.T) {
	q := hypergraph.LineQuery(3)
	rng := rand.New(rand.NewSource(11))
	inst := randomInstance(rng, q, 80, 10)
	opts := Options{Servers: 8, Seed: 5, Workers: 2, Engine: planner.EngineYannakakis}
	sr := slowSR{d: 200 * time.Microsecond}

	// Uncancelled reference duration: the full run must be much slower
	// than the cancelled one for the "stopped early" assertion to mean
	// anything.
	full := time.Now()
	if _, _, err := Execute[int64](sr, q, inst, opts); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	fullDur := time.Since(full)

	before := stdruntime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, _, err := ExecuteContext[int64](ctx, sr, q, inst, opts)
		done <- err
	}()
	time.Sleep(fullDur / 10)
	cancel()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled execution did not return")
	}
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	// The execution must stop at the next round barrier: well before the
	// full runtime (generous 3/4 bound to stay robust under -race).
	if elapsed >= fullDur*3/4 {
		t.Errorf("cancelled run took %v of a %v full run; cancellation did not stop it early", elapsed, fullDur)
	}
	// Fork–join workers are joined before ExecuteContext returns, so the
	// goroutine count must settle back (poll briefly for scheduler noise).
	deadline := time.Now().Add(5 * time.Second)
	for stdruntime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := stdruntime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutines leaked: %d before, %d after cancellation", before, n)
	}
}

// TestExecuteContextDeadline exercises the deadline path: an already
// expired context must fail fast without producing a result.
func TestExecuteContextDeadline(t *testing.T) {
	q := hypergraph.MatMulQuery()
	rng := rand.New(rand.NewSource(13))
	inst := randomInstance(rng, q, 60, 8)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	rel, _, err := ExecuteContext(ctx, intSR, q, inst, Options{Servers: 8, Workers: 2})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want context.DeadlineExceeded", err)
	}
	if rel != nil {
		t.Fatal("cancelled execution returned a partial result")
	}
}

// TestExecuteContextBackgroundMatchesExecute pins the delegation: Execute
// and ExecuteContext(Background) are the same computation.
func TestExecuteContextBackgroundMatchesExecute(t *testing.T) {
	q := hypergraph.LineQuery(3)
	rng := rand.New(rand.NewSource(17))
	inst := randomInstance(rng, q, 60, 9)
	opts := Options{Servers: 8, Seed: 9}
	a, sta, err := Execute(intSR, q, inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, stb, err := ExecuteContext(context.Background(), intSR, q, inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	a.SortRows()
	b.SortRows()
	if sta != stb || !relation.Equal(intSR, intEq, a, b) {
		t.Fatal("ExecuteContext(Background) differs from Execute")
	}
}
