package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/planner"
	"mpcjoin/internal/relation"
)

// faultedRun executes q under a fresh fault plane built from spec and
// returns the sorted result, the base stats, and the plane's accounting.
func faultedRun(t *testing.T, q *hypergraph.Query, strat string, spec mpc.FaultSpec, workers, n int) (*relation.Relation[int64], mpc.Stats, mpc.FaultReport) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	inst := randomInstance(rng, q, n, 6)
	fp := mpc.NewFaultPlane(spec)
	res, st, err := Execute(intSR, q, inst, Options{Servers: 6, Seed: 5, Workers: workers, Engine: strat, Faults: fp})
	if err != nil {
		t.Fatalf("faulted execute: %v", err)
	}
	res.SortRows()
	return res, st, fp.Report()
}

// TestFaultDeterminismAcrossWorkers: same seed + same fault spec ⇒
// identical injected schedule, identical retry counts, identical rows —
// for every strategy the dispatcher exposes and for worker counts
// 1/4/GOMAXPROCS. Runs in the -race lane: a scheduling-dependent
// injection or retry path shows up here as a diff or a race report.
func TestFaultDeterminismAcrossWorkers(t *testing.T) {
	spec := mpc.FaultSpec{
		Seed:           23,
		CrashProb:      0.08,
		DropProb:       0.10,
		StragglerProb:  0.30,
		StragglerDelay: 8,
		MaxRetries:     12,
	}
	cases := []struct {
		name  string
		q     *hypergraph.Query
		strat string
		// n sizes the random instance; the tree engine's twig query is
		// far more expensive per row, so it runs on a smaller one to
		// keep the race lane fast.
		n int
	}{
		{"matmul-auto", hypergraph.MatMulQuery(), "", 40},
		{"star-auto", hypergraph.StarQuery(3), "", 40},
		{"line-auto", hypergraph.LineQuery(3), "", 40},
		{"tree", hypergraph.Fig3Twig(), planner.EngineTree, 14},
		{"yannakakis", hypergraph.MatMulQuery(), planner.EngineYannakakis, 40},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wantRes, wantSt, wantRep := faultedRun(t, c.q, c.strat, spec, 1, c.n)
			if wantRep.Injected == 0 {
				t.Fatal("schedule injected nothing; the determinism check proves nothing")
			}
			for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
				res, st, rep := faultedRun(t, c.q, c.strat, spec, w, c.n)
				if !relation.Equal[int64](intSR, intEq, res, wantRes) {
					t.Errorf("workers=%d: rows differ from serial run", w)
				}
				if st != wantSt {
					t.Errorf("workers=%d: stats %+v != serial %+v", w, st, wantSt)
				}
				if !reflect.DeepEqual(rep, wantRep) {
					t.Errorf("workers=%d: fault report differs:\n got %+v\nwant %+v", w, rep, wantRep)
				}
			}
		})
	}
}

// TestFaultRetryMatchesFaultFree: the absorbed schedule of the previous
// test must leave rows and base stats identical to a run with no fault
// plane at all — retry recovery is invisible to results and metering.
func TestFaultRetryMatchesFaultFree(t *testing.T) {
	q := hypergraph.MatMulQuery()
	rng := rand.New(rand.NewSource(11))
	inst := randomInstance(rng, q, 40, 6)
	free, stFree, err := Execute(intSR, q, inst, Options{Servers: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	free.SortRows()

	spec := mpc.FaultSpec{Seed: 23, CrashProb: 0.08, DropProb: 0.10, StragglerProb: 0.30, StragglerDelay: 8, MaxRetries: 12}
	faulted, st, rep := faultedRun(t, q, "", spec, 1, 40)
	if rep.Injected == 0 {
		t.Fatal("schedule injected nothing")
	}
	if !relation.Equal[int64](intSR, intEq, faulted, free) {
		t.Error("faulted rows differ from fault-free run")
	}
	if st != stFree {
		t.Errorf("faulted stats %+v != fault-free %+v", st, stFree)
	}
}
