package mpc

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"mpcjoin/internal/relation"
)

// faultPipeline runs a small multi-round dataflow (route, rebalance,
// broadcast of a filtered slice) under the given scope and returns the
// final collected data and the Seq-composed stats — deterministic for
// any worker count, which is exactly what the fault plane must preserve.
func faultPipeline(ex *Exec, p, n int) ([]int, Stats) {
	data := make([]int, n)
	for i := range data {
		data[i] = i * 7 % 53
	}
	pt := DistributeIn(ex, data, p)
	pt, st1 := Route(pt, func(src int, x int) int { return x % p })
	pt, st2 := Rebalance(pt)
	small := Filter(pt, func(x int) bool { return x%5 == 0 })
	bc, st3 := Broadcast(small)
	pt, st4 := Route(bc, func(src int, x int) int { return (x + src) % p })
	return Collect(pt), Seq(st1, st2, st3, st4)
}

// sortPipeline is faultPipeline for the sample sort: fat rows are sorted by
// a 3-column EncodeKey key and then multi-searched against a sample of
// themselves, so every partition round ships rows cut from the sorted
// tagged array (the zero-copy outbox) and a retry must re-read them from
// that checkpoint intact.
func sortPipeline(ex *Exec, p, n int) ([]int, Stats) {
	type row = relation.Row[int64]
	rows, idx := fatRows(n, 3, 61), allCols(3)
	key := func(r row) string { return relation.EncodeKey(r.Vals, idx) }
	sorted, st1 := Sort(DistributeIn(ex, rows, p), key)
	preds, st2 := MultiSearch(sorted, DistributeIn(ex, rows[:n/4], p), key, key)
	var out []int
	for _, pr := range Collect(preds) {
		out = append(out, int(pr.X.W), int(pr.Y.W))
	}
	return out, Seq(st1, st2)
}

func execWith(workers int, spec *FaultSpec) (*Exec, *FaultPlane) {
	ex := NewExec(context.Background(), workers)
	if spec == nil {
		return ex, nil
	}
	fp := NewFaultPlane(*spec)
	return ex.WithFaults(fp), fp
}

// TestFaultRetryTransparent pins the complete-delivery exits of the
// barrier loop: with no plane, with a plane that may not retry, and with
// any schedule the retry budget absorbs, on either carrier, data, base
// Stats and the trace are bit-identical to a fault-free in-process run —
// and the two carriers account the same FaultReport. It runs over the
// routing pipeline and over the sort pipeline, whose outboxes alias the
// sorted shard instead of owning a copy.
func TestFaultRetryTransparent(t *testing.T) {
	const p, n = 8, 400
	for pname, pipeline := range map[string]func(*Exec, int, int) ([]int, Stats){"route": faultPipeline, "sort": sortPipeline} {
		testFaultRetryTransparent(t, pname, p, n, pipeline)
	}
}

func testFaultRetryTransparent(t *testing.T, pname string, p, n int, pipeline func(*Exec, int, int) ([]int, Stats)) {
	trFree := NewTracer()
	wantData, wantStats := pipeline(NewExec(context.Background(), 1).WithTracer(trFree), p, n)

	specs := map[string]*FaultSpec{
		"no-plane":       nil,
		"no-retries":     {Seed: 7, StragglerProb: 0.9, MaxRetries: -1},
		"crash-round-1":  {Seed: 3, CrashRound: 1},
		"crash-10pct":    {Seed: 18, CrashProb: 0.10, MaxRetries: 8},
		"drop-20pct":     {Seed: 5, DropProb: 0.20, MaxRetries: 8},
		"straggler-only": {Seed: 7, StragglerProb: 0.9, StragglerDelay: 4},
		"mixed":          {Seed: 9, CrashProb: 0.1, DropProb: 0.2, StragglerProb: 0.3, MaxRetries: 10},
	}
	for name, spec := range specs {
		name = pname + "/" + name
		var reports []FaultReport
		for _, carrier := range []string{"in-proc", "wire"} {
			ex, fp := execWith(1, spec)
			if carrier == "wire" {
				ex = ex.WithWire(&loopWire{})
			}
			tr := NewTracer()
			got, st := pipeline(ex.WithTracer(tr), p, n)
			if !reflect.DeepEqual(got, wantData) {
				t.Errorf("%s/%s: data differs from fault-free run", name, carrier)
			}
			if st != wantStats {
				t.Errorf("%s/%s: stats %+v != fault-free %+v", name, carrier, st, wantStats)
			}
			if !reflect.DeepEqual(tr.Rounds(), trFree.Rounds()) {
				t.Errorf("%s/%s: trace differs from fault-free run", name, carrier)
			}
			if spec == nil {
				continue
			}
			rep := fp.Report()
			reports = append(reports, rep)
			if rep.Rounds == 0 {
				t.Errorf("%s/%s: plane observed no rounds", name, carrier)
			}
			if rep.Injected == 0 {
				t.Errorf("%s/%s: schedule injected nothing (weak test seed)", name, carrier)
			}
			if rep.Detected != rep.Crashes+rep.Drops {
				t.Errorf("%s/%s: detected %d != crashes %d + drops %d", name, carrier, rep.Detected, rep.Crashes, rep.Drops)
			}
			if rep.Absorbed != rep.Stragglers {
				t.Errorf("%s/%s: absorbed %d != stragglers %d", name, carrier, rep.Absorbed, rep.Stragglers)
			}
		}
		if len(reports) == 2 && !reflect.DeepEqual(reports[0], reports[1]) {
			t.Errorf("%s: fault reports differ across carriers:\nin-proc %+v\nwire    %+v", name, reports[0], reports[1])
		}
	}
}

// TestFaultDeterminism: same seed + same spec ⇒ identical injected
// schedule, retry counts and results across worker counts (satellite
// requirement: 1, 4, GOMAXPROCS).
func TestFaultDeterminism(t *testing.T) {
	const p, n = 16, 900
	spec := FaultSpec{Seed: 11, CrashProb: 0.08, DropProb: 0.15, StragglerProb: 0.25, MaxRetries: 10}

	type outcome struct {
		data []int
		st   Stats
		rep  FaultReport
	}
	run := func(workers int) outcome {
		ex, fp := execWith(workers, &spec)
		data, st := faultPipeline(ex, p, n)
		return outcome{data: data, st: st, rep: fp.Report()}
	}

	want := run(1)
	if want.rep.Injected == 0 {
		t.Fatal("schedule injected nothing; pick a richer seed")
	}
	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		got := run(w)
		if !reflect.DeepEqual(got.data, want.data) {
			t.Errorf("workers=%d: data differs", w)
		}
		if got.st != want.st {
			t.Errorf("workers=%d: stats %+v != %+v", w, got.st, want.st)
		}
		if !reflect.DeepEqual(got.rep, want.rep) {
			t.Errorf("workers=%d: fault report differs:\n got %+v\nwant %+v", w, got.rep, want.rep)
		}
	}
}

// TestFaultBudgetExceeded: a schedule that faults the same round past its
// retry budget must abort with the typed error, recovered at the root.
func TestFaultBudgetExceeded(t *testing.T) {
	spec := FaultSpec{Seed: 1, CrashProb: 1, MaxRetries: 2}
	ex, fp := execWith(1, &spec)

	var err error
	func() {
		defer Recover(&err)
		faultPipeline(ex, 4, 100)
	}()
	if !errors.Is(err, ErrFaultBudgetExceeded) {
		t.Fatalf("want ErrFaultBudgetExceeded, got %v", err)
	}
	var fbe *FaultBudgetError
	if !errors.As(err, &fbe) {
		t.Fatalf("want *FaultBudgetError, got %T", err)
	}
	if fbe.Round != 1 || fbe.Attempts != 3 || fbe.Kind != "crash" {
		t.Errorf("unexpected budget error detail: %+v", fbe)
	}
	rep := fp.Report()
	if rep.Retried != 2 || rep.RetriedRounds != 1 {
		t.Errorf("want 2 retries of 1 round, got %+v", rep)
	}
	if rep.BackoffUnits != 1+2 {
		t.Errorf("want backoff 3 units (1+2), got %d", rep.BackoffUnits)
	}
}

// TestFaultNoRetries: MaxRetries < 0 means the first detected fault
// exhausts the budget.
func TestFaultNoRetries(t *testing.T) {
	spec := FaultSpec{Seed: 1, CrashRound: 1, MaxRetries: -1}
	ex, _ := execWith(1, &spec)
	var err error
	func() {
		defer Recover(&err)
		faultPipeline(ex, 4, 100)
	}()
	var fbe *FaultBudgetError
	if !errors.As(err, &fbe) || fbe.Attempts != 1 {
		t.Fatalf("want single-attempt budget error, got %v", err)
	}
}

// TestFaultStopAfter: injection stops after the configured round count.
func TestFaultStopAfter(t *testing.T) {
	spec := FaultSpec{Seed: 2, DropProb: 1, MaxRetries: -1, StopAfter: 0}
	// DropProb=1 with no retries would abort at the first data-moving
	// round; StopAfter=0 keeps that behavior, StopAfter bounds it.
	ex, _ := execWith(1, &spec)
	var err error
	func() {
		defer Recover(&err)
		faultPipeline(ex, 4, 100)
	}()
	if !errors.Is(err, ErrFaultBudgetExceeded) {
		t.Fatalf("control run: want budget error, got %v", err)
	}

	// With injection confined to rounds the pipeline doesn't reach...
	// actually confine to 0 < rounds: StopAfter can't be < 1 usefully
	// here, so confine faults to round 1 only and give it one retry:
	spec = FaultSpec{Seed: 2, DropProb: 1, MaxRetries: 1, StopAfter: 1}
	ex, fp := execWith(1, &spec)
	err = nil
	func() {
		defer Recover(&err)
		faultPipeline(ex, 4, 100)
	}()
	// Round 1 drops on attempt 0, and again on attempt 1 (DropProb=1)…
	// which exceeds MaxRetries=1. StopAfter applies to rounds, not
	// attempts, so the correct observation is: all injected faults are
	// in round 1.
	rep := fp.Report()
	for _, ev := range rep.Events {
		if ev.Round > 1 {
			t.Errorf("event beyond StopAfter round: %+v", ev)
		}
	}
}

// TestFaultSpecValidate rejects out-of-model specs.
func TestFaultSpecValidate(t *testing.T) {
	bad := []FaultSpec{
		{CrashProb: 1.5},
		{DropProb: -0.1},
		{StragglerProb: 2},
		{StragglerDelay: -1},
		{CrashRound: -2},
		{StopAfter: -1},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("spec %d: want validation error, got nil", i)
		}
	}
	good := FaultSpec{Seed: 1, CrashProb: 0.5, DropProb: 1, StragglerProb: 0, MaxRetries: -1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	if !good.Enabled() {
		t.Error("spec with CrashProb>0 should be Enabled")
	}
	if (FaultSpec{}).Enabled() {
		t.Error("zero spec must not be Enabled")
	}
}

// TestFaultPlaneReset: a reset plane restarts the schedule from round 1,
// so two sequential executions observe identical reports.
func TestFaultPlaneReset(t *testing.T) {
	spec := FaultSpec{Seed: 4, DropProb: 0.3, MaxRetries: 8}
	fp := NewFaultPlane(spec)
	run := func() FaultReport {
		ex := NewExec(context.Background(), 1).WithFaults(fp)
		faultPipeline(ex, 8, 300)
		return fp.Report()
	}
	first := run()
	fp.Reset()
	second := run()
	if !reflect.DeepEqual(first, second) {
		t.Errorf("reports differ after Reset:\n first %+v\nsecond %+v", first, second)
	}
}

// TestFaultEventsTruncated: the event log caps at maxFaultEvents and
// accounts the overflow instead of growing without bound.
func TestFaultEventsTruncated(t *testing.T) {
	fp := NewFaultPlane(FaultSpec{Seed: 1, StragglerProb: 1})
	ex := NewExec(context.Background(), 1).WithFaults(fp)
	pt := DistributeIn(ex, make([]int, 64), 4)
	for i := 0; i < maxFaultEvents+40; i++ {
		pt, _ = Rebalance(pt)
	}
	rep := fp.Report()
	if len(rep.Events) != maxFaultEvents {
		t.Fatalf("want %d events, got %d", maxFaultEvents, len(rep.Events))
	}
	if rep.EventsTruncated != 40 {
		t.Fatalf("want 40 truncated, got %d", rep.EventsTruncated)
	}
	if rep.Injected != maxFaultEvents+40 {
		t.Fatalf("Injected must count truncated events too, got %d", rep.Injected)
	}
}

// TestFaultTraceCompatible: a traced, faulted, retried run records the
// same per-round timeline as a traced fault-free run — retries are
// invisible to the tracer.
func TestFaultTraceCompatible(t *testing.T) {
	const p, n = 8, 300
	trFree := NewTracer()
	exFree := NewExec(context.Background(), 1).WithTracer(trFree)
	faultPipeline(exFree, p, n)

	spec := FaultSpec{Seed: 9, CrashProb: 0.2, DropProb: 0.2, MaxRetries: 10}
	tr := NewTracer()
	ex, fp := execWith(1, &spec)
	ex = ex.WithTracer(tr)
	faultPipeline(ex, p, n)

	if fp.Report().Retried == 0 {
		t.Fatal("schedule triggered no retries; pick a richer seed")
	}
	if !reflect.DeepEqual(tr.Rounds(), trFree.Rounds()) {
		t.Error("traced timeline differs between faulted and fault-free runs")
	}
}
