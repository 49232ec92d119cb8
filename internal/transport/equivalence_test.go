package transport_test

// Transport equivalence property test — the tentpole's contract: running
// any query class under any semiring over the TCP backend (three
// loopback shuffle peers) must give bit-for-bit the same rows, the same
// metered Stats, AND the same per-round trace as the in-process backend.
// This is the wire-level analogue of the runtime determinism sweep: the
// exchange barrier delivers identical inboxes whichever transport
// carries them, so everything derived downstream is identical too.

import (
	"context"
	"math/rand"
	"reflect"
	"runtime/debug"
	"testing"

	"mpcjoin/internal/core"
	"mpcjoin/internal/db"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/relation"
	"mpcjoin/internal/semiring"
	"mpcjoin/internal/transport"
	"mpcjoin/internal/workload"
)

// bootPeers starts n loopback shuffle peers torn down with the test and
// returns their addresses.
func bootPeers(t *testing.T, n int) []string {
	t.Helper()
	addrs, release, err := transport.Loopback(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(release)
	return addrs
}

func freeConnexQuery() *hypergraph.Query {
	return hypergraph.NewQuery([]hypergraph.Edge{
		hypergraph.Bin("R1", "A", "B"),
		hypergraph.Bin("R2", "B", "C"),
	}, "A", "B", "C")
}

func mapAnnot[W any](inst db.Instance[int64], f func(int64) W) db.Instance[W] {
	out := make(db.Instance[W], len(inst))
	for name, r := range inst {
		nr := relation.New[W](r.Schema()...)
		for _, row := range r.Rows {
			nr.Append(f(row.W), row.Vals...)
		}
		out[name] = nr
	}
	return out
}

// assertTransportEquivalent runs the query on the in-process backend and
// over TCP and requires identical rows, Stats and traces.
func assertTransportEquivalent[W any](t *testing.T, sr semiring.Semiring[W], q *hypergraph.Query, inst db.Instance[W], p int, peers []string) {
	t.Helper()
	base := core.Options{Servers: p, Seed: 11, Workers: 2}

	inOpts := base
	inOpts.Tracer = mpc.NewTracer()
	resI, stI, err := core.Execute(sr, q, inst, inOpts)
	if err != nil {
		t.Fatalf("inproc execute: %v", err)
	}

	tcpOpts := base
	tcpOpts.Tracer = mpc.NewTracer()
	tcpOpts.Transport = transport.TCP(peers...)
	// The TCP legs of both sweeps run with the collector going almost
	// continuously, so an inbox holding a pointer the collector never saw
	// — one rebuilt from bytes that crossed a socket — gets its referent
	// freed within the run instead of once in a long while.
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	resT, stT, err := core.Execute(sr, q, inst, tcpOpts)
	if err != nil {
		t.Fatalf("tcp execute: %v", err)
	}

	if stI != stT {
		t.Errorf("Stats diverge: inproc %+v, tcp %+v", stI, stT)
	}
	if trI, trT := inOpts.Tracer.Rounds(), tcpOpts.Tracer.Rounds(); !reflect.DeepEqual(trI, trT) {
		t.Errorf("traces diverge: inproc %d rounds, tcp %d rounds (%+v vs %+v)", len(trI), len(trT), trI, trT)
	}
	resI.SortRows()
	resT.SortRows()
	if !reflect.DeepEqual(resI.Schema(), resT.Schema()) {
		t.Errorf("schemas diverge: inproc %v, tcp %v", resI.Schema(), resT.Schema())
	}
	if !reflect.DeepEqual(resI.Rows, resT.Rows) {
		t.Errorf("rows diverge: inproc %d rows, tcp %d rows", resI.Len(), resT.Len())
	}
}

// TestTransportEquivalence sweeps every query class × four semirings ×
// p ∈ {4, 16} over a 3-peer loopback cluster, comparing the TCP backend
// against in-process execution. One cluster serves the whole sweep —
// every execution dials its own connections, like coordinators sharing
// a long-lived peer tier.
func TestTransportEquivalence(t *testing.T) {
	peers := bootPeers(t, 3)

	queries := []struct {
		name string
		q    *hypergraph.Query
	}{
		{"matmul", hypergraph.MatMulQuery()},
		{"line", hypergraph.LineQuery(3)},
		{"star", hypergraph.StarQuery(3)},
		{"star-like", hypergraph.Fig1StarLike()},
		{"tree", hypergraph.Fig2Tree()},
		{"free-connex", freeConnexQuery()},
	}
	for _, qc := range queries {
		n, dom := 60, 8
		if len(qc.q.Output) > 3 {
			n, dom = 40, 64
		}
		rng := rand.New(rand.NewSource(int64(len(qc.name)) * 97))
		uni, _ := workload.Uniform(qc.q, n, dom, rng)

		for _, p := range []int{4, 16} {
			t.Run(qc.name+"/int-sum-prod/p="+itoa(p), func(t *testing.T) {
				assertTransportEquivalent[int64](t, semiring.IntSumProd{}, qc.q, uni, p, peers)
			})
			t.Run(qc.name+"/bool-or-and/p="+itoa(p), func(t *testing.T) {
				boolInst := mapAnnot(uni, func(w int64) bool { return w != 0 })
				assertTransportEquivalent[bool](t, semiring.BoolOrAnd{}, qc.q, boolInst, p, peers)
			})
			t.Run(qc.name+"/min-plus/p="+itoa(p), func(t *testing.T) {
				tropInst := mapAnnot(uni, func(w int64) int64 { return w })
				assertTransportEquivalent[int64](t, semiring.MinPlus{}, qc.q, tropInst, p, peers)
			})
			// A pointer-bearing annotation inside a columnar Row: its
			// payload crosses the wire but must never be decoded.
			t.Run(qc.name+"/why-provenance/p="+itoa(p), func(t *testing.T) {
				var id semiring.Witness
				whyInst := mapAnnot(uni, func(int64) semiring.Provenance { id++; return semiring.Why(id) })
				assertTransportEquivalent[semiring.Provenance](t, semiring.WhyProvenance{}, qc.q, whyInst, p, peers)
			})
		}
	}
}

// TestTransportEquivalenceUnderFaults runs a drop-heavy and a crash
// schedule over TCP: the faults are executed physically (frames elided
// before the socket, inboxes discarded peer-side), and round-level retry
// must still deliver rows, Stats and the fault report bit-identical to
// the same schedule executed in process.
func TestTransportEquivalenceUnderFaults(t *testing.T) {
	peers := bootPeers(t, 3)
	q := hypergraph.LineQuery(3)
	rng := rand.New(rand.NewSource(7))
	inst, _ := workload.Uniform(q, 60, 8, rng)

	specs := map[string]mpc.FaultSpec{
		"drop-20pct":  {Seed: 99, DropProb: 0.20, MaxRetries: 10},
		"crash-early": {Seed: 5, CrashProb: 0.5, CrashRound: 2, MaxRetries: 10},
		"mixed":       {Seed: 31, DropProb: 0.15, CrashProb: 0.1, CrashRound: 3, MaxRetries: 12},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			base := core.Options{Servers: 8, Seed: 11}

			inOpts := base
			inOpts.Faults = mpc.NewFaultPlane(spec)
			resI, stI, err := core.Execute[int64](semiring.IntSumProd{}, q, inst, inOpts)
			if err != nil {
				t.Fatalf("inproc faulted execute: %v", err)
			}

			tcpOpts := base
			tcpOpts.Faults = mpc.NewFaultPlane(spec)
			tcpOpts.Transport = transport.TCP(peers...)
			defer debug.SetGCPercent(debug.SetGCPercent(1)) // as in assertTransportEquivalent
			resT, stT, err := core.Execute[int64](semiring.IntSumProd{}, q, inst, tcpOpts)
			if err != nil {
				t.Fatalf("tcp faulted execute: %v", err)
			}

			if stI != stT {
				t.Errorf("Stats diverge: inproc %+v, tcp %+v", stI, stT)
			}
			repI, repT := inOpts.Faults.Report(), tcpOpts.Faults.Report()
			if !reflect.DeepEqual(repI, repT) {
				t.Errorf("fault reports diverge:\ninproc %+v\ntcp    %+v", repI, repT)
			}
			if repI.Injected == 0 {
				t.Error("schedule injected nothing; the test is vacuous")
			}
			resI.SortRows()
			resT.SortRows()
			if !reflect.DeepEqual(resI.Rows, resT.Rows) {
				t.Errorf("rows diverge under faults")
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// TestSortOutboxOverTCP drives the sample sort directly over the TCP
// backend: Sort's partition round ships rows cut from the sorted tagged
// array rather than from an outbox of its own, and MultiSearch's does the
// same with its merged items (which cross the wire as opaque payloads).
// Shards, Stats and the trace must equal the in-process run's.
func TestSortOutboxOverTCP(t *testing.T) {
	const p, n = 8, 600
	type row = relation.Row[int64]
	rng := rand.New(rand.NewSource(5))
	rows := make([]row, n)
	for i := range rows {
		rows[i] = row{Vals: []relation.Value{relation.Value(rng.Intn(5)), relation.Value(rng.Intn(5)), relation.Value(rng.Intn(5))}, W: int64(i)}
	}
	key := func(r row) string { return relation.EncodeKey(r.Vals, []int{0, 1, 2}) }
	run := func(ex *mpc.Exec) ([][]row, [][]mpc.Pred[row, row], mpc.Stats) {
		sorted, st1 := mpc.Sort(mpc.DistributeIn(ex, rows, p), key)
		preds, st2 := mpc.MultiSearch(sorted, mpc.DistributeIn(ex, rows[:n/4], p), key, key)
		return sorted.Shards, preds.Shards, mpc.Seq(st1, st2)
	}
	trI, trT := mpc.NewTracer(), mpc.NewTracer()
	sortedI, predsI, stI := run(mpc.NewExec(context.Background(), 2).WithTracer(trI))

	w, err := transport.TCP(bootPeers(t, 3)...).Connect(context.Background())
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	defer w.Close()
	sortedT, predsT, stT := run(mpc.NewExec(context.Background(), 2).WithTracer(trT).WithWire(w))

	if stI != stT {
		t.Errorf("Stats diverge: inproc %+v, tcp %+v", stI, stT)
	}
	if !reflect.DeepEqual(trI.Rounds(), trT.Rounds()) {
		t.Error("traces diverge")
	}
	if !reflect.DeepEqual(sortedI, sortedT) {
		t.Error("sorted shards diverge")
	}
	if !reflect.DeepEqual(predsI, predsT) {
		t.Error("multi-search shards diverge")
	}
}

// TestCoordinatorReplyOverTCP drives the coordinator step directly over
// the TCP backend with pointer-carrying statistics (string keys, like the
// engines' grid and block tables): their all-gather crosses real sockets,
// every server decides a layout from its own inbox, and the decisions —
// one input and two inputs in two rounds — must equal the in-process run's,
// Stats and trace included.
func TestCoordinatorReplyOverTCP(t *testing.T) {
	const p = 6
	type block struct {
		Key       string
		Off, Size int
	}
	stats := make([]mpc.KeyCount[string], 40)
	for i := range stats {
		stats[i] = mpc.KeyCount[string]{Key: relation.EncodeKey([]relation.Value{relation.Value(i % 9), relation.Value(i)}, []int{0, 1}), Count: int64(1 + i%4)}
	}
	layout := func(all []mpc.KeyCount[string]) []block {
		var blocks []block
		at := 0
		for _, kc := range all {
			blocks = append(blocks, block{Key: kc.Key, Off: at, Size: int(kc.Count)})
			at += int(kc.Count)
		}
		return blocks
	}
	run := func(ex *mpc.Exec) ([]block, []block, mpc.Stats) {
		in := mpc.DistributeIn(ex, stats, p)
		one, st1 := mpc.Agree(in, "t.stats", layout)
		two, st2 := mpc.Agree(in, "", layout, mpc.DistributeIn(ex, stats[:7], p))
		return one, two, mpc.Seq(st1, st2)
	}
	trI, trT := mpc.NewTracer(), mpc.NewTracer()
	oneI, twoI, stI := run(mpc.NewExec(context.Background(), 2).WithTracer(trI))

	w, err := transport.TCP(bootPeers(t, 3)...).Connect(context.Background())
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	defer w.Close()
	oneT, twoT, stT := run(mpc.NewExec(context.Background(), 2).WithTracer(trT).WithWire(w))

	if stI != stT || stI.Rounds != 3 || stI.MaxLoad != len(stats) || stI.TotalComm != int64(p*(2*len(stats)+7)) {
		t.Errorf("Stats diverge: inproc %+v, tcp %+v", stI, stT)
	}
	if !reflect.DeepEqual(trI.Rounds(), trT.Rounds()) {
		t.Error("traces diverge")
	}
	if !reflect.DeepEqual(oneI, oneT) || len(oneI) != len(stats) {
		t.Error("one-input decision diverges")
	}
	if !reflect.DeepEqual(twoI, twoT) || len(twoI) != len(stats)+7 {
		t.Error("two-input decision diverges")
	}
}
