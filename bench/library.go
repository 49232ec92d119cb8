package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"mpcjoin"
	"mpcjoin/internal/core"
	"mpcjoin/internal/dist"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/planner"
	"mpcjoin/internal/refengine"
	"mpcjoin/internal/relation"
	"mpcjoin/internal/transport"
)

// libWorkload is a list of library instances run one after another through
// the public entry point: mpcjoin.ExecuteContext, or for matmul_tcp
// core.ExecuteContext over two loopback shuffle peers.
type libWorkload struct {
	keys   []string
	tcp    bool
	shrink int

	seed  uint64
	insts []*instance
	peers []*transport.Peer
	wire  transport.Transport
	// warm holds the warm-up op's outcome per instance, so the correctness
	// gate checks it instead of executing again.
	warm map[string]*outcome
}

// outcome is one op's answer and cost.
type outcome struct {
	pub   *mpcjoin.Result[int64]
	rel   *relation.Relation[int64]
	stats mpc.Stats
	class string
	rows  int
}

func (w *libWorkload) setup(seed int64, warm bool) error {
	rng := rand.New(rand.NewSource(seed))
	w.seed = uint64(seed)
	w.insts, w.warm = nil, make(map[string]*outcome)
	sp := specs(w.shrink)
	for _, k := range w.keys {
		in, err := genInstance(k, sp[k], rng)
		if err != nil {
			return err
		}
		w.insts = append(w.insts, in)
	}
	if w.tcp {
		for i := 0; i < 2; i++ {
			p, err := transport.ListenPeer("127.0.0.1:0")
			if err != nil {
				return fmt.Errorf("starting shuffle peer: %w", err)
			}
			w.peers = append(w.peers, p)
		}
		w.wire = transport.TCP(w.peers[0].Addr(), w.peers[1].Addr())
	}
	if warm {
		for _, in := range w.insts {
			out, _, err := w.op(in, 1)
			if err != nil {
				return fmt.Errorf("warm-up %s: %w", in.key, err)
			}
			w.warm[in.key] = out
		}
	}
	return nil
}

func (w *libWorkload) teardown() {
	for _, p := range w.peers {
		p.Close()
	}
	w.peers, w.wire, w.insts, w.warm = nil, nil, nil, nil
}

// op runs one instance through the workload's entry point and times it.
// It collects garbage first, outside the timing, so every op starts from
// the same heap: without that the previous op's garbage decides when this
// op's first collection runs, and peak RSS of matmul_sweep was bimodal
// (247 or 335 MB) from one run to the next.
func (w *libWorkload) op(in *instance, workers int) (*outcome, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	out, err := w.call(in, workers)
	return out, time.Since(start), err
}

func (w *libWorkload) call(in *instance, workers int) (*outcome, error) {
	ctx := context.Background()
	if w.tcp {
		var plan planner.Plan
		rel, st, err := core.ExecuteContext(ctx, intSR, in.q, in.data, core.Options{
			Servers: servers, Seed: w.seed, Workers: workers, Transport: w.wire, PlanOut: &plan,
		})
		if err != nil {
			return nil, err
		}
		rel.SortRows()
		return &outcome{rel: rel, stats: st, class: plan.Class, rows: rel.Len()}, nil
	}
	res, err := mpcjoin.ExecuteContext(ctx, mpcjoin.Ints(), in.pq, in.pub,
		mpcjoin.WithServers(servers), mpcjoin.WithSeed(w.seed), mpcjoin.WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	return &outcome{pub: res, stats: res.Stats, class: res.Class, rows: len(res.Rows)}, nil
}

func (w *libWorkload) verify() (attempted, failed int, err error) {
	for _, in := range w.insts {
		in.want, err = reference(in.q, in.data)
		if err != nil {
			return 0, 0, fmt.Errorf("reference for %s: %w", in.key, err)
		}
		out := w.warm[in.key]
		if out == nil {
			if out, _, err = w.op(in, 1); err != nil {
				return 0, 0, fmt.Errorf("%s: %w", in.key, err)
			}
		}
		attempted++
		ok := false
		if out.pub != nil {
			ok = samePublicRows(in.want, out.pub)
		} else {
			ok = sameRows(in.want, out.rel)
		}
		if !ok {
			failed++
		}
	}
	w.warm = nil
	return attempted, failed, nil
}

func (w *libWorkload) boundOf(in *instance, class string, out int) float64 {
	s := sizesOf(in.q, func(name string) int { return in.data[name].Len() }, out)
	return tableBound(class, s, servers)
}

func (w *libWorkload) pass(t *tracer, idx int) (*passResult, error) {
	if t != nil {
		return w.tracedPass(t, idx)
	}
	return w.plainPass(1)
}

// plainPass is the timed pass: every instance once, auto-planned.
func (w *libWorkload) plainPass(workers int) (*passResult, error) {
	pr := &passResult{}
	start := time.Now()
	for _, in := range w.insts {
		out, d, err := w.op(in, workers)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.key, err)
		}
		pr.ops = append(pr.ops, opResult{in.key, d})
		pr.note(out.stats, w.boundOf(in, out.class, out.rows))
	}
	pr.wall = time.Since(start)
	pr.attempted = len(pr.ops)
	return pr, nil
}

// note folds one op's metered cost into the pass.
func (pr *passResult) note(st mpc.Stats, bound float64) {
	pr.rounds += int64(st.Rounds)
	pr.exact = append(pr.exact, int64(st.Rounds), int64(st.MaxLoad), st.TotalComm)
	pr.loadOverBound = max(pr.loadOverBound, ratio(float64(st.MaxLoad), bound))
}

// tracedPass runs each instance as the layer-by-layer sequence the public
// entry point performs inside — place, plan, execute with the planned
// engine forced, gather, materialize — with a span around each call.
func (w *libWorkload) tracedPass(t *tracer, idx int) (*passResult, error) {
	pr := &passResult{layer: make(map[string]float64)}
	root := t.begin("pass", -1, idx)
	start := time.Now()
	var tot execTotals
	for i, in := range w.insts {
		if err := w.tracedOp(t, root, idx*len(w.insts)+i, in, pr, &tot); err != nil {
			return nil, err
		}
	}
	pr.wall = time.Since(start)
	pr.attempted = len(pr.ops)
	t.end(root)
	tot.fill(pr.layer)
	return pr, nil
}

// tracedOp is one instance of a traced pass.
func (w *libWorkload) tracedOp(t *tracer, root, opID int, in *instance, pr *passResult, tot *execTotals) error {
	runtime.GC() // as in op
	ctx := context.Background()
	op := t.begin("op:"+in.key, root, opID)
	start := time.Now()

	d := t.timed("place", op, opID, func() {
		ex := mpc.NewExec(ctx, 1)
		for _, e := range in.q.Edges {
			dist.FromRelationIn(ex, in.data[e.Name], servers)
		}
	})
	pr.layer["core.place_us"] += us(d)

	opts := core.Options{Servers: servers, Seed: w.seed, Workers: 1, Transport: w.wire}
	var plan planner.Plan
	var err error
	d = t.timed("plan", op, opID, func() { plan, err = core.PlanInstance(ctx, in.q, in.data, opts) })
	if err != nil {
		return fmt.Errorf("planning %s: %w", in.key, err)
	}
	pr.layer["planner.plan_ms"] += ms(d)
	pr.layer["planner.prepass_rounds"] += float64(plan.EstimateStats.Rounds)
	pr.layer["planner.prepass_load_max"] = max(pr.layer["planner.prepass_load_max"], float64(plan.EstimateStats.MaxLoad))

	opts.Engine, opts.Tracer = plan.Chosen, mpc.NewTracer()
	var res dist.Rel[int64]
	var st mpc.Stats
	execD := t.timed("execute", op, opID, func() { res, st, err = core.ExecuteDistributedContext(ctx, intSR, in.q, in.data, opts) })
	if err != nil {
		return fmt.Errorf("executing %s forced to %s: %w", in.key, plan.Chosen, err)
	}
	tot.add(execD, opts.Tracer.Rounds())

	var rel *relation.Relation[int64]
	d = t.timed("gather", op, opID, func() { rel = dist.ToRelation(res) })
	pr.layer["core.gather_ms"] += ms(d)

	d = t.timed("materialize", op, opID, func() { materialize(rel) })
	pr.layer["core.materialize_ms"] += ms(d)

	t.end(op)
	pr.ops = append(pr.ops, opResult{in.key, time.Since(start)})

	bound := w.boundOf(in, plan.Class, rel.Len())
	pr.note(st, bound)
	if in.want != nil && !sameRows(in.want, rel) {
		pr.failed++
	}
	if !w.tcp {
		pr.layer["engine."+in.key+".exec_ms"] = ms(execD)
		pr.layer["engine."+in.key+".rounds"] = float64(st.Rounds)
		pr.layer["engine."+in.key+".load_over_bound"] = ratio(float64(st.MaxLoad), bound)
	}
	pr.layer["planner.residual_max"] = max(pr.layer["planner.residual_max"], ratio(float64(st.MaxLoad), plan.PredictedLoad))
	return nil
}

// materialize does what the public entry point does after the engine
// returns: sort the rows and copy them into one backing buffer.
func materialize(rel *relation.Relation[int64]) []mpcjoin.Row[int64] {
	rel.SortRows()
	w := rel.Arity()
	buf := make([]mpcjoin.Value, len(rel.Rows)*w)
	rows := make([]mpcjoin.Row[int64], len(rel.Rows))
	for i, row := range rel.Rows {
		var vals []mpcjoin.Value
		if w > 0 {
			vals = buf[i*w : (i+1)*w : (i+1)*w]
			copy(vals, row.Vals)
		}
		rows[i] = mpcjoin.Row[int64]{Vals: vals, Annot: row.W}
	}
	return rows
}

func (w *libWorkload) probes(lc *layerCtx) error {
	l := lc.ms
	l.set("planner.plan_share", ratio(l.get("planner.plan_ms"), lc.untracedMS))

	if err := lc.parPass(w.plainPass); err != nil {
		return err
	}

	if w.tcp {
		return w.transportProbes(lc)
	}

	// Forced yannakakis on the instances where the comparison is the
	// paper's: the default join against the specialised engine.
	ctx := context.Background()
	for _, in := range w.insts {
		if !slices.Contains(yannKeys, in.key) {
			continue
		}
		var ds []float64
		for i := 0; i < lc.reps; i++ {
			t0 := time.Now()
			_, _, err := core.ExecuteContext(ctx, intSR, in.q, in.data, core.Options{
				Servers: servers, Seed: w.seed, Workers: 1, Engine: planner.EngineYannakakis,
			})
			if err != nil {
				return fmt.Errorf("forced yannakakis on %s: %w", in.key, err)
			}
			ds = append(ds, ms(time.Since(t0)))
		}
		l.set("engine."+in.key+".yann_ms", median(ds))
	}

	// The plain single-threaded baseline over the same instances.
	var ref, sim float64
	for _, in := range w.insts {
		t0 := time.Now()
		if _, err := refengine.Yannakakis(intSR, in.q, in.data); err != nil {
			return fmt.Errorf("refengine on %s: %w", in.key, err)
		}
		ref += ms(time.Since(t0))
		sim += l.get("engine." + in.key + ".exec_ms")
	}
	l.set("refengine.pass_ms", ref)
	l.set("engine.sim_over_ref_x", ratio(sim, ref))
	return nil
}

// transportProbes compares the TCP pass with the same instances in
// process and reads the peers' own counters.
func (w *libWorkload) transportProbes(lc *layerCtx) error {
	l := lc.ms
	ctx := context.Background()

	before := w.peerStats()
	pr, err := w.plainPass(1)
	if err != nil {
		return err
	}
	after := w.peerStats()
	frames := float64(after.Rounds - before.Rounds)
	l.set("transport.frames_total", frames)
	l.set("transport.bytes_per_round", ratio(float64(after.Bytes-before.Bytes), frames))

	var inproc []float64 // the same ops through the in-process barrier
	for i := 0; i < lc.reps; i++ {
		var total time.Duration
		for _, in := range w.insts {
			runtime.GC() // as in op
			t0 := time.Now()
			_, _, err := core.ExecuteContext(ctx, intSR, in.q, in.data, core.Options{Servers: servers, Seed: w.seed, Workers: 1})
			total += time.Since(t0)
			if err != nil {
				return err
			}
		}
		inproc = append(inproc, ms(total))
	}
	l.set("transport.tcp_over_inproc_x", ratio(lc.untracedMS, median(inproc)))
	l.set("transport.round_overhead_us", ratio(1000*(lc.untracedMS-median(inproc)), float64(pr.rounds)))

	var conn []float64
	for i := 0; i < 5*lc.reps; i++ {
		t0 := time.Now()
		wr, err := w.wire.Connect(ctx)
		if err != nil {
			return fmt.Errorf("connecting transport: %w", err)
		}
		wr.Close()
		conn = append(conn, us(time.Since(t0)))
	}
	l.set("transport.connect_us", median(conn))
	return nil
}

func (w *libWorkload) peerStats() transport.PeerStats {
	var s transport.PeerStats
	for _, p := range w.peers {
		ps := p.Stats()
		s.Rounds += ps.Rounds
		s.Bytes += ps.Bytes
	}
	return s
}
