package main

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"mpcjoin"
	"mpcjoin/internal/core"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/relation"
	"mpcjoin/internal/spmv"
	"mpcjoin/internal/workload"
)

// Graph shape of graph_iter: PowerLawGraph(100000, 8, 1.2, 16).
const (
	graphN      = 100000
	graphDeg    = 8
	graphSkew   = 1.2
	graphMaxW   = 16
	prIters     = 20
	prDamping   = 0.85
	prTolerance = 1e-9
)

var graphDrivers = []string{"pagerank", "bfs", "sssp"}

// genGraph returns PowerLawGraph(n, 8, 1.2, 16) as an edge list, and the
// label vertex v of the generator carries in it. As in genInstance the
// shape comes from the fixed stream: BFS depth and the number of
// Bellman-Ford sweeps are properties of the shape, two random-tree
// backbones differ in them by an iteration or two, and at three rounds an
// iteration rounds_per_pass moved by 2-7 % from seed to seed. rng, the
// run's seed, permutes the vertex labels and shuffles the edges.
func genGraph(n int, rng *rand.Rand) (edges []mpcjoin.GraphEdge, label []mpcjoin.Value, err error) {
	g, _, err := workload.PowerLawGraph(n, graphDeg, graphSkew, graphMaxW, rand.New(rand.NewSource(shapeSeed)))
	if err != nil {
		return nil, nil, fmt.Errorf("generating graph: %w", err)
	}
	label = make([]mpcjoin.Value, n)
	for v, l := range rng.Perm(n) {
		label[v] = mpcjoin.Value(l)
	}
	rows := g["E"].Rows
	edges = make([]mpcjoin.GraphEdge, len(rows))
	for i, r := range rows {
		edges[i] = mpcjoin.GraphEdge{Src: label[r.Vals[0]], Dst: label[r.Vals[1]], W: r.W}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges, label, nil
}

// graphWorkload runs the three iterated drivers of the root package over
// one generated power-law graph.
type graphWorkload struct {
	shrink int
	seed   uint64
	edges  []mpcjoin.GraphEdge
	src    mpcjoin.Value   // the generator's vertex 0, from which every vertex is reachable
	hubs   []mpcjoin.Value // the generator's first 64 vertices, where its Zipf extras pile up
	warm   map[string]*graphOutcome
	// prDriverMS is the last traced PageRank driver time, which probes
	// turns into a per-iteration figure once it knows the build time.
	prDriverMS float64
	prIterN    int
}

// graphOutcome is one driver's answer and cost.
type graphOutcome struct {
	rows  []mpcjoin.VertexRow
	ranks []mpcjoin.RankRow
	iters []mpcjoin.IterationStat
	stats mpc.Stats
	nnz   int64
}

func (w *graphWorkload) setup(seed int64, warm bool) error {
	rng := rand.New(rand.NewSource(seed))
	w.seed = uint64(seed)
	edges, label, err := genGraph(graphN/w.shrink, rng)
	if err != nil {
		return err
	}
	w.edges, w.src, w.hubs = edges, label[0], label[:min(64, len(label))]
	w.warm = make(map[string]*graphOutcome)
	if warm {
		for _, d := range graphDrivers {
			out, _, err := w.op(d, 1)
			if err != nil {
				return fmt.Errorf("warm-up %s: %w", d, err)
			}
			w.warm[d] = out
		}
	}
	return nil
}

func (w *graphWorkload) teardown() { w.edges, w.hubs, w.warm = nil, nil, nil }

// op runs one driver through the root package and times it. Like
// libWorkload.op it collects first, outside the timing, so every op starts
// from the same heap.
func (w *graphWorkload) op(driver string, workers int) (*graphOutcome, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	out, err := w.call(driver, workers)
	return out, time.Since(start), err
}

func (w *graphWorkload) call(driver string, workers int) (*graphOutcome, error) {
	opts := []mpcjoin.Option{mpcjoin.WithServers(servers), mpcjoin.WithSeed(w.seed), mpcjoin.WithWorkers(workers)}
	switch driver {
	case "pagerank":
		r, err := mpcjoin.PageRank(w.edges, append(opts, mpcjoin.WithMaxIters(prIters))...)
		if err != nil {
			return nil, err
		}
		return &graphOutcome{ranks: r.Ranks, iters: r.Iterations, stats: r.Stats, nnz: r.Edges}, nil
	case "bfs":
		r, err := mpcjoin.BFS(w.edges, w.src, opts...)
		if err != nil {
			return nil, err
		}
		return &graphOutcome{rows: r.Rows, iters: r.Iterations, stats: r.Stats, nnz: r.Edges}, nil
	default:
		r, err := mpcjoin.SSSP(w.edges, w.src, opts...)
		if err != nil {
			return nil, err
		}
		return &graphOutcome{rows: r.Rows, iters: r.Iterations, stats: r.Stats, nnz: r.Edges}, nil
	}
}

func (w *graphWorkload) verify() (attempted, failed int, err error) {
	adj := buildAdjacency(w.edges)
	for _, d := range graphDrivers {
		out := w.warm[d]
		if out == nil {
			if out, _, err = w.op(d, 1); err != nil {
				return 0, 0, fmt.Errorf("%s: %w", d, err)
			}
		}
		attempted++
		ok := false
		switch d {
		case "pagerank":
			ok = sameRanks(seqPageRank(adj), out.ranks)
		case "bfs":
			ok = sameVertexRows(seqBFS(adj, int(w.src)), out.rows)
		default:
			ok = sameVertexRows(seqDijkstra(adj, int(w.src)), out.rows)
		}
		if !ok {
			failed++
		}
	}
	w.warm = nil
	return attempted, failed, nil
}

// iterRatio is the worst per-iteration load over its SpMV bound.
func iterRatio(iters []mpcjoin.IterationStat, nnz int64) float64 {
	var worst float64
	for _, it := range iters {
		worst = max(worst, ratio(float64(it.Stats.MaxLoad), iterBound(nnz, it.In, it.Out, servers)))
	}
	return worst
}

func (w *graphWorkload) pass(t *tracer, idx int) (*passResult, error) {
	if t != nil {
		return w.tracedPass(t, idx)
	}
	return w.plainPass(1)
}

func (w *graphWorkload) plainPass(workers int) (*passResult, error) {
	pr := &passResult{}
	start := time.Now()
	for _, d := range graphDrivers {
		out, dur, err := w.op(d, workers)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d, err)
		}
		pr.ops = append(pr.ops, opResult{d, dur})
		pr.noteGraph(out.stats, iterRatio(out.iters, out.nnz))
	}
	pr.wall = time.Since(start)
	pr.attempted = len(pr.ops)
	return pr, nil
}

func (pr *passResult) noteGraph(st mpc.Stats, worst float64) {
	pr.rounds += int64(st.Rounds)
	pr.exact = append(pr.exact, int64(st.Rounds), int64(st.MaxLoad), st.TotalComm)
	pr.loadOverBound = max(pr.loadOverBound, worst)
}

// tracedPass runs each driver as convert → driver → result against
// internal/spmv directly, the three steps the root entry points perform.
func (w *graphWorkload) tracedPass(t *tracer, idx int) (*passResult, error) {
	ctx := context.Background()
	pr := &passResult{layer: make(map[string]float64)}
	root := t.begin("pass", -1, idx)
	start := time.Now()
	var tot execTotals
	for i, d := range graphDrivers {
		opID := idx*len(graphDrivers) + i
		runtime.GC()
		op := t.begin("op:"+d, root, opID)
		t0 := time.Now()

		opts := core.Options{Servers: servers, Seed: w.seed, Workers: 1, Tracer: mpc.NewTracer()}
		ex, release, err := opts.NewScope(ctx)
		if err != nil {
			return nil, err
		}
		var bedges []spmv.Edge[bool]
		var wedges []spmv.Edge[int64]
		t.timed("convert", op, opID, func() {
			if d == "bfs" {
				bedges = make([]spmv.Edge[bool], len(w.edges))
				for i, e := range w.edges {
					bedges[i] = spmv.Edge[bool]{Src: e.Src, Dst: e.Dst, W: true}
				}
				return
			}
			wedges = make([]spmv.Edge[int64], len(w.edges))
			for i, e := range w.edges {
				wedges[i] = spmv.Edge[int64]{Src: e.Src, Dst: e.Dst, W: e.W}
			}
		})

		var st mpc.Stats
		var iters []spmv.IterStat
		var nnz int64
		var n int
		dd := t.timed("driver", op, opID, func() {
			switch d {
			case "pagerank":
				r := spmv.PageRank(ex, wedges, servers, w.seed, prDamping, 0, prIters)
				st, iters, nnz, n = mpc.Seq(r.Build, r.Stats), r.Iters, r.NNZ, len(r.Ranks)
			case "bfs":
				r := spmv.BFS(ex, bedges, servers, w.seed, w.src, 0)
				st, iters, nnz, n = mpc.Seq(r.Build, r.Stats), r.Iters, r.NNZ, len(r.Rows)
			default:
				r := spmv.SSSP(ex, wedges, servers, w.seed, w.src, 0)
				st, iters, nnz, n = mpc.Seq(r.Build, r.Stats), r.Iters, r.NNZ, len(r.Rows)
			}
		})
		release()
		tot.add(dd, opts.Tracer.Rounds())
		t.timed("result", op, opID, func() { _ = make([]mpcjoin.VertexRow, n) })
		t.end(op)

		pr.ops = append(pr.ops, opResult{d, time.Since(t0)})
		worst := iterRatio(iters, nnz)
		pr.noteGraph(st, worst)
		pr.layer["spmv.iter_load_over_bound_max"] = max(pr.layer["spmv.iter_load_over_bound_max"], worst)
		switch d {
		case "pagerank":
			w.prDriverMS, w.prIterN = ms(dd), len(iters)
		case "bfs":
			pr.layer["spmv.bfs_ms"] = ms(dd)
		default:
			pr.layer["spmv.sssp_ms"] = ms(dd)
		}
	}
	pr.wall = time.Since(start)
	pr.attempted = len(pr.ops)
	t.end(root)
	tot.fill(pr.layer)
	return pr, nil
}

func (w *graphWorkload) probes(lc *layerCtx) error {
	l := lc.ms
	if err := lc.parPass(w.plainPass); err != nil {
		return err
	}

	ex := mpc.NewExec(context.Background(), 1)
	var build, dense, sparse []float64
	for i := 0; i < lc.reps; i++ {
		edges := make([]spmv.Edge[int64], len(w.edges))
		for j, e := range w.edges {
			edges[j] = spmv.Edge[int64]{Src: e.Src, Dst: e.Dst, W: e.W}
		}
		t0 := time.Now()
		eng := spmv.NewEngine[int64](ex, intSR, edges, servers, w.seed)
		build = append(build, ms(time.Since(t0)))

		x := eng.FromVertices(func(relation.Value) int64 { return 1 })
		t0 = time.Now()
		eng.Mul(x)
		dense = append(dense, ms(time.Since(t0)))

		// A frontier the size of a BFS's second level, on the hubs.
		frontier := make([]spmv.Entry[int64], len(w.hubs))
		for j, v := range w.hubs {
			frontier[j] = spmv.Entry[int64]{Idx: v, Val: 1}
		}
		xs, _ := eng.NewVector(frontier)
		t0 = time.Now()
		_, mst := eng.Mul(xs)
		sparse = append(sparse, ms(time.Since(t0)))
		if !mst.Sparse {
			return fmt.Errorf("spmv probe: a 64-entry frontier took the dense path")
		}
	}
	l.set("spmv.build_ms", median(build))
	l.set("spmv.mul_ms", median(dense))
	l.set("spmv.mul_sparse_ms", median(sparse))
	l.set("spmv.pagerank_iter_ms", ratio(w.prDriverMS-median(build), float64(w.prIterN)))

	// The obvious implementation of the same dense multiply: join the edge
	// relation with the vector and reduce by destination.
	q := mpcjoin.NewQuery().Relation("E", "S", "D").Relation("X", "S").GroupBy("D")
	e := mpcjoin.NewRelation[int64]("S", "D")
	seen := make(map[mpcjoin.Value]bool)
	x := mpcjoin.NewRelation[int64]("S")
	for _, ed := range w.edges {
		e.Add(ed.W, ed.Src, ed.Dst)
		for _, v := range []mpcjoin.Value{ed.Src, ed.Dst} {
			if !seen[v] {
				seen[v] = true
				x.Add(1, v)
			}
		}
	}
	t0 := time.Now()
	_, err := mpcjoin.Execute(mpcjoin.Ints(), q, mpcjoin.Instance[int64]{"E": e, "X": x},
		mpcjoin.WithServers(servers), mpcjoin.WithSeed(w.seed), mpcjoin.WithWorkers(1))
	if err != nil {
		return fmt.Errorf("naive join-then-reduce multiply: %w", err)
	}
	naive := ms(time.Since(t0))
	l.set("spmv.naive_join_ms", naive)
	l.set("spmv.naive_over_mul_x", ratio(naive, median(dense)))
	return nil
}

// ---------------------------------------------------------------------------
// Plain sequential references
// ---------------------------------------------------------------------------

type arc struct {
	to relation.Value
	w  int64
}

// adjacency is the graph as out-lists over vertices 0..n-1.
type adjacency struct {
	out [][]arc
}

func buildAdjacency(edges []mpcjoin.GraphEdge) *adjacency {
	n := 0
	for _, e := range edges {
		n = max(n, int(e.Src)+1, int(e.Dst)+1)
	}
	a := &adjacency{out: make([][]arc, n)}
	for _, e := range edges {
		a.out[e.Src] = append(a.out[e.Src], arc{e.Dst, e.W})
	}
	return a
}

// seqBFS returns hop levels from src, -1 for unreachable vertices.
func seqBFS(a *adjacency, src int) []int64 {
	level := make([]int64, len(a.out))
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range a.out[v] {
			if level[e.to] < 0 {
				level[e.to] = level[v] + 1
				queue = append(queue, int(e.to))
			}
		}
	}
	return level
}

type distItem struct {
	v int
	d int64
}
type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// seqDijkstra returns shortest distances from src, -1 for unreachable.
func seqDijkstra(a *adjacency, src int) []int64 {
	dist := make([]int64, len(a.out))
	for i := range dist {
		dist[i] = -1
	}
	h := &distHeap{{src, 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(distItem)
		if dist[it.v] >= 0 {
			continue
		}
		dist[it.v] = it.d
		for _, e := range a.out[it.v] {
			if dist[e.to] < 0 {
				heap.Push(h, distItem{int(e.to), it.d + e.w})
			}
		}
	}
	return dist
}

// seqPageRank is damped power iteration with uniform redistribution of
// dangling mass, under the driver's budget and tolerance.
func seqPageRank(a *adjacency) []float64 {
	n := float64(len(a.out))
	r := make([]float64, len(a.out))
	for i := range r {
		r[i] = 1 / n
	}
	for iter := 0; iter < prIters; iter++ {
		in := make([]float64, len(r))
		var mass float64
		for v, outs := range a.out {
			if len(outs) == 0 {
				mass += r[v]
				continue
			}
			share := r[v] / float64(len(outs))
			for _, e := range outs {
				in[e.to] += share
			}
		}
		var delta float64
		for v := range r {
			next := (1-prDamping)/n + prDamping*(in[v]+mass/n)
			delta = math.Max(delta, math.Abs(next-r[v]))
			in[v] = next
		}
		r = in
		if delta <= prTolerance {
			break
		}
	}
	return r
}

// sameVertexRows checks a traversal's rows (reached vertices, sorted)
// against a dense reference where -1 means unreached.
func sameVertexRows(want []int64, got []mpcjoin.VertexRow) bool {
	reached := 0
	for _, d := range want {
		if d >= 0 {
			reached++
		}
	}
	if reached != len(got) {
		return false
	}
	for _, row := range got {
		if int(row.Vertex) >= len(want) || want[row.Vertex] != row.Val {
			return false
		}
	}
	return true
}

func sameRanks(want []float64, got []mpcjoin.RankRow) bool {
	if len(want) != len(got) {
		return false
	}
	for _, row := range got {
		if int(row.Vertex) >= len(want) {
			return false
		}
		w := want[row.Vertex]
		if math.Abs(w-row.Rank) > 1e-12+1e-9*math.Abs(w) {
			return false
		}
	}
	return true
}
