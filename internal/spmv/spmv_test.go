package spmv_test

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"mpcjoin/internal/core"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/relation"
	"mpcjoin/internal/semiring"
	"mpcjoin/internal/spmv"
	"mpcjoin/internal/transport"
)

// scope builds an execution scope for kernel tests.
func scope(t *testing.T, o core.Options) *mpc.Exec {
	t.Helper()
	ex, release, err := o.NewScope(context.Background())
	if err != nil {
		t.Fatalf("NewScope: %v", err)
	}
	t.Cleanup(release)
	return ex
}

// randomGraph draws a seeded directed multigraph with positive weights on
// vertex IDs spread over a sparse domain (so hash placement is exercised).
func randomGraph(seed int64, n, m int) []spmv.Edge[int64] {
	rng := rand.New(rand.NewSource(seed))
	ids := make([]relation.Value, n)
	for i := range ids {
		ids[i] = relation.Value(rng.Int63n(1 << 30))
	}
	edges := make([]spmv.Edge[int64], m)
	for i := range edges {
		edges[i] = spmv.Edge[int64]{
			Src: ids[rng.Intn(n)],
			Dst: ids[rng.Intn(n)],
			W:   1 + rng.Int63n(100),
		}
	}
	return edges
}

// serialSpMV is the single-machine reference: y[d] = ⊕ w ⊗ x[s].
func serialSpMV[W any](sr semiring.Semiring[W], edges []spmv.Edge[W], x map[relation.Value]W) map[relation.Value]W {
	y := map[relation.Value]W{}
	for _, e := range edges {
		xv, ok := x[e.Src]
		if !ok {
			continue
		}
		prod := sr.Mul(e.W, xv)
		if old, ok := y[e.Dst]; ok {
			y[e.Dst] = sr.Add(old, prod)
		} else {
			y[e.Dst] = prod
		}
	}
	return y
}

func TestMulMatchesSerialReference(t *testing.T) {
	for _, p := range []int{1, 3, 8, 16} {
		for _, density := range []string{"dense", "sparse"} {
			t.Run(fmt.Sprintf("p=%d/%s", p, density), func(t *testing.T) {
				edges := randomGraph(42, 300, 2000)
				ex := scope(t, core.Options{Workers: 4})
				e := spmv.NewEngine[int64](ex, semiring.IntSumProd{}, append([]spmv.Edge[int64](nil), edges...), p, 7)

				rng := rand.New(rand.NewSource(9))
				want := map[relation.Value]int64{}
				var in []spmv.Entry[int64]
				nx := 250 // dense relative to nnz
				if density == "sparse" {
					nx = 5 // frontier-sized: forces the gather path
				}
				for i := 0; i < nx; i++ {
					v := edges[rng.Intn(len(edges))].Src
					if _, dup := want[v]; dup {
						continue
					}
					w := 1 + rng.Int63n(50)
					want[v] = w
					in = append(in, spmv.Entry[int64]{Idx: v, Val: w})
				}

				x, _ := e.NewVector(in)
				y, ms := e.Mul(x)
				ref := serialSpMV[int64](semiring.IntSumProd{}, edges, want)

				got := map[relation.Value]int64{}
				for _, en := range y.Entries() {
					got[en.Idx] = en.Val
				}
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("p=%d %s: Mul disagrees with serial reference (%d vs %d entries)", p, density, len(got), len(ref))
				}
				if ms.Out != int64(len(ref)) {
					t.Fatalf("MulStat.Out = %d, want %d", ms.Out, len(ref))
				}
				wantSparse := density == "sparse" && e.NNZ() > 0
				if ms.Sparse != wantSparse {
					t.Fatalf("MulStat.Sparse = %v for %s input", ms.Sparse, density)
				}
			})
		}
	}
}

// serialBFS is the reference level assignment.
func serialBFS(edges []spmv.Edge[bool], src relation.Value) map[relation.Value]int64 {
	adj := map[relation.Value][]relation.Value{}
	for _, e := range edges {
		adj[e.Src] = append(adj[e.Src], e.Dst)
	}
	lev := map[relation.Value]int64{src: 0}
	frontier := []relation.Value{src}
	for d := int64(1); len(frontier) > 0; d++ {
		var next []relation.Value
		for _, v := range frontier {
			for _, w := range adj[v] {
				if _, ok := lev[w]; !ok {
					lev[w] = d
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	return lev
}

func TestBFSMatchesSerial(t *testing.T) {
	wedges := randomGraph(7, 200, 900)
	edges := make([]spmv.Edge[bool], len(wedges))
	for i, e := range wedges {
		edges[i] = spmv.Edge[bool]{Src: e.Src, Dst: e.Dst, W: true}
	}
	src := edges[0].Src
	want := serialBFS(edges, src)

	for _, p := range []int{1, 4, 16} {
		ex := scope(t, core.Options{Workers: 4})
		res := spmv.BFS(ex, append([]spmv.Edge[bool](nil), edges...), p, 3, src, 0)
		if !res.Converged {
			t.Fatalf("p=%d: BFS did not converge", p)
		}
		got := map[relation.Value]int64{}
		for _, en := range res.Rows {
			got[en.Idx] = en.Val
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("p=%d: BFS levels disagree with serial reference", p)
		}
	}
}

// dijkstra is the serial SSSP reference.
func dijkstra(edges []spmv.Edge[int64], src relation.Value) map[relation.Value]int64 {
	type arc struct {
		to relation.Value
		w  int64
	}
	adj := map[relation.Value][]arc{}
	for _, e := range edges {
		adj[e.Src] = append(adj[e.Src], arc{e.Dst, e.W})
	}
	dist := map[relation.Value]int64{src: 0}
	pq := &distHeap{{src, 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if d, ok := dist[it.v]; ok && it.d > d {
			continue
		}
		for _, a := range adj[it.v] {
			nd := it.d + a.w
			if d, ok := dist[a.to]; !ok || nd < d {
				dist[a.to] = nd
				heap.Push(pq, distItem{a.to, nd})
			}
		}
	}
	return dist
}

type distItem struct {
	v relation.Value
	d int64
}
type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		edges := randomGraph(seed, 150, 700)
		src := edges[0].Src
		want := dijkstra(edges, src)

		for _, p := range []int{1, 4, 16} {
			ex := scope(t, core.Options{Workers: 4})
			res := spmv.SSSP(ex, append([]spmv.Edge[int64](nil), edges...), p, uint64(seed), src, 0)
			if !res.Converged {
				t.Fatalf("seed=%d p=%d: SSSP did not converge", seed, p)
			}
			got := map[relation.Value]int64{}
			for _, en := range res.Rows {
				got[en.Idx] = en.Val
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed=%d p=%d: SSSP distances disagree with Dijkstra", seed, p)
			}
		}
	}
}

func TestPageRankConvergesAndSumsToOne(t *testing.T) {
	edges := randomGraph(11, 120, 600)
	ex := scope(t, core.Options{Workers: 4})
	res := spmv.PageRank(ex, edges, 8, 5, 0.85, 1e-10, 0)
	if !res.Converged {
		t.Fatalf("PageRank did not converge in %d iterations", len(res.Iters))
	}
	var sum float64
	for _, r := range res.Ranks {
		if r.Val <= 0 {
			t.Fatalf("vertex %d has non-positive rank %v", r.Idx, r.Val)
		}
		sum += r.Val
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("ranks sum to %v, want 1", sum)
	}
	if int64(len(res.Ranks)) != res.N {
		t.Fatalf("got %d ranks over %d vertices", len(res.Ranks), res.N)
	}
	// Damped PageRank contracts: every iteration's residual shrinks, so
	// the recorded iteration count is the convergence rate fingerprint.
	if len(res.Iters) < 2 || len(res.Iters) > spmv.DefaultMaxIters {
		t.Fatalf("suspicious iteration count %d", len(res.Iters))
	}
}

// runTrial runs BFS and SSSP under one scope configuration and returns
// the full observable outcome (rows + per-iteration metering).
type trial struct {
	BFSRows, SSSPRows   []spmv.Entry[int64]
	BFSIters, SSSPIters []spmv.IterStat
	BFSStats, SSSPStats mpc.Stats
}

func runTrial(t *testing.T, o core.Options, edges []spmv.Edge[int64], src relation.Value) trial {
	t.Helper()
	bedges := make([]spmv.Edge[bool], len(edges))
	for i, e := range edges {
		bedges[i] = spmv.Edge[bool]{Src: e.Src, Dst: e.Dst, W: true}
	}
	exb := scope(t, o)
	b := spmv.BFS(exb, bedges, 6, 17, src, 0)
	exs := scope(t, o)
	s := spmv.SSSP(exs, append([]spmv.Edge[int64](nil), edges...), 6, 17, src, 0)
	if !b.Converged || !s.Converged {
		t.Fatalf("trial did not converge (bfs=%v sssp=%v)", b.Converged, s.Converged)
	}
	return trial{
		BFSRows: b.Rows, SSSPRows: s.Rows,
		BFSIters: b.Iters, SSSPIters: s.Iters,
		BFSStats: b.Stats, SSSPStats: s.Stats,
	}
}

// TestDriverLoopDeterminism pins the satellite-4 guarantee: BFS and SSSP
// results and per-iteration Stats are bit-identical across worker counts,
// exchange transports, and traced vs untraced execution.
func TestDriverLoopDeterminism(t *testing.T) {
	edges := randomGraph(23, 250, 1200)
	src := edges[0].Src

	base := runTrial(t, core.Options{Workers: 1}, edges, src)

	check := func(name string, got trial) {
		t.Helper()
		if !reflect.DeepEqual(got.BFSRows, base.BFSRows) || !reflect.DeepEqual(got.SSSPRows, base.SSSPRows) {
			t.Fatalf("%s: rows differ from workers=1 inproc baseline", name)
		}
		if !reflect.DeepEqual(got.BFSIters, base.BFSIters) || !reflect.DeepEqual(got.SSSPIters, base.SSSPIters) {
			t.Fatalf("%s: per-iteration Stats differ from baseline", name)
		}
		if got.BFSStats != base.BFSStats || got.SSSPStats != base.SSSPStats {
			t.Fatalf("%s: total Stats differ from baseline", name)
		}
	}

	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		check(fmt.Sprintf("workers=%d", w), runTrial(t, core.Options{Workers: w}, edges, src))
	}

	// Traced runs must meter identically (tracing is observation only).
	check("traced", runTrial(t, core.Options{Workers: 4, Tracer: mpc.NewTracer()}, edges, src))

	// TCP transport: every exchange through a loopback shuffle cluster.
	addrs, release, err := transport.Loopback(3)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	check("tcp", runTrial(t, core.Options{Workers: 4, Transport: transport.TCP(addrs...)}, edges, src))
}

// TestIterateTraceHasPerIterationRounds asserts traced executions label
// each iteration's exchange, so round timelines expose the loop structure.
func TestIterateTraceHasPerIterationRounds(t *testing.T) {
	edges := randomGraph(5, 100, 400)
	bedges := make([]spmv.Edge[bool], len(edges))
	for i, e := range edges {
		bedges[i] = spmv.Edge[bool]{Src: e.Src, Dst: e.Dst, W: true}
	}
	tr := mpc.NewTracer()
	ex := scope(t, core.Options{Workers: 2, Tracer: tr})
	res := spmv.BFS(ex, bedges, 4, 1, edges[0].Src, 0)
	ops := map[string]bool{}
	for _, r := range tr.Rounds() {
		ops[r.Op] = true
	}
	for k := 0; k < len(res.Iters); k++ {
		if !ops[fmt.Sprintf("iter%d.partials", k)] {
			t.Fatalf("trace missing iter%d.partials round (ops: %v)", k, ops)
		}
	}
	if !ops["spmv.matrix"] || !ops["spmv.vertices"] || !ops["spmv.vector"] {
		t.Fatalf("trace missing engine build rounds (ops: %v)", ops)
	}
}

// TestIterateBudgetExhaustion pins the round-budget contract: hitting
// MaxIters reports Converged=false with exactly MaxIters iterations, no
// error, no panic.
func TestIterateBudgetExhaustion(t *testing.T) {
	edges := randomGraph(31, 200, 900)
	src := edges[0].Src
	ex := scope(t, core.Options{Workers: 2})
	full := spmv.SSSP(ex, append([]spmv.Edge[int64](nil), edges...), 4, 2, src, 0)
	if len(full.Iters) < 3 {
		t.Skipf("graph converged in %d iterations; budget test needs >= 3", len(full.Iters))
	}
	ex2 := scope(t, core.Options{Workers: 2})
	cut := spmv.SSSP(ex2, append([]spmv.Edge[int64](nil), edges...), 4, 2, src, 2)
	if cut.Converged {
		t.Fatal("truncated run reports Converged=true")
	}
	if len(cut.Iters) != 2 {
		t.Fatalf("truncated run recorded %d iterations, want 2", len(cut.Iters))
	}
}

// TestPerIterationLoadBound checks each iteration's metered MaxLoad
// against the linear-regime Table 1 matmul formula specialized to SpMV:
// O((nnz + |x|)/p + out/p + p) — the experiments harness applies the same
// bound at benchmark scale.
func TestPerIterationLoadBound(t *testing.T) {
	const slack = 8
	edges := randomGraph(71, 400, 4000)
	src := edges[0].Src
	for _, p := range []int{4, 16} {
		ex := scope(t, core.Options{Workers: 4})
		res := spmv.SSSP(ex, append([]spmv.Edge[int64](nil), edges...), p, 9, src, 0)
		for _, it := range res.Iters {
			bound := (res.NNZ+it.In)/int64(p) + it.Out/int64(p) + int64(p)
			if int64(it.Stats.MaxLoad) > slack*bound {
				t.Fatalf("p=%d iter %d: MaxLoad %d exceeds %d× bound %d",
					p, it.Iter, it.Stats.MaxLoad, slack, bound)
			}
		}
	}
}

// TestCancellation pins the scope contract: a cancelled context unwinds
// through mpc.Recover as an error, never a hang or partial result.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ex, release, err := core.Options{Workers: 2}.NewScope(ctx)
	if err != nil {
		t.Fatalf("NewScope: %v", err)
	}
	defer release()
	err = func() (err error) {
		defer mpc.Recover(&err)
		edges := randomGraph(3, 50, 200)
		spmv.SSSP(ex, edges, 4, 1, edges[0].Src, 0)
		return nil
	}()
	if err == nil {
		t.Fatal("cancelled execution returned no error")
	}
}
