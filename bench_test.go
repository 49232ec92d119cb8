package mpcjoin

// bench_test.go hosts one testing.B benchmark per experiment of the
// reproduction (Table 1 rows, crossover, unequal sizes, p-scaling,
// Theorem 2/3 lower-bound audits, Figure 1/2 reproductions, the §2.2
// estimator, and the two ablations), plus public-API micro-benchmarks.
// Each experiment benchmark runs the same harness as `mpcbench
// -experiment <id>` in quick mode and reports the measured MPC loads as
// custom metrics (load_new, load_yann) alongside wall-clock time.
// EXPERIMENTS.md records the full-size numbers.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
	"time"

	"mpcjoin/internal/db"
	"mpcjoin/internal/experiments"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/workload"
)

// benchExperiment runs one experiment per iteration and reports the loads
// of its last row as benchmark metrics.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	var tab experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		tab, err = experiments.Run(id, experiments.Config{Quick: true, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
	}
	// Surface the last row's load columns (when present) as metrics.
	if len(tab.Rows) > 0 {
		row := tab.Rows[len(tab.Rows)-1]
		for i, h := range tab.Header {
			switch h {
			case "L_new", "L_measured", "L_os":
				if v, err := strconv.ParseFloat(row[i], 64); err == nil {
					b.ReportMetric(v, "load_new")
				}
			case "L_yann", "bound", "L_hash":
				if v, err := strconv.ParseFloat(row[i], 64); err == nil {
					b.ReportMetric(v, "load_base")
				}
			}
		}
	}
}

// Table 1, row 1: sparse matrix multiplication.
func BenchmarkT1MatMul(b *testing.B) { benchExperiment(b, "T1-MM-load") }

// Theorem 1's min{·,·}: worst-case vs output-sensitive crossover.
func BenchmarkT1MatMulCrossover(b *testing.B) { benchExperiment(b, "T1-MM-crossover") }

// Theorem 1 with N1 ≠ N2 (including the N1/N2 ∉ [1/p,p] fast path).
func BenchmarkT1MatMulUnequal(b *testing.B) { benchExperiment(b, "T1-MM-unequal") }

// Table 1, row 3: line queries.
func BenchmarkT1Line(b *testing.B) { benchExperiment(b, "T1-Line-load") }

// Table 1, row 2: star queries.
func BenchmarkT1Star(b *testing.B) { benchExperiment(b, "T1-Star-load") }

// Table 1, row 4: general tree queries (Figure 3 twig).
func BenchmarkT1Tree(b *testing.B) { benchExperiment(b, "T1-Tree-load") }

// Load exponents in p for both §3 branches and the baseline.
func BenchmarkScalingP(b *testing.B) { benchExperiment(b, "T1-scaling-p") }

// Theorem 2 lower-bound audit.
func BenchmarkLowerBoundThm2(b *testing.B) { benchExperiment(b, "LB-Thm2") }

// Theorem 3 lower-bound audit (optimality evidence for Theorem 1).
func BenchmarkLowerBoundThm3(b *testing.B) { benchExperiment(b, "LB-Thm3") }

// Figure 1: the five-arm star-like query through the §6 engine.
func BenchmarkFig1StarLike(b *testing.B) { benchExperiment(b, "FIG1-starlike") }

// Figure 2: reduction, six-twig decomposition, execution.
func BenchmarkFig2Tree(b *testing.B) { benchExperiment(b, "FIG2-twigs") }

// §2.2 output-size estimator accuracy and load.
func BenchmarkEstimateOut(b *testing.B) { benchExperiment(b, "EST-OUT") }

// Ablation: locality of aggregation (the §1.5 mechanism).
func BenchmarkAblationLocality(b *testing.B) { benchExperiment(b, "ABL-locality") }

// Ablation: skew-proof primitives vs naive hash partitioning.
func BenchmarkAblationPacking(b *testing.B) { benchExperiment(b, "ABL-packing") }

// ---------------------------------------------------------------------------
// Public-API micro-benchmarks
// ---------------------------------------------------------------------------

func buildMatMulData(n int, rng *rand.Rand) (*Query, Instance[int64]) {
	q := NewQuery().
		Relation("R1", "A", "B").
		Relation("R2", "B", "C").
		GroupBy("A", "C")
	data := Instance[int64]{
		"R1": NewRelation[int64]("A", "B"),
		"R2": NewRelation[int64]("B", "C"),
	}
	for i := 0; i < n; i++ {
		data["R1"].Add(1, Value(rng.Intn(n)), Value(rng.Intn(n/8)))
		data["R2"].Add(1, Value(rng.Intn(n/8)), Value(rng.Intn(n)))
	}
	return q, data
}

func BenchmarkExecuteMatMulAuto(b *testing.B) {
	q, data := buildMatMulData(4096, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Execute[int64](Ints(), q, data, WithServers(16), WithSeed(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.MaxLoad == 0 {
			b.Fatal("no load")
		}
	}
}

func BenchmarkExecuteMatMulBaseline(b *testing.B) {
	q, data := buildMatMulData(4096, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Execute[int64](Ints(), q, data, WithServers(16), WithEngine(EngineYannakakis)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecuteLine3(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	q := NewQuery().
		Relation("R1", "A1", "A2").
		Relation("R2", "A2", "A3").
		Relation("R3", "A3", "A4").
		GroupBy("A1", "A4")
	data := Instance[int64]{
		"R1": NewRelation[int64]("A1", "A2"),
		"R2": NewRelation[int64]("A2", "A3"),
		"R3": NewRelation[int64]("A3", "A4"),
	}
	for i := 0; i < 2048; i++ {
		data["R1"].Add(1, Value(rng.Intn(2048)), Value(rng.Intn(256)))
		data["R2"].Add(1, Value(rng.Intn(256)), Value(rng.Intn(256)))
		data["R3"].Add(1, Value(rng.Intn(256)), Value(rng.Intn(2048)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Execute[int64](Ints(), q, data, WithServers(16)); err != nil {
			b.Fatal(err)
		}
	}
}

// mixOp is one query of a benchmark op mix, in the internal spelling the
// generators return.
type mixOp struct {
	q    *hypergraph.Query
	inst db.Instance[int64]
}

// benchMix runs one pass of an op mix per iteration, every op auto-planned
// at p=16 through ExecuteContext — the entry point the repository
// benchmark's library workloads time.
func benchMix(b *testing.B, mix []mixOp) {
	b.Helper()
	type op struct {
		q    *Query
		data Instance[int64]
	}
	var ops []op
	for _, m := range mix {
		data := Instance[int64]{}
		for name, r := range m.inst {
			data[name] = &Relation[int64]{rel: r}
		}
		ops = append(ops, op{&Query{q: m.q}, data})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range ops {
			if _, err := ExecuteContext(context.Background(), Ints(), o.q, o.data, WithServers(16), WithSeed(1)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTreeMixShapes is one pass of the op mix the repository
// benchmark's tree_mix workload times — the catalogue's line, star,
// star-like and tree families at that workload's block counts — as a go
// test benchmark, so `make profile` attributes CPU samples and allocated
// bytes over the mix that workload runs rather than over whichever
// micro-benchmark is at hand.
func BenchmarkTreeMixShapes(b *testing.B) {
	var mix []mixOp
	for _, shape := range []struct {
		family string
		blocks int
	}{{"line", 2048}, {"star", 512}, {"star-like", 64}, {"tree", 128}} {
		fam := workload.Named(shape.family)
		inst, _ := fam.Gen(shape.blocks)
		mix = append(mix, mixOp{fam.Query, inst})
	}
	benchMix(b, mix)
}

// BenchmarkMatMulSweepShapes is the same for the matmul_sweep workload's op
// mix: b4 (output-sensitive), b32 (worst-case), z (Zipf-skewed B) and u
// (the unequal-ratio fast path) at that workload's sizes, each random
// shape drawn from the workload's fixed shape stream.
func BenchmarkMatMulSweepShapes(b *testing.B) {
	const shapeSeed = 20200614
	rng := func() *rand.Rand { return rand.New(rand.NewSource(shapeSeed)) }
	b4, _ := workload.MatMulBlocks(2048, 4, 4)
	b32, _ := workload.MatMulBlocks(256, 32, 32)
	z, _, err := workload.MatMulZipf(2048, 2048, 1.3, rng())
	if err != nil {
		b.Fatal(err)
	}
	u, _ := workload.MatMulUnequal(256, 8192, 64, rng())
	q := hypergraph.MatMulQuery()
	benchMix(b, []mixOp{{q, b4}, {q, b32}, {q, z}, {q, u}})
}

// BenchmarkMatMulKernel is the kernel-level wall-clock/allocation target
// of the allocation-lean exchange/sort work: one p=16 matrix
// multiplication over N = 16384 total tuples (8192 per relation). Run
// with -benchmem.
func BenchmarkMatMulKernel(b *testing.B) {
	q, data := buildMatMulData(8192, rand.New(rand.NewSource(5)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Execute[int64](Ints(), q, data, WithServers(16))
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.MaxLoad == 0 {
			b.Fatal("no load")
		}
	}
}

// §1.4's alternative route: HyperCube full join + aggregation.
func BenchmarkAltFullJoin(b *testing.B) { benchExperiment(b, "ALT-fulljoin") }

// The O(1)-rounds claim: round counts must not grow with the data size.
func BenchmarkRoundsConstant(b *testing.B) { benchExperiment(b, "T1-rounds") }

// BenchmarkRuntimeScaling runs one fixed matmul instance under worker
// counts 1, 2, 4 and 8. The runtime contract says the metered MaxLoad is
// identical for every count (checked hard, every iteration); wall-clock
// time should improve monotonically while the worker count stays within
// the host's core count (checked with slack — beyond NumCPU extra workers
// only add scheduling overhead, so those points are reported but not
// asserted).
func BenchmarkRuntimeScaling(b *testing.B) {
	q, data := buildMatMulData(4096, rand.New(rand.NewSource(3)))
	workerCounts := []int{1, 2, 4, 8}
	baseLoad := -1
	avg := make(map[int]time.Duration, len(workerCounts))
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				res, err := Execute[int64](Ints(), q, data, WithServers(16), WithWorkers(w))
				total += time.Since(t0)
				if err != nil {
					b.Fatal(err)
				}
				if baseLoad < 0 {
					baseLoad = res.Stats.MaxLoad
				}
				if res.Stats.MaxLoad != baseLoad {
					b.Fatalf("workers=%d changed MaxLoad: got %d, serial %d", w, res.Stats.MaxLoad, baseLoad)
				}
			}
			avg[w] = total / time.Duration(b.N)
		})
	}
	cpus := runtime.NumCPU()
	for i := 1; i < len(workerCounts); i++ {
		prev, cur := workerCounts[i-1], workerCounts[i]
		b.Logf("workers=%d: %v per run (MaxLoad %d)", cur, avg[cur], baseLoad)
		if cur > cpus {
			continue // oversubscribed: no speedup to assert on this host
		}
		// Allow 25% noise; the requirement is "no slower", not a strict
		// speedup factor, since small instances are sync-dominated.
		if avg[cur] > avg[prev]+avg[prev]/4 {
			b.Errorf("workers=%d slower than workers=%d: %v vs %v (NumCPU=%d)",
				cur, prev, avg[cur], avg[prev], cpus)
		}
	}
}
