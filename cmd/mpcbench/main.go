// Command mpcbench regenerates the experiments of the Hu–Yi PODS'20
// reproduction: every Table 1 row, the Theorem 1 branch crossover and
// unequal-size sweep, the p-scaling exponent fits, the Theorem 2/3
// lower-bound audits, the Figure 1/2 reproductions, the §2.2 estimator
// accuracy check, and the locality/packing ablations.
//
// Usage:
//
//	mpcbench -list
//	mpcbench -experiment all            # full-size run (minutes)
//	mpcbench -experiment T1-MM-load,LB-Thm3 -quick
//	mpcbench -experiment T1-MM-load -workers 8 -json rows.json
//
// -workers sizes the concurrent execution runtime (default: one worker
// per CPU); it changes wall-clock time only — metered loads are identical
// for every worker count. -json appends one row per (experiment, data
// point) with the measured wall-clock time and the runtime's worker count
// to the given file. -trace additionally embeds each benched run's
// per-round load timeline (op, per-server load distribution, bytes) in
// the JSON rows; tracing never changes loads, rounds or results.
//
// -explain embeds the plan each benched run executed in the -json rows'
// "plan" field. The plan's chosen engine always names the engine the row's
// metered stats came from; runs that went through the cost-based planner
// additionally carry every legal candidate with its predicted load, while
// experiments that pin their section's engine record a forced plan. The
// full ranked-candidate sweep lives in `boundcheck -planner`:
//
//	mpcbench -experiment T1-Line-load -quick -explain -json BENCH_plan.json
//
// -faults runs every benched engine execution under a deterministic
// fault schedule (see experiments.ParseFaultSpec for the key=value
// grammar). Absorbed schedules leave every table and verification
// identical to the fault-free run — the per-run injection/retry
// accounting lands in the -json rows' "faults" field.
//
// -transport tcp carries every benched engine run's exchange rounds over
// the TCP backend — by default through three loopback shuffle peers the
// process boots itself, or through an already-running peer tier named by
// -transport-peers. Row exchanges ship the columnar dictionary-encoded
// payload (internal/relation's wire columns); peers are payload-opaque,
// so the frame format is unchanged. The verification baseline stays
// in-process, so every "verified" column doubles as a cross-transport
// bit-identity check; loads and tables are identical, only wall-clock
// changes:
//
//	mpcbench -experiment all -quick -transport tcp -json BENCH_transport.json
//
// -cpuprofile and -memprofile write pprof profiles covering the selected
// experiments (the memory profile is a heap snapshot taken after the runs,
// with allocation sites recorded); inspect with `go tool pprof`. See the
// README's profiling quick-start.
//
// -graph selects only the iterated graph-analytics experiments — the
// BFS/SSSP/PageRank drivers over a seeded power-law graph, checking each
// driver iteration's max-load against the Table 1 matmul formula:
//
//	mpcbench -graph -quick -json BENCH_graph.json
//
// The end-to-end benchmark of the whole stack — library, planner and the
// serving plane over HTTP — is bench/ (see BENCHMARK.json), not this
// command.
//
// Every experiment verifies its results against the distributed
// Yannakakis baseline (or the sequential reference) as it runs; a
// "MISMATCH" in any verified column is a bug.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"mpcjoin/internal/experiments"
	"mpcjoin/internal/transport"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its exit status returned — 2 for a bad invocation, 1
// for a failed or mismatching experiment — so deferred profile writers
// execute before the process exits (os.Exit skips defers).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mpcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list    = fs.Bool("list", false, "list experiment ids and exit")
		exper   = fs.String("experiment", "all", "comma-separated experiment ids, or 'all'")
		quick   = fs.Bool("quick", false, "shrink instance sizes for a fast pass")
		seed    = fs.Uint64("seed", 7, "randomness seed (runs are reproducible per seed)")
		workers = fs.Int("workers", -1, "concurrent runtime workers (1 = serial, <=0 = one per CPU)")
		jsonOut = fs.String("json", "", "write per-experiment benchmark rows as JSON to this file")
		trace   = fs.Bool("trace", false, "record per-round load timelines in the -json rows")
		explain = fs.Bool("explain", false, "record each benched run's executed cost-based plan in the -json rows")
		faults  = fs.String("faults", "", "run benched engines under a deterministic fault schedule, e.g. crash=0.05,drop=0.05,straggler=0.2,retries=6")
		trans   = fs.String("transport", "inproc", "exchange transport for benched engine runs: inproc or tcp")
		tpeers  = fs.String("transport-peers", "", "comma-separated shuffle peer addresses for -transport tcp (default: boot 3 loopback peers in-process)")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
		memProf = fs.String("memprofile", "", "write a heap profile (post-run snapshot) to this file")
		graph   = fs.Bool("graph", false, "run only the iterated graph-analytics experiments (BFS/SSSP/PageRank per-iteration load sweep)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(stderr, "mpcbench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "mpcbench: starting CPU profile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(stderr, "mpcbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the snapshot reflects retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "mpcbench: writing heap profile: %v\n", err)
			}
		}()
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}

	var ids []string
	switch {
	case *graph:
		ids = experiments.GraphIDs()
	case *exper == "all":
		ids = experiments.IDs()
	default:
		ids = strings.Split(*exper, ",")
	}

	faultSpec, err := experiments.ParseFaultSpec(*faults)
	if err != nil {
		fmt.Fprintf(stderr, "mpcbench: %v\n", err)
		return 2
	}

	tr, release, status := transport.FromFlags("mpcbench", stderr, *trans, *tpeers)
	if status != 0 {
		return status
	}
	defer release()
	cfg := experiments.Config{Quick: *quick, Seed: *seed, Workers: *workers, Trace: *trace, Explain: *explain, Faults: faultSpec, Transport: tr}
	failed := false
	var bench []experiments.BenchRow
	for _, id := range ids {
		id = strings.TrimSpace(id)
		t0 := time.Now()
		tab, err := experiments.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "mpcbench: %v\n", err)
			failed = true
			continue
		}
		out := tab.Format()
		fmt.Fprintln(stdout, out)
		fmt.Fprintf(stdout, "[%s completed in %v]\n\n", id, time.Since(t0).Round(time.Millisecond))
		if strings.Contains(out, "MISMATCH") {
			fmt.Fprintf(stderr, "mpcbench: %s: verification MISMATCH\n", id)
			failed = true
		}
		bench = append(bench, tab.Bench...)
	}
	if *jsonOut != "" {
		if err := experiments.WriteJSON(*jsonOut, bench); err != nil {
			fmt.Fprintf(stderr, "mpcbench: writing %s: %v\n", *jsonOut, err)
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}
