// Command bench is the repository's one benchmark: named workloads over
// the whole stack, end-to-end metrics with tracing off, and a traced
// run that times each layer's public functions from outside. See
// README.md for the metric tables and how the layers interact.
//
//	bash bench/run.sh --workload tree_mix --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

const (
	// deadline aborts a hung run before the driver's 180 s limit.
	deadline = 170 * time.Second
	// traceDir is where a traced run writes trace-<workload>.json, seen
	// from the checkout root, where run.sh starts the binary.
	traceDir = "bench/out"
)

func main() {
	os.Exit(mainCode())
}

func mainCode() int {
	var (
		name    = flag.String("workload", "", "workload to run: matmul_sweep, tree_mix, graph_iter, service_cold, service_mixed (and "+matmulTCP+", unlisted: see metrics.go)")
		seed    = flag.Int64("seed", 1, "every input is generated from this seed")
		seconds = flag.Float64("seconds", runSeconds, "length of the timed window; whole passes only")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
		smoke   = flag.Bool("smoke", false, "run every workload once, traced and untraced, with 1 rep and no warm-up")
		descr   = flag.Bool("describe", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()

	if *descr {
		buf, err := describe()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		os.Stdout.Write(buf)
		return 0
	}

	// A hung run must not outlive the driver's patience.
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "bench: run exceeded %v, aborting\n", deadline)
		os.Exit(3)
	})
	defer watchdog.Stop()

	if *smoke {
		if err := smokeAll(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "bench: smoke:", err)
			return 1
		}
		return 0
	}

	res, err := run(config{
		workload: *name, seed: *seed, seconds: *seconds, trace: *trace != 0,
		outDir: traceDir, log: os.Stdout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: encoding result:", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return 2
	}
	return 0
}

// smokeAll drives every workload once in both modes: the whole harness in
// a few seconds, for go test and for a quick look.
func smokeAll(seed int64) error {
	for _, wd := range workloadDefs {
		for _, traced := range []bool{false, true} {
			res, err := run(config{workload: wd.Name, seed: seed, trace: traced, smoke: true, outDir: traceDir, log: os.Stdout})
			if err != nil {
				return fmt.Errorf("%s: %w", wd.Name, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s: %d of %d ops failed", wd.Name, res.Failed, res.Attempted)
			}
		}
	}
	return nil
}
