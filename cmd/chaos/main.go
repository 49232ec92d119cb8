// Command chaos runs the fault-resilience sweep: every engine (matmul,
// star, line, tree, yannakakis, hypercube) executes under a matrix of
// deterministic fault schedules — crashes, message drops, stragglers,
// mixtures, and one schedule built to exhaust the retry budget. A
// retryable schedule must be absorbed bit-identically (same rows, same
// base stats as the fault-free run); the budget schedule must fail with
// the typed fault-budget error. Exit status 1 on any violation.
//
//	chaos                           # full sizes, p=8
//	chaos -quick -workers 4 -json CHAOS_report.json
//	chaos -quick -transport tcp -json CHAOS_tcp_report.json
//
// -transport tcp carries every faulted run's exchange rounds over the TCP
// backend — through three loopback shuffle peers the process boots itself,
// or an already-running tier named by -transport-peers. Faults then happen
// physically (frames elided before the socket, inboxes discarded
// peer-side) while each engine's fault-free baseline stays in-process, so
// the sweep's bit-identity judgement is cross-transport.
//
// -json writes every (engine, scenario) result — row fingerprints, base
// stats, and the fault plane's injection/retry accounting — as indented
// JSON; CI uploads this file as an artifact so a resilience regression
// ships with the schedule that exposed it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mpcjoin/internal/experiments"
	"mpcjoin/internal/experiments/chaos"
	"mpcjoin/internal/transport"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its exit status returned — 2 for a bad invocation, 1
// for a failed cell or run — so the deferred peer shutdown executes before
// the process exits.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		quick   = fs.Bool("quick", false, "shrink instance sizes for a fast pass")
		p       = fs.Int("p", 8, "simulated cluster size")
		seed    = fs.Uint64("seed", 1, "randomness seed (runs are reproducible per seed)")
		workers = fs.Int("workers", 0, "OS workers per run (0 = serial; results must not depend on this)")
		jsonOut = fs.String("json", "", "write per-(engine,scenario) results as JSON to this file")
		trans   = fs.String("transport", "inproc", "exchange transport for faulted runs: inproc or tcp")
		tpeers  = fs.String("transport-peers", "", "comma-separated shuffle peer addresses for -transport tcp (default: boot 3 loopback peers in-process)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	tr, release, status := transport.FromFlags("chaos", stderr, *trans, *tpeers)
	if status != 0 {
		return status
	}
	defer release()
	results, err := chaos.Run(chaos.Config{Quick: *quick, P: *p, Seed: *seed, Workers: *workers, Transport: tr})
	if err != nil {
		fmt.Fprintf(stderr, "chaos: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "%-11s %-17s %-6s %-9s %-9s %-9s %-9s %-7s %s\n",
		"engine", "scenario", "rows", "injected", "detected", "retried", "absorbed", "budget", "ok")
	for _, r := range results {
		fmt.Fprintf(stdout, "%-11s %-17s %-6d %-9d %-9d %-9d %-9d %-7v %v\n",
			r.Engine, r.Scenario, r.Rows, r.Injected, r.Detected, r.Retried, r.Absorbed, r.BudgetErr, r.OK)
	}

	if *jsonOut != "" {
		if err := experiments.WriteJSON(*jsonOut, results); err != nil {
			fmt.Fprintf(stderr, "chaos: writing %s: %v\n", *jsonOut, err)
			return 1
		}
	}

	if err := chaos.Check(results); err != nil {
		fmt.Fprintf(stderr, "%v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "all %d engine/scenario cells recovered or failed as specified\n", len(results))
	return 0
}
