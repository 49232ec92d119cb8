// Command boundcheck runs the Table 1 load-bound regression checker: each
// query class (matmul linear/output-sensitive, star, line, tree) is
// executed on a controlled block workload across a sweep of cluster sizes
// and its measured MaxLoad is asserted to stay within a constant factor of
// the class's Table 1 formula. Exit status 1 on any violation.
//
//	boundcheck                      # full sizes, p ∈ {4,16,64}
//	boundcheck -quick -trace -json BOUND_trace.json
//	boundcheck -planner -quick -json PLAN_report.json
//
// -json writes every (class, p) result — including, under -trace, the
// per-round load timeline of each run — as indented JSON; CI uploads this
// file as an artifact so a bound violation ships with the round that
// caused it.
//
// -planner switches to the cost-based planner's dominated-engine check:
// per class instance and cluster size, the auto-planned execution runs once and every
// legal candidate engine runs forced, and auto's measured MaxLoad must
// stay within a 1.1× tolerance of the best candidate.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"mpcjoin/internal/experiments"
	"mpcjoin/internal/experiments/boundcheck"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its exit status returned: 2 for a bad invocation, 1 for
// a failed check or run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("boundcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		quick    = fs.Bool("quick", false, "shrink instance sizes for a fast pass")
		psFlag   = fs.String("p", "4,16,64", "comma-separated cluster sizes to sweep")
		seed     = fs.Uint64("seed", 7, "randomness seed (runs are reproducible per seed)")
		slack    = fs.Float64("slack", 0, "override every class's slack constant (0 = per-class default)")
		trace    = fs.Bool("trace", false, "record per-round load timelines in the -json output")
		jsonOut  = fs.String("json", "", "write per-(class,p) results as JSON to this file")
		planOnly = fs.Bool("planner", false, "run the planner dominated-engine check instead of the Table 1 bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var ps []int
	for _, s := range strings.Split(*psFlag, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || p < 1 {
			fmt.Fprintf(stderr, "boundcheck: invalid -p entry %q\n", s)
			return 2
		}
		ps = append(ps, p)
	}

	cfg := boundcheck.Config{Quick: *quick, Ps: ps, Slack: *slack, Seed: *seed, Trace: *trace}
	var err error
	if *planOnly {
		err = sweep(cfg, *jsonOut, stdout, boundcheck.RunPlanner, printPlans, boundcheck.CheckPlanner)
	} else {
		err = sweep(cfg, *jsonOut, stdout, boundcheck.Run, printBounds, boundcheck.Check)
	}
	if err != nil {
		fmt.Fprintln(stderr, err) // the package's errors name themselves
		return 1
	}
	return 0
}

// sweep is either mode: run, print the table, write the -json artifact,
// check, and print the table's closing line once the check passed.
func sweep[T any](cfg boundcheck.Config, jsonOut string, stdout io.Writer,
	run func(boundcheck.Config) ([]T, error), print func(io.Writer, []T) string, check func([]T) error) error {
	results, err := run(cfg)
	if err != nil {
		return err
	}
	passed := print(stdout, results)
	if jsonOut != "" {
		if err := experiments.WriteJSON(jsonOut, results); err != nil {
			return fmt.Errorf("boundcheck: writing %s: %w", jsonOut, err)
		}
	}
	if err := check(results); err != nil {
		return err
	}
	fmt.Fprintln(stdout, passed)
	return nil
}

// printBounds prints the Table 1 sweep, one line per (class, p).
func printBounds(w io.Writer, results []boundcheck.Result) (passed string) {
	fmt.Fprintf(w, "%-15s %-5s %-8s %-8s %-8s %-10s %-7s %s\n",
		"class", "p", "N", "OUT", "load", "bound", "ratio", "ok")
	for _, r := range results {
		fmt.Fprintf(w, "%-15s %-5d %-8d %-8d %-8d %-10.0f %-7.2f %v\n",
			r.Class, r.P, r.N, r.Out, r.MaxLoad, r.Bound, r.Ratio, r.OK)
	}
	return fmt.Sprintf("all %d checks within their Table 1 bounds", len(results))
}

// printPlans prints the -planner mode's dominated-engine sweep: per
// (instance, p), every forced candidate's measured load next to auto's
// choice.
func printPlans(w io.Writer, results []boundcheck.PlanResult) (passed string) {
	fmt.Fprintf(w, "%-15s %-5s %-8s %-17s %-9s %-9s %-17s %-7s %s\n",
		"instance", "p", "N", "chosen", "predicted", "auto", "best", "ratio", "ok")
	for _, r := range results {
		fmt.Fprintf(w, "%-15s %-5d %-8d %-17s %-9.0f %-9d %-17s %-7.2f %v\n",
			r.Name, r.P, r.N, r.Chosen, r.Predicted, r.AutoLoad,
			fmt.Sprintf("%s=%d", r.Best, r.BestLoad), r.Ratio, r.OK)
		for _, c := range r.Candidates {
			fmt.Fprintf(w, "    %-20s load=%-8d predicted=%.0f\n", c.Engine, c.MaxLoad, c.Predicted)
		}
	}
	return fmt.Sprintf("auto within %.2f× of the best forced candidate on all %d instances",
		results[0].Slack, len(results))
}
