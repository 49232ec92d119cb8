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
	"os"
	"strconv"
	"strings"

	"mpcjoin/internal/experiments/boundcheck"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		quick    = flag.Bool("quick", false, "shrink instance sizes for a fast pass")
		psFlag   = flag.String("p", "4,16,64", "comma-separated cluster sizes to sweep")
		seed     = flag.Uint64("seed", 7, "randomness seed (runs are reproducible per seed)")
		slack    = flag.Float64("slack", 0, "override every class's slack constant (0 = per-class default)")
		trace    = flag.Bool("trace", false, "record per-round load timelines in the -json output")
		jsonOut  = flag.String("json", "", "write per-(class,p) results as JSON to this file")
		planOnly = flag.Bool("planner", false, "run the planner dominated-engine check instead of the Table 1 bounds")
	)
	flag.Parse()

	var ps []int
	for _, s := range strings.Split(*psFlag, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || p < 1 {
			fmt.Fprintf(os.Stderr, "boundcheck: invalid -p entry %q\n", s)
			return 1
		}
		ps = append(ps, p)
	}

	cfg := boundcheck.Config{Quick: *quick, Ps: ps, Slack: *slack, Seed: *seed, Trace: *trace}
	if *planOnly {
		return runPlanner(cfg, *jsonOut)
	}
	results, err := boundcheck.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "boundcheck: %v\n", err)
		return 1
	}

	fmt.Printf("%-15s %-5s %-8s %-8s %-8s %-10s %-7s %s\n",
		"class", "p", "N", "OUT", "load", "bound", "ratio", "ok")
	for _, r := range results {
		fmt.Printf("%-15s %-5d %-8d %-8d %-8d %-10.0f %-7.2f %v\n",
			r.Class, r.P, r.N, r.Out, r.MaxLoad, r.Bound, r.Ratio, r.OK)
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err == nil {
			err = boundcheck.WriteJSON(f, results)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "boundcheck: writing %s: %v\n", *jsonOut, err)
			return 1
		}
	}

	if err := boundcheck.Check(results); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 1
	}
	fmt.Printf("all %d checks within their Table 1 bounds\n", len(results))
	return 0
}

// runPlanner is the -planner mode: the cost-based planner's
// dominated-engine sweep, printed per (instance, p) with every forced
// candidate's measured load next to auto's choice.
func runPlanner(cfg boundcheck.Config, jsonOut string) int {
	results, err := boundcheck.RunPlanner(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "boundcheck: %v\n", err)
		return 1
	}

	fmt.Printf("%-15s %-5s %-8s %-17s %-9s %-9s %-17s %-7s %s\n",
		"instance", "p", "N", "chosen", "predicted", "auto", "best", "ratio", "ok")
	for _, r := range results {
		fmt.Printf("%-15s %-5d %-8d %-17s %-9.0f %-9d %-17s %-7.2f %v\n",
			r.Name, r.P, r.N, r.Chosen, r.Predicted, r.AutoLoad,
			fmt.Sprintf("%s=%d", r.Best, r.BestLoad), r.Ratio, r.OK)
		for _, c := range r.Candidates {
			fmt.Printf("    %-20s load=%-8d predicted=%.0f\n", c.Engine, c.MaxLoad, c.Predicted)
		}
	}

	if jsonOut != "" {
		f, err := os.Create(jsonOut)
		if err == nil {
			err = boundcheck.WritePlanJSON(f, results)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "boundcheck: writing %s: %v\n", jsonOut, err)
			return 1
		}
	}

	if err := boundcheck.CheckPlanner(results); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 1
	}
	fmt.Printf("auto within %.2f× of the best forced candidate on all %d instances\n",
		results[0].Slack, len(results))
	return 0
}
