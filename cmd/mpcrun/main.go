// Command mpcrun evaluates a join-aggregate query over TSV relations on
// the simulated MPC cluster and reports the answer alongside the model's
// cost measures (rounds, load, total communication).
//
// Usage:
//
//	datagen -query line3 -kind blocks -blocks 16 -fan 4 -out /tmp/ln
//	mpcrun -data /tmp/ln -p 16
//	mpcrun -data /tmp/ln -p 16 -engine yannakakis    # force the baseline
//	mpcrun -data /tmp/ln -p 16 -workers 8            # concurrent simulator
//
// -workers sizes the concurrent execution runtime the per-server work runs
// on (default: one worker per CPU). It affects the reported wall-clock time
// only; the answer and the metered cost are identical for every setting.
//
// The data directory holds query.txt plus one <relation>.tsv per relation
// (see internal/textio for the format). Annotations are integers under the
// counting semiring (+, ×).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mpcjoin/internal/core"
	"mpcjoin/internal/planner"
	"mpcjoin/internal/relation"
	xrt "mpcjoin/internal/runtime"
	"mpcjoin/internal/semiring"
	"mpcjoin/internal/textio"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its exit status returned: 2 for a bad invocation, 1 for
// a failed load, execution or verification.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mpcrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		data    = fs.String("data", "", "directory with query.txt and <rel>.tsv files (required)")
		p       = fs.Int("p", 16, "number of simulated servers")
		engine  = fs.String("engine", "auto", "auto, or an engine to force: "+strings.Join(planner.Names(), "|"))
		seed    = fs.Uint64("seed", 1, "randomness seed")
		limit   = fs.Int("limit", 10, "print at most this many result rows (0 = none)")
		verify  = fs.Bool("verify", false, "also run the Yannakakis baseline and cross-check the answers")
		workers = fs.Int("workers", -1, "concurrent runtime workers (1 = serial, <=0 = one per CPU)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *data == "" {
		fmt.Fprintln(stderr, "mpcrun: -data is required")
		return 2
	}
	forced, err := planner.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintln(stderr, "mpcrun:", err)
		return 2
	}

	q, inst, err := textio.ReadInstance(*data)
	if err != nil {
		fmt.Fprintln(stderr, "mpcrun:", err)
		return 1
	}
	n := 0
	for _, e := range q.Edges {
		n += inst[e.Name].Len()
	}

	// The loaded instance is executed once, so hand its rows over to the
	// execution — unless -verify re-runs it through the baseline.
	var plan planner.Plan
	opts := core.Options{Servers: *p, Seed: *seed, Workers: *workers, Engine: forced, PlanOut: &plan}
	t0 := time.Now()
	res, st, err := core.Execute(semiring.IntSumProd{}, q, inst, opts)
	wall := time.Since(t0)
	if err != nil {
		fmt.Fprintln(stderr, "mpcrun:", err)
		return 1
	}
	res.SortRows()

	// Class and engine come from the executed plan: under -engine auto the
	// planner picks per instance, and the header names what ran.
	fmt.Fprintf(stdout, "query: %d relations, outputs %v, class %s, engine %s\n",
		len(q.Edges), q.Output, plan.Class, plan.Chosen)
	fmt.Fprintf(stdout, "input: N = %d tuples across %d servers\n", n, *p)
	fmt.Fprintf(stdout, "result: OUT = %d tuples\n", res.Len())
	fmt.Fprintf(stdout, "cost:   rounds = %d, load L = %d, total communication = %d units\n",
		st.Rounds, st.MaxLoad, st.TotalComm)
	fmt.Fprintf(stdout, "wall:   %v (workers = %d)\n", wall.Round(time.Microsecond), xrt.New(max(*workers, 0)).Workers()) // New(0) sizes to GOMAXPROCS
	if *limit > 0 {
		fmt.Fprintf(stdout, "rows (first %d):\n", *limit)
		for i, row := range res.Rows {
			if i >= *limit {
				fmt.Fprintf(stdout, "  … %d more\n", res.Len()-*limit)
				break
			}
			fmt.Fprintf(stdout, "  %v  ⊕-annotation %d\n", row.Vals, row.W)
		}
	}

	if *verify {
		base, stB, err := core.Execute(semiring.IntSumProd{}, q, inst,
			core.Options{Servers: *p, Engine: planner.EngineYannakakis, Seed: *seed})
		if err != nil {
			fmt.Fprintln(stderr, "mpcrun: baseline:", err)
			return 1
		}
		sr := semiring.IntSumProd{}
		if !relation.Equal[int64](sr, sr.Equal, res, base) {
			fmt.Fprintln(stderr, "verify: MISMATCH against the Yannakakis baseline")
			return 1
		}
		fmt.Fprintf(stdout, "verify: answers match the Yannakakis baseline (baseline load L = %d)\n", stB.MaxLoad)
	}
	return 0
}
