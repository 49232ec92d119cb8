// Command datagen emits workload instances as a query spec plus TSV
// relations (the format cmd/mpcrun consumes).
//
// Usage:
//
//	datagen -query matmul -kind blocks -blocks 64 -fan 8 -out /tmp/mm
//	datagen -query line3  -kind zipf   -n 4096 -dom 512 -s 1.4 -out /tmp/ln
//	datagen -query fig3   -kind multi  -blocks 32 -fan 2 -mult 4 -out /tmp/tw
//	datagen -kind graph   -n 10000 -degree 8 -s 1.3 -maxw 100 -out /tmp/g
//
// Queries: matmul, line3, line4, star3, star4, fig1 (the paper's Figure 1
// star-like query), fig2 (the Figure 2 tree), fig3 (the Figure 3 twig).
// Kinds: blocks (exact OUT = blocks·fan^{|y|}), multi (blocks plus a
// multiplicity on non-output attributes), uniform, zipf, graph (a
// power-law edge relation E(S, D) for the iterated BFS/SSSP/PageRank
// drivers; -query is ignored, -n counts vertices).
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"mpcjoin/internal/db"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/textio"
	"mpcjoin/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its exit status returned: 2 for a bad invocation —
// generator parameter errors (errors.Is workload.ErrInvalidParam) included,
// they mean the flags, not the program, are wrong — with nothing written,
// 1 when writing fails.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		query  = fs.String("query", "matmul", "matmul|line3|line4|star3|star4|fig1|fig2|fig3 (ignored for -kind graph)")
		kind   = fs.String("kind", "blocks", "blocks|multi|uniform|zipf|graph")
		blocks = fs.Int("blocks", 64, "blocks (blocks/multi kinds)")
		fan    = fs.Int("fan", 4, "output-attribute fan per block")
		mult   = fs.Int("mult", 2, "non-output multiplicity (multi kind)")
		n      = fs.Int("n", 4096, "tuples per relation (uniform/zipf); vertices (graph)")
		dom    = fs.Int("dom", 512, "domain size (uniform/zipf)")
		s      = fs.Float64("s", 1.4, "Zipf exponent (> 1; zipf/graph kinds)")
		degree = fs.Float64("degree", 8, "average out-degree (graph kind, >= 1)")
		maxw   = fs.Int64("maxw", 100, "max edge weight (graph kind, >= 1)")
		seed   = fs.Int64("seed", 1, "randomness seed")
		out    = fs.String("out", "", "output directory (required)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usageError := func(msg string) int {
		fmt.Fprintln(stderr, "datagen:", msg)
		return 2
	}
	if *out == "" {
		return usageError("-out is required")
	}

	rng := rand.New(rand.NewSource(*seed))
	q := workload.GraphQuery()
	var inst db.Instance[int64]
	var meta workload.Meta
	var err error
	if *kind != "graph" {
		if q, err = queryByName(*query); err != nil {
			return usageError(err.Error())
		}
	}
	// The block and uniform generators take their sizes on trust (a zero
	// domain panics in rand.Intn, a negative count yields an empty
	// instance and a negative OUT), so the sizes each kind reads are
	// checked here, where they enter; Zipf and the graph check the rest.
	for _, name := range map[string][]string{
		"blocks": {"blocks", "fan"}, "multi": {"blocks", "fan", "mult"}, "uniform": {"n", "dom"}, "zipf": {"n"},
	}[*kind] {
		min := 1
		if name == "n" {
			min = 0
		}
		if v := fs.Lookup(name).Value.(flag.Getter).Get().(int); v < min {
			return usageError(fmt.Sprintf("-%s %d must be >= %d", name, v, min))
		}
	}
	switch *kind {
	case "blocks":
		inst, meta = workload.Blocks(q, *blocks, *fan)
	case "multi":
		inst, meta = workload.BlocksMulti(q, *blocks, *fan, *mult)
	case "uniform":
		inst, meta = workload.Uniform(q, *n, *dom, rng)
	case "zipf":
		inst, meta, err = workload.Zipf(q, *n, *dom, *s, rng)
	case "graph":
		inst, meta, err = workload.PowerLawGraph(*n, *degree, *s, *maxw, rng)
	default:
		err = fmt.Errorf("unknown kind %q", *kind)
	}
	if err != nil {
		return usageError(err.Error())
	}

	if err := textio.WriteInstance(*out, q, inst); err != nil {
		fmt.Fprintln(stderr, "datagen:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s: %d relations, %s\n", *out, len(q.Edges), meta.Describe())
	return 0
}

func queryByName(name string) (*hypergraph.Query, error) {
	switch name {
	case "matmul":
		return hypergraph.MatMulQuery(), nil
	case "line3":
		return hypergraph.LineQuery(3), nil
	case "line4":
		return hypergraph.LineQuery(4), nil
	case "star3":
		return hypergraph.StarQuery(3), nil
	case "star4":
		return hypergraph.StarQuery(4), nil
	case "fig1":
		return hypergraph.Fig1StarLike(), nil
	case "fig2":
		return hypergraph.Fig2Tree(), nil
	case "fig3":
		return hypergraph.Fig3Twig(), nil
	}
	return nil, fmt.Errorf("unknown query %q", name)
}
