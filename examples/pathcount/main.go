// Path counting and cheapest routing on a layered network — line queries
// (§4 of Hu–Yi PODS'20).
//
// A logistics network has four layers: origins, two layers of hubs, and
// destinations, with capacity-annotated links between adjacent layers.
// Two questions about end-to-end routes (origin → hub → hub → destination):
//
//  1. How many distinct routes connect each (origin, destination) pair?
//     — the line query under the counting semiring (+, ×).
//  2. What is the cheapest route cost per pair? — the same query under
//     the tropical MinPlus semiring (min, +).
//
// Both are the non-free-connex query ∑_{H1,H2} R1(O,H1) ⋈ R2(H1,H2) ⋈
// R3(H2,D) with outputs {O, D}, executed by the §4 recursive algorithm
// (heavy/light split on H1, matmul base case).
package main

import (
	"fmt"
	"math/rand"

	"mpcjoin"
)

const (
	nOrigins = 400
	nHubs    = 40
	nDests   = 400
	p        = 16
)

func main() {
	rng := rand.New(rand.NewSource(42))
	q := mpcjoin.NewQuery().
		Relation("R1", "O", "H1").
		Relation("R2", "H1", "H2").
		Relation("R3", "H2", "D").
		GroupBy("O", "D")

	// Route counts: every link counts 1.
	counts := mpcjoin.Instance[int64]{
		"R1": mpcjoin.NewRelation[int64]("O", "H1"),
		"R2": mpcjoin.NewRelation[int64]("H1", "H2"),
		"R3": mpcjoin.NewRelation[int64]("H2", "D"),
	}
	// Cheapest costs: the same topology with link costs as annotations.
	costs := mpcjoin.Instance[int64]{
		"R1": mpcjoin.NewRelation[int64]("O", "H1"),
		"R2": mpcjoin.NewRelation[int64]("H1", "H2"),
		"R3": mpcjoin.NewRelation[int64]("H2", "D"),
	}

	addLink := func(rel string, a, b int) {
		counts[rel].Add(1, mpcjoin.Value(a), mpcjoin.Value(b))
		costs[rel].Add(int64(rng.Intn(90)+10), mpcjoin.Value(a), mpcjoin.Value(b))
	}
	for o := 0; o < nOrigins; o++ {
		for k := 0; k < 3; k++ { // each origin connects to 3 hubs
			addLink("R1", o, rng.Intn(nHubs))
		}
	}
	for h1 := 0; h1 < nHubs; h1++ {
		for k := 0; k < 6; k++ {
			addLink("R2", h1, rng.Intn(nHubs))
		}
	}
	for d := 0; d < nDests; d++ {
		for k := 0; k < 3; k++ {
			addLink("R3", rng.Intn(nHubs), d)
		}
	}

	cls, _ := q.Class()
	fmt.Printf("query class: %s\n\n", cls)

	// 1. Route counts under (+, ×).
	res, err := mpcjoin.Execute[int64](mpcjoin.Ints(), q, counts,
		mpcjoin.WithServers(p), mpcjoin.WithSeed(1))
	if err != nil {
		panic(err)
	}
	var totalRoutes, bestPair int64
	var bestO, bestD mpcjoin.Value
	for _, row := range res.Rows {
		totalRoutes += row.Annot
		if row.Annot > bestPair {
			bestPair, bestO, bestD = row.Annot, row.Vals[0], row.Vals[1]
		}
	}
	fmt.Printf("route counting (engine %s):\n", res.Engine)
	fmt.Printf("  connected (origin, destination) pairs: %d\n", len(res.Rows))
	fmt.Printf("  total routes: %d; best-served pair (%d → %d) has %d routes\n",
		totalRoutes, bestO, bestD, bestPair)
	fmt.Printf("  MPC cost: %d rounds, load L = %d\n\n", res.Stats.Rounds, res.Stats.MaxLoad)

	// 2. Cheapest route per pair under (min, +).
	cheap, err := mpcjoin.Execute[int64](mpcjoin.MinPlus(), q, costs,
		mpcjoin.WithServers(p), mpcjoin.WithSeed(1))
	if err != nil {
		panic(err)
	}
	if cost, ok := cheap.Lookup(bestO, bestD); ok {
		fmt.Printf("cheapest routing (tropical semiring):\n")
		fmt.Printf("  pair (%d → %d): cheapest route costs %d\n", bestO, bestD, cost)
	}
	// Baseline comparison on the same instance.
	base, err := mpcjoin.Execute[int64](mpcjoin.Ints(), q, counts,
		mpcjoin.WithServers(p), mpcjoin.WithEngine(mpcjoin.EngineYannakakis))
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nload comparison on this instance: §4 algorithm L = %d vs Yannakakis L = %d\n",
		res.Stats.MaxLoad, base.Stats.MaxLoad)
}
