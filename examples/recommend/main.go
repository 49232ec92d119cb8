// Co-engagement analysis over behavioral logs — a star query (§5 of
// Hu–Yi PODS'20).
//
// Three event logs share the item attribute I: Viewed(U1, I),
// Carted(U2, I), Purchased(U3, I). The star query
//
//	∑_I Viewed(U1,I) ⋈ Carted(U2,I) ⋈ Purchased(U3,I)   GROUP BY U1,U2,U3
//
// counts, for every user triple, the number of items the first user
// viewed, the second carted, and the third purchased — the co-engagement
// signal behind "users like you also bought". Item popularity is heavily
// skewed, which is exactly the regime where the §5 per-permutation
// decomposition beats the Yannakakis baseline.
package main

import (
	"fmt"
	"math/rand"

	"mpcjoin"
)

const (
	nUsers  = 300
	nItems  = 1500
	nEvents = 3000
	p       = 16
)

func main() {
	rng := rand.New(rand.NewSource(7))
	q := mpcjoin.NewQuery().
		Relation("Viewed", "U1", "I").
		Relation("Carted", "U2", "I").
		Relation("Purchased", "U3", "I").
		GroupBy("U1", "U2", "U3")

	data := mpcjoin.Instance[int64]{
		"Viewed":    mpcjoin.NewRelation[int64]("U1", "I"),
		"Carted":    mpcjoin.NewRelation[int64]("U2", "I"),
		"Purchased": mpcjoin.NewRelation[int64]("U3", "I"),
	}
	// Zipf-ish item popularity: items 0..9 are blockbusters.
	item := func() mpcjoin.Value {
		if rng.Intn(4) == 0 {
			return mpcjoin.Value(rng.Intn(10))
		}
		return mpcjoin.Value(10 + rng.Intn(nItems-10))
	}
	seen := map[[3]int64]bool{}
	add := func(rel string, u int, it mpcjoin.Value) {
		k := [3]int64{int64(len(rel)), int64(u), int64(it)}
		if seen[k] {
			return
		}
		seen[k] = true
		data[rel].Add(1, mpcjoin.Value(u), it)
	}
	for i := 0; i < nEvents; i++ {
		add("Viewed", rng.Intn(nUsers), item())
		if i%2 == 0 {
			add("Carted", rng.Intn(nUsers), item())
		}
		if i%4 == 0 {
			add("Purchased", rng.Intn(nUsers), item())
		}
	}

	cls, _ := q.Class()
	fmt.Printf("query class: %s\n", cls)
	fmt.Printf("events: viewed %d, carted %d, purchased %d\n\n",
		data["Viewed"].Len(), data["Carted"].Len(), data["Purchased"].Len())

	res, err := mpcjoin.Execute[int64](mpcjoin.Ints(), q, data,
		mpcjoin.WithServers(p), mpcjoin.WithSeed(3))
	if err != nil {
		panic(err)
	}
	var best int64
	var bestTriple []mpcjoin.Value
	var total int64
	for _, row := range res.Rows {
		total += row.Annot
		if row.Annot > best {
			best, bestTriple = row.Annot, row.Vals
		}
	}
	fmt.Printf("co-engagement triples (engine %s): %d, weight total %d\n",
		res.Engine, len(res.Rows), total)
	fmt.Printf("strongest triple: viewer %d / carter %d / buyer %d share %d items\n",
		bestTriple[0], bestTriple[1], bestTriple[2], best)

	base, err := mpcjoin.Execute[int64](mpcjoin.Ints(), q, data,
		mpcjoin.WithServers(p), mpcjoin.WithEngine(mpcjoin.EngineYannakakis))
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nMPC load: §5 star algorithm L = %d vs Yannakakis L = %d\n",
		res.Stats.MaxLoad, base.Stats.MaxLoad)
	fmt.Println("(on this instance both are near the OUT/p floor; run " +
		"`mpcbench -experiment T1-Star-load` for the sweep where the gap widens)")
}
