package mpcjoin_test

import (
	"fmt"

	"mpcjoin"
)

// The sparse matrix multiplication ∑_B R1(A,B) ⋈ R2(B,C), the paper's
// running example, under the counting semiring.
func Example() {
	q := mpcjoin.NewQuery().
		Relation("R1", "A", "B").
		Relation("R2", "B", "C").
		GroupBy("A", "C")

	data := mpcjoin.Instance[int64]{
		"R1": mpcjoin.NewRelation[int64]("A", "B"),
		"R2": mpcjoin.NewRelation[int64]("B", "C"),
	}
	data["R1"].Add(2, 0, 7).Add(5, 0, 8)
	data["R2"].Add(3, 7, 1).Add(7, 8, 1)

	res, err := mpcjoin.Execute[int64](mpcjoin.Ints(), q, data,
		mpcjoin.WithServers(4), mpcjoin.WithSeed(1))
	if err != nil {
		panic(err)
	}
	for _, row := range res.Rows {
		fmt.Printf("(%d,%d) = %d\n", row.Vals[0], row.Vals[1], row.Annot)
	}
	fmt.Println("engine:", res.Engine)
	// Output:
	// (0,1) = 41
	// engine: matmul-linear
}

// Shortest two-hop distances via the tropical MinPlus semiring: the same
// query, different algebra.
func Example_tropical() {
	q := mpcjoin.NewQuery().
		Relation("Hop1", "Src", "Mid").
		Relation("Hop2", "Mid", "Dst").
		GroupBy("Src", "Dst")

	data := mpcjoin.Instance[int64]{
		"Hop1": mpcjoin.NewRelation[int64]("Src", "Mid"),
		"Hop2": mpcjoin.NewRelation[int64]("Mid", "Dst"),
	}
	data["Hop1"].Add(3, 0, 1).Add(8, 0, 2) // src 0 → mids 1 (cost 3), 2 (cost 8)
	data["Hop2"].Add(4, 1, 9).Add(1, 2, 9) // mids → dst 9 (costs 4, 1)

	res, err := mpcjoin.Execute[int64](mpcjoin.MinPlus(), q, data,
		mpcjoin.WithServers(4))
	if err != nil {
		panic(err)
	}
	d, _ := res.Lookup(0, 9)
	fmt.Println("min cost 0→9:", d) // min(3+4, 8+1)
	// Output:
	// min cost 0→9: 7
}

// Forcing the distributed Yannakakis baseline to compare MPC loads.
func ExampleWithEngine() {
	q := mpcjoin.NewQuery().
		Relation("R1", "A", "B").
		Relation("R2", "B", "C").
		GroupBy("A", "C")

	data := mpcjoin.Instance[int64]{
		"R1": mpcjoin.NewRelation[int64]("A", "B"),
		"R2": mpcjoin.NewRelation[int64]("B", "C"),
	}
	// A dense block: 40 rows × 40 columns through 20 shared b's.
	for i := int64(0); i < 40; i++ {
		for b := int64(0); b < 20; b++ {
			data["R1"].Add(1, mpcjoin.Value(i), mpcjoin.Value(b))
			data["R2"].Add(1, mpcjoin.Value(b), mpcjoin.Value(i))
		}
	}

	alg, _ := mpcjoin.Execute[int64](mpcjoin.Ints(), q, data, mpcjoin.WithServers(8), mpcjoin.WithSeed(2))
	base, _ := mpcjoin.Execute[int64](mpcjoin.Ints(), q, data, mpcjoin.WithServers(8), mpcjoin.WithEngine(mpcjoin.EngineYannakakis))
	fmt.Println("same answers:", len(alg.Rows) == len(base.Rows))
	fmt.Println("paper's algorithm beats baseline:", alg.Stats.MaxLoad < base.Stats.MaxLoad)
	// Output:
	// same answers: true
	// paper's algorithm beats baseline: true
}

// Classifying a query without running it.
func ExampleQuery_Class() {
	line := mpcjoin.NewQuery().
		Relation("R1", "A1", "A2").
		Relation("R2", "A2", "A3").
		Relation("R3", "A3", "A4").
		GroupBy("A1", "A4")
	cls, _ := line.Class()
	fmt.Println(cls)
	// Output:
	// line
}
