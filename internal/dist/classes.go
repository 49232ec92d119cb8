package dist

import (
	"cmp"
	"fmt"
	"slices"

	"mpcjoin/internal/mpc"
	"mpcjoin/internal/relation"
)

// classes.go is the class split the §5 star and §6 star-like algorithms
// share: every value b of the center attribute B is classified by the
// permutation ϕ_b that sorts its per-arm degrees d_1(b) ≤ … ≤ d_n(b), dom(B)
// falls into constantly many classes, every arm row is tagged with its b's
// class, and each class is evaluated as its own subquery. The steps are
// written once here; the engines supply the degrees and what a class means.

// ValueClass assigns one value of the center attribute to a class.
type ValueClass struct {
	B     relation.Value
	Class int64
}

// armDegree is d_arm(b), the element grouped by b to read off ϕ_b.
type armDegree struct {
	b   relation.Value
	arm int
	deg int64
}

// DegreeOrderClasses classifies every center value by its degree order:
// degs[i] holds arm i's per-value degrees (exact or estimated). The degrees
// are grouped by value (one GroupByKey) and class is called once per value
// with ϕ_b — order[k] is the arm with the k-th smallest degree, ties broken
// by arm index, and sorted[k] that degree — to name the value's class.
func DegreeOrderClasses(degs []mpc.Part[mpc.KeyCount[int64]], class func(order []int, sorted []int64) int64) (mpc.Part[ValueClass], mpc.Stats) {
	all := mpc.NewPartIn[armDegree](degs[0].Scope(), degs[0].P())
	for i, deg := range degs {
		for s, shard := range deg.Shards {
			for _, kc := range shard {
				all.Shards[s] = append(all.Shards[s], armDegree{b: relation.Value(kc.Key), arm: i, deg: kc.Count})
			}
		}
	}
	grouped, st := mpc.GroupByKey(all, func(ad armDegree) int64 { return int64(ad.b) })

	// One class per b (a value's degrees are local after grouping).
	classes := mpc.MapShards(grouped, func(_ int, shard []armDegree) []ValueClass {
		byB := make(map[relation.Value][]armDegree)
		var bOrder []relation.Value
		for _, ad := range shard {
			if _, seen := byB[ad.b]; !seen {
				bOrder = append(bOrder, ad.b)
			}
			byB[ad.b] = append(byB[ad.b], ad)
		}
		// First-seen key order, not map order: shard contents must be
		// reproducible run to run for the determinism guarantees.
		var out []ValueClass
		for _, bv := range bOrder {
			ads := byB[bv]
			slices.SortFunc(ads, func(x, y armDegree) int {
				if x.deg != y.deg {
					return cmp.Compare(x.deg, y.deg)
				}
				return cmp.Compare(x.arm, y.arm)
			})
			order := make([]int, len(ads))
			sorted := make([]int64, len(ads))
			for k, ad := range ads {
				order[k], sorted[k] = ad.arm, ad.deg
			}
			out = append(out, ValueClass{B: bv, Class: class(order, sorted)})
		}
		return out
	})
	return classes, st
}

// DistinctClasses returns the class ids that occur, ascending: a
// reduce-by-class and an all-gather, so every server learns the
// (constantly many, usually far fewer than n!) classes.
func DistinctClasses(classes mpc.Part[ValueClass]) ([]int64, mpc.Stats) {
	distinct, s1 := mpc.ReduceByKey(classes, func(vc ValueClass) int64 { return vc.Class },
		func(a, _ ValueClass) ValueClass { return a })
	ids, s2 := mpc.Agree(mpc.Map(distinct, func(vc ValueClass) int64 { return vc.Class }), "",
		func(all []int64) []int64 {
			slices.Sort(all)
			return all
		})
	return ids, mpc.Seq(s1, s2)
}

// NoClass is the class of a row whose center value has none: class ids are
// non-negative, so Select(NoClass) is exactly the unclassified rows (the
// light side of a heavy/light split that classifies only the heavy values).
const NoClass int64 = -1

// ClassedRel is a relation whose every row carries the class of its center
// value, or NoClass.
type ClassedRel[W any] struct {
	Schema []Attr
	rows   mpc.Part[classedRow[W]]
}

type classedRow[W any] struct {
	row   relation.Row[W]
	class int64
}

// TagByClass tags every row of r with the class of its b value (one Lookup
// against the per-value classes).
func TagByClass[W any](r Rel[W], b Attr, classes mpc.Part[ValueClass]) (ClassedRel[W], mpc.Stats) {
	bCol := r.Cols(b)[0]
	rows, st := mpc.Lookup(r.Part, classes,
		func(row relation.Row[W]) int64 { return int64(row.Vals[bCol]) },
		func(vc ValueClass) int64 { return int64(vc.B) },
		func(row relation.Row[W], vc ValueClass, found bool) (classedRow[W], bool) {
			if !found {
				vc.Class = NoClass
			}
			return classedRow[W]{row: row, class: vc.Class}, true
		})
	return ClassedRel[W]{Schema: r.Schema, rows: rows}, st
}

// Select returns the rows of one class (local, zero cost).
func (c ClassedRel[W]) Select(class int64) Rel[W] {
	rows := mpc.Map(mpc.Filter(c.rows, func(cr classedRow[W]) bool { return cr.class == class }),
		func(cr classedRow[W]) relation.Row[W] { return cr.row })
	return Rel[W]{Schema: c.Schema, Part: rows}
}

// MaxPermArms is the largest arm count whose degree permutations EncodePerm
// can name: 15¹⁵ < 2⁵⁹ leaves room for a flag bit, 16¹⁶ = 2⁶⁴ does not fit.
const MaxPermArms = 15

// CheckPermArms is the refusal of the engines built on the class split: a
// query joining more than MaxPermArms relations at one aggregated attribute
// (hypergraph.Query.AggregatedDegree) is an error before any round. The
// planner is the one caller (a forced plan; its pricing marks the same
// queries infeasible), so the engines never see such a query.
func CheckPermArms(arms int) error {
	if arms > MaxPermArms {
		return fmt.Errorf("%d relations meet at one aggregated attribute; the degree-permutation class split handles at most %d", arms, MaxPermArms)
	}
	return nil
}

// EncodePerm packs an arm order into an int64 class id (base-n digits).
func EncodePerm(order []int, n int) int64 {
	if n > MaxPermArms {
		panic("dist: EncodePerm beyond MaxPermArms; the planner must refuse the query first")
	}
	var id int64
	for i := len(order) - 1; i >= 0; i-- {
		id = id*int64(n) + int64(order[i])
	}
	return id
}

// DecodePerm inverts EncodePerm.
func DecodePerm(id int64, n int) []int {
	order := make([]int, n)
	for i := 0; i < n; i++ {
		order[i] = int(id % int64(n))
		id /= int64(n)
	}
	return order
}
