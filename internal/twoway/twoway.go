// Package twoway implements the worst-case optimal MPC algorithm for a
// two-way natural join (Beame–Koutris–Suciu; Hu–Tao–Yi), the primitive the
// distributed Yannakakis baseline plugs in (§1.4 of Hu–Yi PODS'20).
//
// Given R and S with join-key degree vectors d_R, d_S, the full join has
// OUT_f = Σ_k d_R(k)·d_S(k) results. The algorithm computes the join in
// O(1) rounds with load O((|R|+|S|)/p + √(OUT_f/p)):
//
//   - keys with d_R, d_S ≤ L are packed whole into groups of total degree
//     O(L) (parallel-packing) and joined locally on one server per group;
//   - a heavy key k is given a ⌈d_R/L⌉ × ⌈d_S/L⌉ grid of servers; its
//     R-tuples are split across grid rows and replicated across columns
//     (and symmetrically for S), so every cell holds O(L) tuples and the
//     cells tile all d_R·d_S output pairs.
//
// Both degree vectors come from one reduce-by-key over the two sides' join
// keys (mpc.CountBySide: §2.1's degree statistic, an r row counting toward
// d_R and an s row toward d_S), so the statistics cost one sample sort per
// join.
//
// The join output is produced in place (each server holds the results its
// tuples generate) and is NOT rebalanced: in the MPC model outputs are
// emitted, not shuffled, and downstream operators (aggregation) pay their
// own shuffle cost — which is exactly how the distributed Yannakakis
// baseline ends up with its O(J/p) term.
//
// Built on Join: JoinAgg is one Yannakakis fold step, FoldChain the
// right-to-left fold of a whole chain (a line query's tail, a star-like
// arm), and JoinAll the left-deep full join of arms sharing a centre.
package twoway

import (
	"math"

	"mpcjoin/internal/dist"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/relation"
	xrt "mpcjoin/internal/runtime"
	"mpcjoin/internal/semiring"
)

// keyStat carries a join key's degrees: L = d_R, R = d_S.
type keyStat = mpc.SideCount[string]

// gridAssign is a heavy key's ar × bs grid: block of the route's layout,
// cell (i, j) at index i·bs + j.
type gridAssign struct {
	key    string
	block  int
	ar, bs int
}

// binAssign is a light key's packed group.
type binAssign struct {
	key string
	bin int
}

// Join computes the full natural join r ⋈ s on their shared attributes,
// annotations ⊗-multiplied. The result spans O(p) virtual servers and is
// left where it is produced. Returns the result, the exact full-join size,
// and the metered cost. The degree statistics (d_R, d_S) cost one
// reduce-by-key over both sides' join keys; the rest is one packing, two
// bin lookups and one routing exchange.
func Join[W any](sr semiring.Semiring[W], r, s dist.Rel[W]) (dist.Rel[W], int64, mpc.Stats) {
	shared := dist.SharedAttrs(r, s)
	if len(shared) == 0 {
		panic("twoway: relations share no attributes")
	}
	rKey := r.Key(shared...)
	sKey := s.Key(shared...)
	stats, st1 := degrees(r, s, rKey, sKey)
	routed, outf, st2 := route(r, s, rKey, sKey, stats)

	// Local joins.
	outSchema := joinSchema(r.Schema, s.Schema)
	result := mpc.MapShards(routed, func(_ int, shard []relation.SidedRow[W]) []relation.Row[W] {
		left, right := relation.Unzip(shard, r.Schema, s.Schema)
		return relation.Join(sr, left, right).Rows
	})
	return dist.Rel[W]{Schema: outSchema, Part: result}, outf, mpc.Seq(st1, st2)
}

// degrees is the §2.1 degree statistic of both sides at once — one
// mpc.CountBySide over the join keys (both key functions encode the shared
// attributes in r's order, so the keys share one space), L = d_R and
// R = d_S. Keys seen on one side only have no join results and are dropped
// where they land. The output holds one element per key present on both
// sides, in key order.
func degrees[W any](r, s dist.Rel[W], rKey, sKey func(relation.Row[W]) string) (mpc.Part[keyStat], mpc.Stats) {
	both, st := mpc.CountBySide(r.Part, s.Part, rKey, sKey)
	return mpc.Filter(both, func(ks keyStat) bool { return ks.L > 0 && ks.R > 0 }), st
}

// route places r's and s's rows on the heavy grids and light bins the
// per-key statistics call for, in one exchange: OUT_f = Σ d_R·d_S by an
// all-reduce, heavy grids agreed on every server, light keys packed into bins
// and looked up by both sides. Returns the routed rows, OUT_f and the cost.
func route[W any](r, s dist.Rel[W], rKey, sKey func(relation.Row[W]) string, stats mpc.Part[keyStat]) (mpc.Part[relation.SidedRow[W]], int64, mpc.Stats) {
	p := r.P()
	ex := r.Part.Scope()

	// OUT_f = Σ d_R·d_S via an all-reduce.
	local := make([]int64, p)
	for sv, shard := range stats.Shards {
		for _, ks := range shard {
			local[sv] += ks.L * ks.R
		}
	}
	outf, st4 := mpc.AllReduce(ex, local, mpc.Add[int64], "")

	// Load target.
	n := int64(r.N() + s.N())
	load := n / int64(p)
	if l := int64(math.Ceil(math.Sqrt(float64(outf) / float64(p)))); l > load {
		load = l
	}
	if load < 1 {
		load = 1
	}

	// Split stats into heavy and light keys.
	heavy := mpc.Filter(stats, func(ks keyStat) bool { return ks.L > load || ks.R > load })
	light := mpc.Filter(stats, func(ks keyStat) bool { return ks.L <= load && ks.R <= load })

	// Heavy grid assignment on every server (O(p) heavy keys).
	grids, st5 := mpc.Agree(heavy, "", func(all []keyStat) []gridAssign {
		var grids []gridAssign
		for _, ks := range all {
			ar := int((ks.L + load - 1) / load)
			bs := int((ks.R + load - 1) / load)
			grids = append(grids, gridAssign{key: ks.Key, ar: ar, bs: bs})
		}
		return grids
	})
	var lay mpc.Layout
	gridByKey := make(map[string]gridAssign, len(grids))
	for _, g := range grids {
		g.block = lay.Add(g.ar * g.bs)
		gridByKey[g.key] = g
	}

	// Light bin assignment by parallel-packing with capacity 2L (each key
	// weighs d_R + d_S ≤ 2L).
	binned, nBins, st7 := mpc.ParallelPack(light, func(ks keyStat) int64 { return ks.L + ks.R }, 2*load)
	bins := lay.Add(nBins) // after the grids, one server per bin
	binTable := mpc.Map(binned, func(b mpc.Binned[keyStat]) binAssign {
		return binAssign{key: b.X.Key, bin: b.Bin}
	})

	// Tell every light tuple its bin via multi-search lookups.
	rBins, st8 := mpc.LookupJoin(r.Part, binTable, rKey, func(b binAssign) string { return b.key })
	sBins, st9 := mpc.LookupJoin(s.Part, binTable, sKey, func(b binAssign) string { return b.key })

	// One exchange routes both relations onto the heavy grids and light
	// bins.
	// A heavy key's tuples round-robin across its grid rows (columns for
	// the S side) in global arrival order — a counter that, serially, runs
	// across source servers. To build the outboxes concurrently with the
	// exact same assignment, split the counter: count each source's heavy
	// occurrences per key (parallel), prefix-sum the counts across sources
	// in ascending order (serial, touches only per-key totals), then let
	// each source assign from its own base offset (parallel). Every tuple
	// gets precisely the row/column serial execution would give it.
	rCount := make([]map[string]int, p)
	sCount := make([]map[string]int, p)
	ex.ForEachShard(p, func(src int) {
		rc := make(map[string]int)
		for _, pr := range rBins.Shards[src] {
			if k := rKey(pr.X); gridByKey[k].ar > 0 {
				rc[k]++
			}
		}
		sc := make(map[string]int)
		for _, pr := range sBins.Shards[src] {
			if k := sKey(pr.X); gridByKey[k].ar > 0 {
				sc[k]++
			}
		}
		rCount[src], sCount[src] = rc, sc
	})
	rBase := make([]map[string]int, p)
	sBase := make([]map[string]int, p)
	rowRun := make(map[string]int)
	colRun := make(map[string]int)
	for src := 0; src < p; src++ {
		rb := make(map[string]int, len(rCount[src]))
		for k, c := range rCount[src] {
			rb[k] = rowRun[k]
			rowRun[k] += c
		}
		sb := make(map[string]int, len(sCount[src]))
		for k, c := range sCount[src] {
			sb[k] = colRun[k]
			colRun[k] += c
		}
		rBase[src], sBase[src] = rb, sb
	}
	routed, st10 := mpc.RouteBlocks(ex, lay, "twoway.grid", p, func(src int, scr *xrt.Scratch) func(bool, func(int, int, relation.SidedRow[W])) {
		rShard := rBins.Shards[src]
		sShard := sBins.Shards[src]
		if len(rShard)+len(sShard) == 0 {
			return nil
		}
		rowRR := rBase[src] // owned by this source from here on
		colRR := sBase[src]
		// Memoize each tuple's placement so the stateful round-robin
		// counters advance exactly once and the counted build's two
		// passes replay identical destinations. A tuple goes to n cells
		// of one block: an R tuple's replicas are the contiguous cells
		// at..at+n-1 of its grid row, an S tuple's stride down its column,
		// at + i·step for i < n. A light tuple's one cell is its bin
		// (n = 1); n = 0 drops a tuple whose key is absent from the other
		// side (no join results).
		rMemo := scr.Ints(3 * len(rShard))
		for m, pr := range rShard {
			k := rKey(pr.X)
			if g, isHeavy := gridByKey[k]; isHeavy {
				i := rowRR[k] % g.ar
				rowRR[k]++
				rMemo[3*m], rMemo[3*m+1], rMemo[3*m+2] = g.block, i*g.bs, g.bs
			} else if pr.Found {
				rMemo[3*m], rMemo[3*m+1], rMemo[3*m+2] = bins, pr.Y.bin, 1
			}
		}
		sMemo := scr.Ints(4 * len(sShard))
		for m, pr := range sShard {
			k := sKey(pr.X)
			if g, isHeavy := gridByKey[k]; isHeavy {
				j := colRR[k] % g.bs
				colRR[k]++
				sMemo[4*m], sMemo[4*m+1], sMemo[4*m+2], sMemo[4*m+3] = g.block, j, g.bs, g.ar
			} else if pr.Found {
				sMemo[4*m], sMemo[4*m+1], sMemo[4*m+3] = bins, pr.Y.bin, 1
			}
		}
		return func(_ bool, emit func(int, int, relation.SidedRow[W])) {
			for m, pr := range rShard {
				b, at, n := rMemo[3*m], rMemo[3*m+1], rMemo[3*m+2]
				for j := 0; j < n; j++ {
					emit(b, at+j, relation.SidedRow[W]{Left: true, Row: pr.X})
				}
			}
			for m, pr := range sShard {
				b, at, step, n := sMemo[4*m], sMemo[4*m+1], sMemo[4*m+2], sMemo[4*m+3]
				for i := 0; i < n; i++ {
					emit(b, at+i*step, relation.SidedRow[W]{Left: false, Row: pr.X})
				}
			}
		}
	})
	return routed, outf, mpc.Seq(st4, st5, st7, st8, st9, st10)
}

// JoinAgg computes π̂_attrs(r ⋈ s): the two-way join followed by the
// distributed ⊕-aggregation onto attrs. This is one Yannakakis fold step;
// its load is O((|r|+|s|)/p + √(OUT_f/p) + J/p) where J = OUT_f is the
// intermediate join size — the aggregation's shuffle of J rows is the
// dominant term, exactly as in the distributed Yannakakis analysis.
func JoinAgg[W any](sr semiring.Semiring[W], r, s dist.Rel[W], attrs ...relation.Attr) (dist.Rel[W], mpc.Stats) {
	joined, _, st := Join(sr, r, s)
	agg, st2 := dist.ProjectAgg(sr, joined, attrs...)
	return agg, mpc.Seq(st, st2)
}

// FoldChain folds a chain right to left with Yannakakis aggregations:
// rels[i] spans path[i] ∪ path[i+1], and the result is
// π̂_{path[0] ∪ path[n]}(rels[0] ⋈ … ⋈ rels[n−1]), each fold keeping its
// near end and the far end and hosted back on p servers. It is the §4
// step 2.1 fold of a line query's tail and the §6/§7.1 shrink of an arm
// toward its center.
func FoldChain[W any](sr semiring.Semiring[W], rels []dist.Rel[W], path [][]dist.Attr, p int) (dist.Rel[W], mpc.Stats) {
	var st mpc.Stats
	far := path[len(path)-1]
	acc := rels[len(rels)-1]
	for i := len(rels) - 2; i >= 0; i-- {
		keep := append(append([]dist.Attr(nil), path[i]...), far...)
		folded, s := JoinAgg(sr, rels[i], acc, keep...)
		st = mpc.Seq(st, s)
		acc = dist.Reshape(folded, p)
	}
	return acc, st
}

// JoinAll is the left-deep chain rels[0] ⋈ rels[1] ⋈ …, every
// intermediate hosted back on p servers.
func JoinAll[W any](sr semiring.Semiring[W], p int, rels ...dist.Rel[W]) (dist.Rel[W], mpc.Stats) {
	acc := rels[0]
	var st mpc.Stats
	for _, r := range rels[1:] {
		joined, _, s := Join(sr, acc, r)
		st = mpc.Seq(st, s)
		acc = dist.Reshape(joined, p)
	}
	return acc, st
}

func joinSchema(a, b []relation.Attr) []relation.Attr {
	out := append([]relation.Attr(nil), a...)
	for _, x := range b {
		dup := false
		for _, y := range a {
			if x == y {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, x)
		}
	}
	return out
}
