package matmul

import (
	"math"

	"mpcjoin/internal/dist"
	"mpcjoin/internal/estimate"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/planner"
	"mpcjoin/internal/relation"
	xrt "mpcjoin/internal/runtime"
	"mpcjoin/internal/semiring"
	"mpcjoin/internal/twoway"
)

// outputSensitive is the §3.2 algorithm, load O((N1·N2·OUT)^{1/3}/p^{2/3})
// for OUT > N/p:
//
//	Step 1 — per-value output estimates OUT_a (§2.2); a is heavy when
//	         OUT_a ≥ T = √(N2·OUT·L/N1).
//	Step 2 — heavy rows: Yannakakis (two-way join + aggregation) on
//	         R1(A^heavy, B) ⋈ R2; its intermediate size is bounded by
//	         √(N1·N2·OUT/L) because few values are heavy.
//	Step 3 — light rows are packed into groups A_i of total OUT_a ≤ 2T;
//	         each group block receives σ_{A_i}R1 plus a full copy of R2 and
//	         estimates, per C value, the group-local result count; values
//	         with ≥ L results get dedicated ⌈(|σ_{A_i}R1|+d(c))/L⌉-server
//	         blocks partitioned by B.
//	Step 4 — the remaining (group, light-c) pairs are packed into bins of
//	         total estimated results ≤ 2L and evaluated by LinearSparseMM
//	         on ⌈(|σ_{A_i}R1|+|σ_{C_ij}R2|)/L⌉ servers per bin.
//
// Implementation notes relative to the paper's prose: all groups are run
// through the uniform Step 3/4 machinery (the paper short-circuits groups
// with footprint ≤ L; the uniform path preserves the Σp_i = O(p) budget
// since Σ_i ⌈(f_i+N2)/L⌉ ≤ N1/L + k1·N2/L = O(p)), and the per-group §2.2
// estimates are computed by global skew-proof primitives over a synthetic
// group column G rather than per-block coordinators — the routed data and
// metered loads are the same. Estimate errors can only misclassify values
// between Steps 3 and 4, affecting load, never correctness.
func outputSensitive[W any](sr semiring.Semiring[W], in Input[W], n1, n2, out int64, ests mpc.Part[mpc.KeyCount[string]], seed uint64) (dist.Rel[W], mpc.Stats) {
	p := in.R1.P()
	ex := in.R1.Part.Scope()
	load := int64(math.Ceil(planner.OutSensLoad(n1, n2, out, p))) + ceilDiv(n1+n2, int64(p))
	if load < 1 {
		load = 1
	}
	thr := int64(math.Ceil(math.Sqrt(float64(n2) * float64(out) * float64(load) / float64(n1))))
	if thr < 1 {
		thr = 1
	}

	aKey := in.R1.Key(in.ASide()...)
	cKey := in.R2.Key(in.CSide()...)
	bCol2 := in.R2.Cols(in.B)[0]
	outSchema := in.OutSchema()

	// One table classifies R1's A values: heavy values are flagged and
	// weigh 0 in the packing, so they keep the current bin and the light
	// values' groups of total OUT_a ≤ 2T are those of the light values
	// packed alone. One lookup then splits R1 into heavy rows and grouped
	// light rows.
	heavyA := func(kc mpc.KeyCount[string]) bool { return kc.Count >= thr }
	binnedA, _, stPack := mpc.ParallelPack(ests, func(kc mpc.KeyCount[string]) int64 {
		if heavyA(kc) {
			return 0
		}
		return kc.Count
	}, thr)
	groupTable := mpc.Map(binnedA, func(b mpc.Binned[mpc.KeyCount[string]]) aGroup {
		return aGroup{KeyBin: mpc.KeyBin[string]{Key: b.X.Key, Bin: b.Bin}, heavy: heavyA(b.X)}
	})
	looked, stLook := mpc.LookupJoin(in.R1.Part, groupTable,
		func(r relation.Row[W]) string { return aKey(r) },
		func(g aGroup) string { return g.Key })
	heavy, grouped := mpc.Split(looked, func(pr mpc.Pred[relation.Row[W], aGroup]) (mpc.Pred[relation.Row[W], aGroup], bool) {
		return pr, pr.Found && pr.Y.heavy
	})
	ns, sc := mpc.TotalCounts(heavy, grouped)
	nHeavy, nLight := ns[0], ns[1]
	st := mpc.Seq(stPack, stLook, sc)

	// Step 2: heavy rows through the Yannakakis algorithm.
	var res2 dist.Rel[W]
	if nHeavy > 0 {
		var s2 mpc.Stats
		r1Heavy := mpc.Map(heavy, func(pr mpc.Pred[relation.Row[W], aGroup]) relation.Row[W] { return pr.X })
		res2, s2 = twoway.JoinAgg(sr, dist.Rel[W]{Schema: in.R1.Schema, Part: r1Heavy}, in.R2, outSchema...)
		st = mpc.Seq(st, s2)
	} else {
		res2 = dist.EmptyIn[W](in.R1.Part.Scope(), outSchema, p)
	}
	if nLight == 0 {
		return res2, st
	}

	// Group footprints f_i.
	fCounts, stf := mpc.CountByKey(grouped, func(pr mpc.Pred[relation.Row[W], aGroup]) int64 {
		return int64(pr.Y.Bin)
	})
	// Phase A block layout, decided on every server from the all-gathered
	// footprints (O(k1) ≤ O(p) entries) in group order: group i gets
	// ⌈(f_i + N2)/L⌉ virtual servers, block i.
	groups, stLay := mpc.Agree(fCounts, "", func(foot []mpc.KeyCount[int64]) []mpc.KeyCount[int64] {
		mpc.SortLocal(foot, func(kc mpc.KeyCount[int64]) int64 { return kc.Key })
		return foot
	})
	st = mpc.Seq(st, stf, stLay)
	var layA mpc.Layout
	blockOf := make(map[int64]int, len(groups))
	for _, g := range groups {
		blockOf[g.Key] = layA.Add(int(ceilDiv(g.Count+n2, load)))
	}
	if layA.Total() == 0 {
		return res2, st
	}

	// Phase A routing: group rows to their block, R2 replicated to every
	// block. Rows gain a synthetic leading G column carrying the group.
	gSchema1 := append([]dist.Attr{"⟨G⟩"}, in.R1.Schema...)
	gSchema2 := append([]dist.Attr{"⟨G⟩"}, in.R2.Schema...)
	routedA, stA := mpc.RouteBlocks(ex, layA, "matmul.os.gridA", p, func(src int, sc *xrt.Scratch) func(bool, func(int, int, relation.SidedRow[W])) {
		gShard := grouped.Shards[src]
		r2Shard := in.R2.Part.Shards[src]
		if len(gShard)+len(r2Shard) == 0 {
			return nil
		}
		// Memoize (block, index) pairs so the counted build's two passes
		// pay the key encodings, hashes and map lookups once (block -1
		// marks grouped rows with no block); the synthetic G column is
		// prepended on the fill pass only, when the row is actually placed.
		gDests := sc.Ints(2 * len(gShard))
		for j, pr := range gShard {
			blk, ok := blockOf[int64(pr.Y.Bin)]
			if !ok {
				gDests[2*j] = -1
				continue
			}
			gDests[2*j], gDests[2*j+1] = blk, hashStr(aKey(pr.X), layA.Size(blk), seed)
		}
		r2Idx := sc.Ints(len(r2Shard) * len(groups))
		for j, r := range r2Shard {
			ck := cKey(r)
			for blk := range groups {
				r2Idx[j*len(groups)+blk] = hashStr(ck, layA.Size(blk), seed^0x51ed)
			}
		}
		return func(fill bool, emit func(int, int, relation.SidedRow[W])) {
			for j, pr := range gShard {
				blk := gDests[2*j]
				if blk < 0 {
					continue
				}
				var row relation.Row[W]
				if fill {
					row = withGroup(int64(pr.Y.Bin), pr.X)
				}
				emit(blk, gDests[2*j+1], relation.SidedRow[W]{Left: true, Row: row})
			}
			for j, r := range r2Shard {
				for blk, g := range groups {
					var row relation.Row[W]
					if fill {
						row = withGroup(g.Key, r)
					}
					emit(blk, r2Idx[j*len(groups)+blk], relation.SidedRow[W]{Left: false, Row: row})
				}
			}
		}
	})
	st = mpc.Seq(st, stA)

	r1Rows, r2Rows := mpc.Split(routedA, func(s relation.SidedRow[W]) (relation.Row[W], bool) { return s.Row, s.Left })
	r1Blk := dist.Rel[W]{Schema: gSchema1, Part: r1Rows}
	r2Blk := dist.Rel[W]{Schema: gSchema2, Part: r2Rows}

	// Per-(group, c) result-count estimates: sketches of distinct A per
	// (G, B), folded through R2 onto (G, C) — §2.2 inside each group, run
	// with global skew-proof primitives over the G column.
	estP := estimate.Params{Seed: seed ^ 0xe57}
	skB, se1 := estimate.SketchValues(r1Blk, append([]dist.Attr{"⟨G⟩"}, in.B), in.ASide(), estP)
	skGC, se2 := estimate.Propagate(r2Blk, append([]dist.Attr{"⟨G⟩"}, in.CSide()...), append([]dist.Attr{"⟨G⟩"}, in.B), skB, estP)
	st = mpc.Seq(st, se1, se2)
	cEst := mpc.Map(skGC, func(ks estimate.KeySketch) mpc.KeyCount[string] {
		e := int64(math.Round(ks.V.Estimate()))
		if e < 1 {
			e = 1
		}
		return mpc.KeyCount[string]{Key: ks.Key, Count: e} // key encodes (G, C…)
	})

	// d(c) within each block: |σ_{C=c}R2| is group-independent, but count
	// it per (G,C) directly off the replicated copies (skew-proof).
	gcCols := r2Blk.Cols(append([]dist.Attr{"⟨G⟩"}, in.CSide()...)...)
	dGC, sd := mpc.CountByKey(r2Blk.Part, func(r relation.Row[W]) string { return relation.EncodeKey(r.Vals, gcCols) })
	st = mpc.Seq(st, sd)

	// Heavy (group, c) pairs: estimated ≥ L results. Join with d(c).
	heavyGC := mpc.Filter(cEst, func(kc mpc.KeyCount[string]) bool { return kc.Count >= load })
	heavyTbl, sj := mpc.Lookup(heavyGC, dGC,
		func(kc mpc.KeyCount[string]) string { return kc.Key },
		func(kc mpc.KeyCount[string]) string { return kc.Key },
		func(est, d mpc.KeyCount[string], found bool) (mpc.KeyCount[string], bool) {
			return mpc.KeyCount[string]{Key: est.Key, Count: d.Count}, found // (G,C) → d(c)
		})
	st = mpc.Seq(st, sj)

	// Light (group, c) pairs: pack per group into bins of total estimated
	// results ≤ 2L. Packing runs once per group on the group's stats.
	lightGC := mpc.Filter(cEst, func(kc mpc.KeyCount[string]) bool { return kc.Count < load })
	var binTables []mpc.Part[mpc.KeyBin[string]]
	var packStats []mpc.Stats
	for _, grp := range groups {
		g := grp.Key
		mine := mpc.Filter(lightGC, func(kc mpc.KeyCount[string]) bool {
			return relation.DecodeKey(kc.Key)[0] == relation.Value(g)
		})
		binned, _, sp := mpc.ParallelPack(mine, func(kc mpc.KeyCount[string]) int64 { return kc.Count }, load)
		packStats = append(packStats, sp)
		binTables = append(binTables, mpc.Map(binned, func(b mpc.Binned[mpc.KeyCount[string]]) mpc.KeyBin[string] {
			return mpc.KeyBin[string]{Key: b.X.Key, Bin: b.Bin}
		}))
	}
	// Each group packs within its own block; the packs run in parallel.
	st = mpc.Seq(st, mpc.Par(packStats...))
	binTable := mpc.Overlay(ex, routedA.P(), binTables...)

	// R2 rows learn their bin (if light) before routing; the per-(group,
	// bin) R2 sizes of the Phase B layout are counted off the rows that
	// found one.
	r2WithBin, sl2 := mpc.LookupJoin(r2Blk.Part, binTable,
		func(r relation.Row[W]) string { return relation.EncodeKey(r.Vals, gcCols) },
		func(kb mpc.KeyBin[string]) string { return kb.Key })
	binKeys := mpc.MapShards(r2WithBin, func(_ int, shard []mpc.Pred[relation.Row[W], mpc.KeyBin[string]]) []string {
		var keys []string
		for _, pr := range shard {
			if pr.Found {
				keys = append(keys, relation.EncodeKey([]relation.Value{pr.X.Vals[gcCols[0]], relation.Value(pr.Y.Bin)}, []int{0, 1}))
			}
		}
		return keys
	})
	binSzPart, sb := mpc.CountByKey(binKeys, func(k string) string { return k })
	st = mpc.Seq(st, sl2, sb)

	// Phase B layout: every server receives the heavy (G,C) table, then
	// the bin sizes, and lays the sub-blocks out — heavy blocks first, each
	// list in key order. A heavy (G,C) key or a (G,bin) key of group G
	// gets ⌈(f_G + its R2 count)/L⌉ virtual servers.
	footOf := make(map[int64]int64, len(groups))
	for _, g := range groups {
		footOf[g.Key] = g.Count
	}
	nHeavyGC := heavyTbl.Len()
	subList, stSub := mpc.Agree(heavyTbl, "", func(all []mpc.KeyCount[string]) []mpc.KeyCount[string] {
		for _, list := range [][]mpc.KeyCount[string]{all[:nHeavyGC], all[nHeavyGC:]} {
			mpc.SortLocal(list, func(kc mpc.KeyCount[string]) string { return kc.Key })
		}
		return all
	}, binSzPart)
	st = mpc.Seq(st, stSub)
	var layB mpc.Layout
	heavyBlockOf := make(map[string]int)
	binBlockOf := make(map[string]int)
	perGroupSubs := make(map[int64][]int)
	for i, kc := range subList {
		g := int64(relation.DecodeKey(kc.Key)[0])
		blk := layB.Add(int(ceilDiv(footOf[g]+kc.Count, load)))
		if i < nHeavyGC {
			heavyBlockOf[kc.Key] = blk
		} else {
			binBlockOf[kc.Key] = blk
		}
		perGroupSubs[g] = append(perGroupSubs[g], blk)
	}
	if layB.Total() == 0 {
		return dist.Reshape(res2, p), st
	}

	// Phase B routing, from the Phase A blocks.
	gCol1 := 0 // G is the leading column on both sides
	b1 := r1Blk.Cols(in.B)[0]
	routedB, stB := mpc.RouteBlocks(ex, layB, "matmul.os.gridB", routedA.P(), func(src int, sc *xrt.Scratch) func(bool, func(int, int, relation.SidedRow[W])) {
		r1Shard := r1Blk.Part.Shards[src]
		r2Shard := r2WithBin.Shards[src]
		if len(r1Shard)+len(r2Shard) == 0 {
			return nil
		}
		// Memoize R2 (block, index) pairs: the (G,C…) key encodings and
		// block map lookups happen once, not once per counted pass (block
		// -1 marks rows that are neither heavy nor binned — the (group, c)
		// pair has no matching group rows, cannot produce output, and is
		// dropped). R1 destinations are cheap arithmetic re-derived per
		// pass.
		r2Dests := sc.Ints(2 * len(r2Shard))
		for j, pr := range r2Shard {
			r := pr.X
			gc := relation.EncodeKey(r.Vals, gcCols)
			b := r.Vals[bCol2+1] // +1 for the leading G column
			blk, ok := heavyBlockOf[gc]
			if !ok && pr.Found {
				g := r.Vals[gcCols[0]]
				blk, ok = binBlockOf[relation.EncodeKey([]relation.Value{g, relation.Value(pr.Y.Bin)}, []int{0, 1})]
			}
			if !ok {
				r2Dests[2*j] = -1
				continue
			}
			r2Dests[2*j], r2Dests[2*j+1] = blk, hashB(b, layB.Size(blk), seed^0xb10c)
		}
		return func(_ bool, emit func(int, int, relation.SidedRow[W])) {
			for _, r := range r1Shard {
				g := int64(r.Vals[gCol1])
				b := r.Vals[b1]
				for _, blk := range perGroupSubs[g] {
					emit(blk, hashB(b, layB.Size(blk), seed^0xb10c), relation.SidedRow[W]{Left: true, Row: r})
				}
			}
			for j, pr := range r2Shard {
				if blk := r2Dests[2*j]; blk >= 0 {
					emit(blk, r2Dests[2*j+1], relation.SidedRow[W]{Left: false, Row: pr.X})
				}
			}
		}
	})
	st = mpc.Seq(st, stB)

	// Local join-aggregate per sub-block server. The G column joins along
	// with B (each sub-block holds one group anyway) and is projected away
	// by aggregating onto the output schema.
	gin := Input[W]{
		R1: dist.Rel[W]{Schema: gSchema1},
		R2: dist.Rel[W]{Schema: gSchema2},
		B:  in.B,
	}
	partials := mpc.MapShards(routedB, func(_ int, shard []relation.SidedRow[W]) []relation.Row[W] {
		return localJoinAgg(sr, gin, outSchema, shard)
	})
	res34, sAgg := dist.ProjectAgg(sr, dist.Rel[W]{Schema: outSchema, Part: partials}, outSchema...)
	st = mpc.Seq(st, sAgg)

	// Steps 2 and 3–4 cover disjoint (a, c) pairs (heavy vs light a).
	final := mpc.Concat(dist.Reshape(res2, p).Part, res34.Part)
	return dist.Rel[W]{Schema: outSchema, Part: final}, st
}

// aGroup is an A value's entry in outputSensitive's R1 table: its light
// group (Bin), or heavy.
type aGroup struct {
	mpc.KeyBin[string]
	heavy bool
}

// withGroup prepends a group id column to a row.
func withGroup[W any](g int64, r relation.Row[W]) relation.Row[W] {
	vals := make([]relation.Value, 0, len(r.Vals)+1)
	vals = append(vals, relation.Value(g))
	vals = append(vals, r.Vals...)
	return relation.Row[W]{Vals: vals, W: r.W}
}
