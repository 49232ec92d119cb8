package matmul

import (
	"math"

	"mpcjoin/internal/dist"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/planner"
	"mpcjoin/internal/relation"
	xrt "mpcjoin/internal/runtime"
	"mpcjoin/internal/semiring"
)

// worstCase is the §3.1 worst-case optimal algorithm, load O(√(N1·N2/p)):
//
//	Step 1 — degree statistics; A (resp. C) values with degree ≥ L are
//	         heavy, L = √(N1·N2/p).
//	Step 2 — heavy-heavy: each (a, c) pair gets ⌈(d(a)+d(c))/L⌉ servers;
//	         both sides partition by a hash of B, so matching b's meet.
//	Step 3 — heavy-light (and symmetrically light-heavy): each heavy a
//	         gets ⌈(d(a)+N2^light)/L⌉ servers holding its tuples plus all
//	         light R2 tuples, partitioned by B.
//	Step 4 — light-light: parallel-packing groups light A (resp. C) values
//	         into bins of total degree ≤ 2L; bin pair (i, j) is one server
//	         holding both bins entirely, so its outputs are final.
//
// Outputs of steps 2–3 are partial (the same (a,c) is aggregated across a
// block's servers) and are merged by one global reduce whose input is
// O(p·L); step 4 outputs are complete where they are produced. The four
// subqueries cover disjoint (a,c) pairs, so no cross-step merging is
// needed.
func worstCase[W any](sr semiring.Semiring[W], in Input[W], n1, n2 int64, seed uint64) (dist.Rel[W], mpc.Stats) {
	p := in.R1.P()
	ex := in.R1.Part.Scope()
	load := int64(math.Ceil(planner.WorstCaseLoad(n1, n2, p)))
	if load < 1 {
		load = 1
	}

	aKey := in.R1.Key(in.ASide()...)
	cKey := in.R2.Key(in.CSide()...)
	bCol1 := in.R1.Cols(in.B)[0]
	bCol2 := in.R2.Cols(in.B)[0]

	// Step 1: degrees and the heavy/light split.
	dA, dC, st1 := degrees(in.R1.Part, in.R2.Part, aKey, cKey)
	lightA := mpc.Filter(dA, func(kc mpc.KeyCount[string]) bool { return kc.Count < load })
	lightC := mpc.Filter(dC, func(kc mpc.KeyCount[string]) bool { return kc.Count < load })

	// Both heavy lists to every server in one all-gather, each entry
	// tagged with its side (|heavy| ≤ N/L = O(√p) per side).
	type sidedKey struct {
		kc  mpc.KeyCount[string]
		isC bool
	}
	heavy := mpc.NewPartIn[sidedKey](ex, p)
	for s := range heavy.Shards {
		for _, kc := range dA.Shards[s] {
			if kc.Count >= load {
				heavy.Shards[s] = append(heavy.Shards[s], sidedKey{kc: kc})
			}
		}
		for _, kc := range dC.Shards[s] {
			if kc.Count >= load {
				heavy.Shards[s] = append(heavy.Shards[s], sidedKey{kc: kc, isC: true})
			}
		}
	}
	var hA, hC []mpc.KeyCount[string]
	both, sth := mpc.Agree(heavy, "", func(all []sidedKey) []sidedKey { return all })
	for _, h := range both {
		if h.isC {
			hC = append(hC, h.kc)
		} else {
			hA = append(hA, h.kc)
		}
	}

	// Light bins by parallel-packing (degree-weighted, capacity L).
	binnedA, kBins, stp1 := mpc.ParallelPack(lightA, func(kc mpc.KeyCount[string]) int64 { return kc.Count }, load)
	binnedC, lBins, stp2 := mpc.ParallelPack(lightC, func(kc mpc.KeyCount[string]) int64 { return kc.Count }, load)
	binA := mpc.Map(binnedA, func(b mpc.Binned[mpc.KeyCount[string]]) mpc.KeyBin[string] {
		return mpc.KeyBin[string]{Key: b.X.Key, Bin: b.Bin}
	})
	binC := mpc.Map(binnedC, func(b mpc.Binned[mpc.KeyCount[string]]) mpc.KeyBin[string] {
		return mpc.KeyBin[string]{Key: b.X.Key, Bin: b.Bin}
	})
	rLook, stl1 := mpc.LookupJoin(in.R1.Part, binA,
		func(r relation.Row[W]) string { return aKey(r) },
		func(kb mpc.KeyBin[string]) string { return kb.Key })
	sLook, stl2 := mpc.LookupJoin(in.R2.Part, binC,
		func(r relation.Row[W]) string { return cKey(r) },
		func(kb mpc.KeyBin[string]) string { return kb.Key })

	// Every server reconstructs the identical block layout from the
	// broadcast heavy lists.
	lay := newWCLayout(hA, hC, n1, n2, load, kBins, lBins)

	// One exchange routes everything. The layout is read-only and each
	// source owns its outbox row, so the builds run concurrently on the
	// execution's runtime.
	routed, stx := mpc.RouteBlocks(ex, lay.blocks, "matmul.wc.grid", p, func(src int, sc *xrt.Scratch) func(bool, func(int, int, relation.SidedRow[W])) {
		rShard := rLook.Shards[src]
		sShard := sLook.Shards[src]
		if len(rShard)+len(sShard) == 0 {
			return nil
		}
		// Memoize each row's classification so the counted build's two
		// passes pay the key encoding and map lookup once: tag t > 0 is
		// heavy index t−1, t < 0 is light bin −t−1 (missing lookups are
		// bin 0, hence tag −1).
		rTags := sc.Ints(len(rShard))
		for j, pr := range rShard {
			if ai, isHeavy := lay.heavyAIdx[aKey(pr.X)]; isHeavy {
				rTags[j] = ai + 1
			} else if pr.Found {
				rTags[j] = -(pr.Y.Bin + 1)
			} else {
				rTags[j] = -1
			}
		}
		sTags := sc.Ints(len(sShard))
		for j, pr := range sShard {
			if cj, isHeavy := lay.heavyCIdx[cKey(pr.X)]; isHeavy {
				sTags[j] = cj + 1
			} else if pr.Found {
				sTags[j] = -(pr.Y.Bin + 1)
			} else {
				sTags[j] = -1
			}
		}
		return func(_ bool, emit func(int, int, relation.SidedRow[W])) {
			// hashed sends a row to the server of block blk its B value
			// hashes to.
			hashed := func(blk int, b relation.Value, left bool, row relation.Row[W]) {
				emit(blk, hashB(b, lay.blocks.Size(blk), seed), relation.SidedRow[W]{Left: left, Row: row})
			}
			for j, pr := range rShard {
				row := pr.X
				b := row.Vals[bCol1]
				if t := rTags[j]; t > 0 {
					ai := t - 1
					for cj := range lay.hC {
						hashed(lay.hh(ai, cj), b, true, row)
					}
					hashed(lay.hl+ai, b, true, row)
				} else {
					// Light a: its bin row of the LL grid plus every LH block.
					bin := -t - 1
					for j2 := 0; j2 < lay.lBins; j2++ {
						emit(lay.ll, bin*lay.lBins+j2, relation.SidedRow[W]{Left: true, Row: row})
					}
					for cj := range lay.hC {
						hashed(lay.lh+cj, b, true, row)
					}
				}
			}
			for j, pr := range sShard {
				row := pr.X
				b := row.Vals[bCol2]
				if t := sTags[j]; t > 0 {
					cj := t - 1
					for ai := range lay.hA {
						hashed(lay.hh(ai, cj), b, false, row)
					}
					hashed(lay.lh+cj, b, false, row)
				} else {
					bin := -t - 1
					for i := 0; i < lay.kBins; i++ {
						emit(lay.ll, i*lay.lBins+bin, relation.SidedRow[W]{Left: false, Row: row})
					}
					for ai := range lay.hA {
						hashed(lay.hl+ai, b, false, row)
					}
				}
			}
		}
	})

	partials := mpc.MapShards(routed, func(_ int, shard []relation.SidedRow[W]) []relation.Row[W] {
		return localJoinAgg(sr, in, in.OutSchema(), shard)
	})

	// Steps 2–3 partials are reduced globally; step 4 outputs are final.
	reducePart := mpc.SliceBlocks(partials, lay.blocks, 0, lay.ll)
	llPart := mpc.SliceBlocks(partials, lay.blocks, lay.ll, lay.ll+1)
	if reducePart.P() == 0 {
		reducePart = mpc.NewPartIn[relation.Row[W]](ex, 1)
	}
	reduced, str := dist.ProjectAgg(sr, dist.Rel[W]{Schema: in.OutSchema(), Part: reducePart}, in.OutSchema()...)

	result := mpc.Concat(reduced.Part, llPart)
	st := mpc.Seq(st1, sth, stp1, stp2, stl1, stl2, stx, str)
	return dist.Rel[W]{Schema: in.OutSchema(), Part: result}, st
}

// degrees is d(a) and d(c) in one mpc.CountBySide, as twoway's degrees
// are: an R1 row counts under its A key, an R2 row under its C key, and an
// A and a C value that encode alike share an element and keep their own
// counts. Each side comes back as key counts in key order.
func degrees[W any](r1, r2 mpc.Part[relation.Row[W]], aKey, cKey func(relation.Row[W]) string) (dA, dC mpc.Part[mpc.KeyCount[string]], st mpc.Stats) {
	both, st := mpc.CountBySide(r1, r2, aKey, cKey)
	side := func(n func(mpc.SideCount[string]) int64) mpc.Part[mpc.KeyCount[string]] {
		return mpc.MapShards(both, func(_ int, shard []mpc.SideCount[string]) (kcs []mpc.KeyCount[string]) {
			for _, d := range shard {
				if c := n(d); c > 0 {
					kcs = append(kcs, mpc.KeyCount[string]{Key: d.Key, Count: c})
				}
			}
			return kcs
		})
	}
	return side(func(d mpc.SideCount[string]) int64 { return d.L }), side(func(d mpc.SideCount[string]) int64 { return d.R }), st
}

// wcLayout is the deterministic block layout of the §3.1 algorithm,
// recomputable identically on every server from the broadcast heavy lists:
// the |hA|·|hC| heavy-heavy blocks (i-major), then one heavy-light block
// per heavy a (from block hl), one light-heavy block per heavy c (from
// block lh), and last the kBins × lBins light-light grid (block ll).
type wcLayout struct {
	hA, hC               []mpc.KeyCount[string]
	heavyAIdx, heavyCIdx map[string]int
	kBins, lBins         int
	blocks               mpc.Layout
	hl, lh, ll           int
}

func newWCLayout(hA, hC []mpc.KeyCount[string], n1, n2, load int64, kBins, lBins int) *wcLayout {
	mpc.SortLocal(hA, func(kc mpc.KeyCount[string]) string { return kc.Key })
	mpc.SortLocal(hC, func(kc mpc.KeyCount[string]) string { return kc.Key })
	lay := &wcLayout{
		hA: hA, hC: hC,
		heavyAIdx: make(map[string]int, len(hA)),
		heavyCIdx: make(map[string]int, len(hC)),
		kBins:     kBins, lBins: lBins,
	}
	var hSumA, hSumC int64
	for i, kc := range hA {
		lay.heavyAIdx[kc.Key] = i
		hSumA += kc.Count
	}
	for j, kc := range hC {
		lay.heavyCIdx[kc.Key] = j
		hSumC += kc.Count
	}
	n1Light := n1 - hSumA
	n2Light := n2 - hSumC

	for i := range hA {
		for j := range hC {
			lay.blocks.Add(int(ceilDiv(hA[i].Count+hC[j].Count, load)))
		}
	}
	lay.hl = len(hA) * len(hC)
	for i := range hA {
		lay.blocks.Add(int(ceilDiv(hA[i].Count+n2Light, load)))
	}
	lay.lh = lay.hl + len(hA)
	for j := range hC {
		lay.blocks.Add(int(ceilDiv(hC[j].Count+n1Light, load)))
	}
	lay.ll = lay.blocks.Add(kBins * lBins)
	return lay
}

// hh is the heavy-heavy block of (hA[ai], hC[cj]).
func (l *wcLayout) hh(ai, cj int) int { return ai*len(l.hC) + cj }
