// Package treequery implements the §7 algorithm of Hu–Yi PODS'20 for
// arbitrary tree join-aggregate queries, with load
// Õ(N·OUT^{2/3}/p + (N+OUT)/p) (Theorem 6).
//
// Pipeline:
//
//  1. Remove dangling tuples; run the §7 preprocessing reduction (unary
//     edges and private non-output attributes fold into neighbors), after
//     which every leaf attribute is an output attribute.
//  2. Decompose at non-leaf output attributes into twigs (Figure 2); in a
//     twig the output attributes are exactly the leaves.
//  3. Evaluate each twig: matrix multiplication, line, star and star-like
//     twigs dispatch to their §3–§6 engines; a general twig runs the
//     skeleton recursion below.
//  4. Join the twig results (all attributes are outputs now, so the plain
//     distributed Yannakakis algorithm is optimal for this step).
//
// The skeleton recursion (§7.1, Figures 3–4): compute the twig's skeleton
// TS by contracting every pendant star-like subtree T_B to its root B; for
// each pendant root estimate x(b) — the number of output combinations
// inside T_B — and y(b) — Algorithm 1's underestimate of the combinations
// outside — and split dom(B) into heavy (x > y) and light values. Each of
// the 2^{|S∩ȳ|} heavy/light subqueries materializes Q_B for its light
// roots (at least one exists by Lemma 13), replacing T_B by a combined
// output attribute, and recurses on the strictly smaller residual query
// until it leaves the general-tree class. A pendant arm shrinks toward its
// root with twoway.FoldChain, and its x(b) factor is estimate.ArmOut.
//
// The engine is Compute(…, seed); the caller has validated the query and
// the planner has refused one whose star or star-like twigs would need
// more than dist.MaxPermArms arms (no reduction below widens a join, so
// the query's own widest aggregated join bounds every twig's).
package treequery

import (
	"fmt"
	"slices"

	"mpcjoin/internal/dist"
	"mpcjoin/internal/estimate"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/linequery"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/relation"
	"mpcjoin/internal/semiring"
	"mpcjoin/internal/starlike"
	"mpcjoin/internal/starquery"
	"mpcjoin/internal/twoway"
	"mpcjoin/internal/yannakakis"
)

// Compute evaluates an arbitrary tree join-aggregate query. seed drives
// hash partitioning in the engines the twigs dispatch to.
func Compute[W any](sr semiring.Semiring[W], q *hypergraph.Query, rels map[string]dist.Rel[W], seed uint64) (dist.Rel[W], mpc.Stats) {
	p := dist.AnyRel(rels).P()

	// Dangling removal, then the §7 preprocessing reduction.
	live, st := dist.RemoveDangling(q, rels)
	reduced, steps := hypergraph.ReducePlan(q)
	for _, step := range steps {
		agg, s1 := dist.ProjectAgg(sr, live[step.Remove], step.On...)
		merged, s2 := dist.AttachAgg(sr, live[step.Into], agg, step.On)
		live[step.Into] = merged
		delete(live, step.Remove)
		st = mpc.Seq(st, s1, s2)
	}

	// Twig decomposition and per-twig evaluation.
	twigs := hypergraph.Twigs(reduced)
	twigRels := make(map[string]dist.Rel[W], len(twigs))
	pseudo := &hypergraph.Query{Output: reduced.Output}
	var twigStats []mpc.Stats
	for i, tw := range twigs {
		vt := &vtree[W]{q: tw.Query, groups: map[hypergraph.Attr][]dist.Attr{}, rels: map[string]dist.Rel[W]{}, seed: seed}
		for _, e := range tw.Query.Edges {
			vt.rels[e.Name] = live[e.Name]
		}
		res, s := evalTwig(sr, vt)
		twigStats = append(twigStats, s)
		name := fmt.Sprintf("twig%d", i)
		twigRels[name] = dist.Reshape(res, p)
		attrs := make([]hypergraph.Attr, len(res.Schema))
		copy(attrs, res.Schema)
		pseudo.Edges = append(pseudo.Edges, hypergraph.Edge{Name: name, Attrs: attrs})
	}
	// The constantly many twigs are independent subqueries evaluated on
	// their own O(p)-server groups simultaneously: Par-compose their costs.
	st = mpc.Seq(st, mpc.Par(twigStats...))

	// Join the twig results (free-connex full join: all attrs are output).
	var final dist.Rel[W]
	if len(twigs) == 1 {
		only := twigRels["twig0"]
		f, s := dist.ProjectAgg(sr, only, reduced.Output...)
		final = f
		st = mpc.Seq(st, s)
	} else {
		clean, s1 := dist.RemoveDangling(pseudo, twigRels)
		f, s2 := yannakakis.RunNoReduce(sr, pseudo, clean)
		final = f
		st = mpc.Seq(st, s1, s2)
	}
	return dist.Reshape(final, p), st
}

// vtree is a query over possibly-synthetic vertices: groups maps a
// combined vertex to its concrete attribute columns (absent = the vertex
// is itself a concrete attribute).
type vtree[W any] struct {
	q      *hypergraph.Query
	groups map[hypergraph.Attr][]dist.Attr
	rels   map[string]dist.Rel[W]
	seed   uint64
	depth  int
}

// expand returns the concrete attributes of a vertex.
func (vt *vtree[W]) expand(v hypergraph.Attr) []dist.Attr {
	if g, ok := vt.groups[v]; ok {
		return g
	}
	return []dist.Attr{v}
}

// expandAll expands a vertex list.
func (vt *vtree[W]) expandAll(vs []hypergraph.Attr) []dist.Attr {
	var out []dist.Attr
	for _, v := range vs {
		out = append(out, vt.expand(v)...)
	}
	return out
}

// evalTwig evaluates a twig query (outputs = leaves), dispatching on its
// class and falling back to the skeleton recursion for general twigs.
func evalTwig[W any](sr semiring.Semiring[W], vt *vtree[W]) (dist.Rel[W], mpc.Stats) {
	q := vt.q
	if len(q.Edges) == 1 {
		return dist.ProjectAgg(sr, vt.rels[q.Edges[0].Name], vt.expandAll(q.Output)...)
	}
	if rels, path, ok := linequery.Bind(q, vt.rels, vt.expand); ok {
		return linequery.Run(sr, rels, path, vt.seed)
	}
	if arms, leaves, center, ok := starquery.Bind(q, vt.rels, vt.expand); ok {
		return starquery.Run(sr, arms, leaves, center, vt.seed)
	}
	if arms, center, ok := starlike.Bind(q, vt.rels, vt.expand); ok {
		return starlike.Run(sr, arms, center, vt.seed)
	}
	return skeletonRecurse(sr, vt)
}

// skeletonRecurse is the §7.1 divide-and-conquer on a general twig.
func skeletonRecurse[W any](sr semiring.Semiring[W], vt *vtree[W]) (dist.Rel[W], mpc.Stats) {
	q := vt.q
	p := dist.AnyRel(vt.rels).P()
	outSchema := vt.expandAll(q.Output)

	sk := hypergraph.SkeletonOf(q)
	if sk == nil {
		panic("treequery: general twig without a skeleton")
	}

	// Pendant roots: S ∩ ȳ.
	var roots []hypergraph.Attr
	for _, s := range sk.S {
		if !q.IsOutput(s) {
			roots = append(roots, s)
		}
	}
	slices.Sort(roots)

	var st mpc.Stats

	// Step 1a: x(b) per pendant root — the product of per-arm distinct
	// leaf-combination estimates (§2.2 along each pendant arm).
	xParts := make(map[hypergraph.Attr]mpc.Part[mpc.KeyCount[int64]], len(roots))
	var xStats []mpc.Stats
	for _, b := range roots {
		xp, s := pendantX(vt, sk.Pendants[b], b)
		xParts[b] = xp
		xStats = append(xStats, s)
	}
	st = mpc.Seq(st, mpc.Par(xStats...)) // one p-server group per root (§7.1 Step 1)

	// Step 1b: y(b) per pendant root via Algorithm 1 over the skeleton.
	yParts := make(map[hypergraph.Attr]mpc.Part[mpc.KeyCount[int64]], len(roots))
	var yStats []mpc.Stats
	for _, b := range roots {
		yp, s := estimateOutTree(vt, sk, b, roots, xParts)
		yParts[b] = yp
		yStats = append(yStats, s)
	}
	st = mpc.Seq(st, mpc.Par(yStats...))

	// Per-root heavy tables: b is heavy iff x(b) > y(b).
	heavyTables := make(map[hypergraph.Attr]mpc.Part[dist.ValueClass], len(roots))
	for _, b := range roots {
		heavy, s := mpc.Lookup(xParts[b], yParts[b],
			func(kc mpc.KeyCount[int64]) int64 { return kc.Key },
			func(kc mpc.KeyCount[int64]) int64 { return kc.Key },
			func(x, y mpc.KeyCount[int64], found bool) (dist.ValueClass, bool) {
				if !found {
					y.Count = 1
				}
				return dist.ValueClass{B: relation.Value(x.Key), Class: heavyClass}, x.Count > y.Count
			})
		st = mpc.Seq(st, s)
		heavyTables[b] = heavy
	}

	// Step 2: the 2^{|roots|} heavy/light subqueries, each on its own
	// p-server group, run in parallel (§7.1 Step 2): Par-compose.
	var results []dist.Rel[W]
	var subStats []mpc.Stats
	for mask := 0; mask < 1<<len(roots); mask++ {
		sub, empty, s := buildSubquery(sr, vt, roots, heavyTables, mask)
		if empty {
			subStats = append(subStats, s)
			continue
		}

		// Light roots of this subquery (forced non-empty for progress —
		// with exact statistics Lemma 13 guarantees one, but x and y are
		// estimates, so fall back to materializing the first root).
		var lights []hypergraph.Attr
		for i, b := range roots {
			if mask&(1<<i) == 0 {
				lights = append(lights, b)
			}
		}
		if len(lights) == 0 {
			lights = roots[:1]
		}

		res, s2 := materializeAndRecurse(sr, sub, sk, lights, outSchema)
		subStats = append(subStats, mpc.Seq(s, s2))
		results = append(results, dist.Reshape(dist.Reorder(res, outSchema), p))
	}
	st = mpc.Seq(st, mpc.Par(subStats...))
	if len(results) == 0 {
		return dist.EmptyIn[W](dist.AnyRel(vt.rels).Part.Scope(), outSchema, p), st
	}
	final, s := dist.UnionAgg(sr, results...)
	return final, mpc.Seq(st, s)
}

// pendantArms decomposes a pendant star-like subtree rooted at b into arms
// (paths from b outward), each described by its relations and vertex path.
type pendantArm[W any] struct {
	rels []dist.Rel[W]
	path [][]dist.Attr
	// vertices from b outward, excluding b.
	vertices []hypergraph.Attr
}

func armsOf[W any](vt *vtree[W], pq *hypergraph.Query, b hypergraph.Attr) []pendantArm[W] {
	var arms []pendantArm[W]
	for _, ei := range pq.EdgesAt(b) {
		arm := pendantArm[W]{path: [][]dist.Attr{{b}}}
		cur := pq.Edges[ei].Other(b)
		prev := ei
		arm.rels = append(arm.rels, vt.rels[pq.Edges[ei].Name])
		for {
			arm.vertices = append(arm.vertices, cur)
			arm.path = append(arm.path, vt.expand(cur))
			next := -1
			for _, ej := range pq.EdgesAt(cur) {
				if ej != prev {
					next = ej
					break
				}
			}
			if next < 0 {
				break
			}
			arm.rels = append(arm.rels, vt.rels[pq.Edges[next].Name])
			cur = pq.Edges[next].Other(cur)
			prev = next
		}
		arms = append(arms, arm)
	}
	return arms
}

// pendantX estimates x(b) = ∏_arms d_arm(b): the number of output
// combinations of the pendant subtree joinable with each b.
func pendantX[W any](vt *vtree[W], pq *hypergraph.Query, b hypergraph.Attr) (mpc.Part[mpc.KeyCount[int64]], mpc.Stats) {
	arms := armsOf(vt, pq, b)
	var st mpc.Stats
	var per []mpc.Part[mpc.KeyCount[int64]]
	p := dist.AnyRel(vt.rels).P()
	for _, arm := range arms {
		d, s := estimate.ArmOut(arm.rels, arm.path)
		st = mpc.Seq(st, s)
		per = append(per, d)
	}
	merged := mpc.Overlay(dist.AnyRel(vt.rels).Part.Scope(), p, per...)
	// One entry per arm per b; multiply per b.
	prod, s := mpc.ReduceByKey(merged,
		func(kc mpc.KeyCount[int64]) int64 { return kc.Key },
		func(a, b mpc.KeyCount[int64]) mpc.KeyCount[int64] {
			return mpc.KeyCount[int64]{Key: a.Key, Count: estimate.MulSat(a.Count, b.Count)}
		})
	return prod, mpc.Seq(st, s)
}

// estimateOutTree is Algorithm 1: an underestimate y(b) of the number of
// output combinations outside T_B joinable with each b ∈ dom(B), computed
// bottom-up over the skeleton rooted at B. Subtrees containing no pendant
// root contribute the multiplicative identity 1 and are skipped; a child's
// factor is max_{c' joinable} y(c'), propagated through the edge relation
// with a multi-search and a max-reduce.
func estimateOutTree[W any](vt *vtree[W], sk *hypergraph.Skeleton, root hypergraph.Attr, roots []hypergraph.Attr, xParts map[hypergraph.Attr]mpc.Part[mpc.KeyCount[int64]]) (mpc.Part[mpc.KeyCount[int64]], mpc.Stats) {
	ts := sk.TS
	isRoot := make(map[hypergraph.Attr]bool, len(roots))
	for _, r := range roots {
		isRoot[r] = true
	}

	var st mpc.Stats
	var visit func(v hypergraph.Attr, fromEdge int) (mpc.Part[mpc.KeyCount[int64]], bool)
	visit = func(v hypergraph.Attr, fromEdge int) (mpc.Part[mpc.KeyCount[int64]], bool) {
		// Gather child factors.
		type childFactor struct {
			part mpc.Part[mpc.KeyCount[int64]]
			edge int
			to   hypergraph.Attr
		}
		var factors []childFactor
		for _, ei := range ts.EdgesAt(v) {
			if ei == fromEdge {
				continue
			}
			child := ts.Edges[ei].Other(v)
			cpart, nontrivial := visit(child, ei)
			if !nontrivial {
				continue
			}
			factors = append(factors, childFactor{part: cpart, edge: ei, to: child})
		}
		var selfX mpc.Part[mpc.KeyCount[int64]]
		hasX := false
		if v != root && isRoot[v] {
			selfX = xParts[v]
			hasX = true
		}
		if len(factors) == 0 {
			if hasX {
				return selfX, true
			}
			return mpc.Part[mpc.KeyCount[int64]]{}, false
		}

		// For each child factor: propagate max y(c') through the edge.
		var terms []mpc.Part[mpc.KeyCount[int64]]
		for _, f := range factors {
			erel := vt.rels[ts.Edges[f.edge].Name]
			vCol := erel.Cols(dist.Attr(v))[0]
			cCol := erel.Cols(dist.Attr(f.to))[0]
			carried, s := mpc.Lookup(erel.Part, f.part,
				func(r relation.Row[W]) int64 { return int64(r.Vals[cCol]) },
				func(kc mpc.KeyCount[int64]) int64 { return kc.Key },
				func(r relation.Row[W], y mpc.KeyCount[int64], found bool) (mpc.KeyCount[int64], bool) {
					return mpc.KeyCount[int64]{Key: int64(r.Vals[vCol]), Count: y.Count}, found
				})
			st = mpc.Seq(st, s)
			maxed, s2 := mpc.ReduceByKey(carried,
				func(kc mpc.KeyCount[int64]) int64 { return kc.Key },
				func(a, b mpc.KeyCount[int64]) mpc.KeyCount[int64] {
					if b.Count > a.Count {
						return b
					}
					return a
				})
			st = mpc.Seq(st, s2)
			// Tag with the edge so the final product multiplies one factor
			// per child (duplicate keys across children are distinct).
			terms = append(terms, maxed)
		}
		if hasX {
			terms = append(terms, selfX)
		}
		anyRel := dist.AnyRel(vt.rels)
		merged := mpc.Overlay(anyRel.Part.Scope(), anyRel.P(), terms...)
		prod, s := mpc.ReduceByKey(merged,
			func(kc mpc.KeyCount[int64]) int64 { return kc.Key },
			func(a, b mpc.KeyCount[int64]) mpc.KeyCount[int64] {
				return mpc.KeyCount[int64]{Key: a.Key, Count: estimate.MulSat(a.Count, b.Count)}
			})
		st = mpc.Seq(st, s)
		return prod, true
	}

	res, nontrivial := visit(root, -1)
	if !nontrivial {
		// No other pendant roots: y(b) = 1 for every b.
		p := dist.AnyRel(vt.rels).P()
		res = mpc.NewPartIn[mpc.KeyCount[int64]](dist.AnyRel(vt.rels).Part.Scope(), p)
	}
	return res, st
}

// heavyClass is the one class of a pendant root's heavy table: its heavy
// values are classified, its light values are not (dist.NoClass).
const heavyClass int64 = 0

// buildSubquery filters the relations incident to each pendant root by its
// heavy/light side (bit set in mask = heavy) and runs the full reducer.
// Returns the filtered vtree and whether the subquery is empty.
func buildSubquery[W any](sr semiring.Semiring[W], vt *vtree[W], roots []hypergraph.Attr, heavy map[hypergraph.Attr]mpc.Part[dist.ValueClass], mask int) (*vtree[W], bool, mpc.Stats) {
	sub := &vtree[W]{q: vt.q, groups: vt.groups, rels: make(map[string]dist.Rel[W], len(vt.rels)), seed: vt.seed + uint64(mask)*0x9e37 + 1, depth: vt.depth}
	for k, v := range vt.rels {
		sub.rels[k] = v
	}
	var st mpc.Stats
	for i, b := range roots {
		side := dist.NoClass // the light rows: their root value is in no heavy table
		if mask&(1<<i) != 0 {
			side = heavyClass
		}
		for _, ei := range vt.q.EdgesAt(b) {
			name := vt.q.Edges[ei].Name
			tagged, s := dist.TagByClass(sub.rels[name], b, heavy[b])
			st = mpc.Seq(st, s)
			sub.rels[name] = tagged.Select(side)
		}
	}
	clean, s := dist.RemoveDangling(sub.q, sub.rels)
	st = mpc.Seq(st, s)
	sub.rels = clean
	n, s2 := mpc.TotalCount(clean[sub.q.Edges[0].Name].Part)
	st = mpc.Seq(st, s2)
	return sub, n == 0, st
}

// materializeAndRecurse computes Q_B for every light pendant root,
// replaces each pendant by a combined output vertex, and recurses.
func materializeAndRecurse[W any](sr semiring.Semiring[W], vt *vtree[W], sk *hypergraph.Skeleton, lights []hypergraph.Attr, outSchema []dist.Attr) (dist.Rel[W], mpc.Stats) {
	var st mpc.Stats
	p := dist.AnyRel(vt.rels).P()

	next := &vtree[W]{
		q:      &hypergraph.Query{Output: append([]hypergraph.Attr(nil), vt.q.Output...)},
		groups: map[hypergraph.Attr][]dist.Attr{},
		rels:   map[string]dist.Rel[W]{},
		seed:   vt.seed*0x9e3779b9 + 17,
		depth:  vt.depth + 1,
	}
	for k, v := range vt.groups {
		next.groups[k] = v
	}

	removedEdges := make(map[string]bool)
	removedLeaves := make(map[hypergraph.Attr]bool)
	for _, b := range lights {
		pq := sk.Pendants[b]
		arms := armsOf(vt, pq, b)

		// Shrink each arm to R(leaf…, b) with Yannakakis folds, then join
		// the arms into Q_B over (b, all pendant leaves).
		var acc dist.Rel[W]
		for ai, arm := range arms {
			armRel, s := twoway.FoldChain(sr, arm.rels, arm.path, p)
			st = mpc.Seq(st, s)
			// Single-relation arms may span extra attrs already (keep all).
			if ai == 0 {
				acc = armRel
			} else {
				joined, _, s := twoway.Join(sr, acc, armRel)
				st = mpc.Seq(st, s)
				acc = dist.Reshape(joined, p)
			}
		}

		// Register the combined vertex.
		gname := hypergraph.Attr(fmt.Sprintf("⟨Q%s:%d⟩", b, vt.depth))
		next.groups[gname] = dist.Without(acc.Schema, b)
		ename := fmt.Sprintf("⟨R%s:%d⟩", b, vt.depth)
		next.q.Edges = append(next.q.Edges, hypergraph.Edge{Name: ename, Attrs: []hypergraph.Attr{b, gname}})
		next.rels[ename] = acc

		for _, e := range pq.Edges {
			removedEdges[e.Name] = true
		}
		for _, v := range pq.Attrs() {
			if v != b && vt.q.IsOutput(v) {
				removedLeaves[v] = true
			}
		}
		next.q.Output = append(next.q.Output, gname)
	}

	for _, e := range vt.q.Edges {
		if !removedEdges[e.Name] {
			next.q.Edges = append(next.q.Edges, e)
			next.rels[e.Name] = vt.rels[e.Name]
		}
	}
	var outs []hypergraph.Attr
	for _, o := range next.q.Output {
		if !removedLeaves[o] {
			outs = append(outs, o)
		}
	}
	next.q.Output = outs

	res, s := evalTwig(sr, next)
	st = mpc.Seq(st, s)
	return dist.Reorder(res, outSchema), st
}
