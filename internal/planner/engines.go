package planner

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"mpcjoin/internal/dist"
	"mpcjoin/internal/hypergraph"
)

// Engine names. EngineAuto is not an engine: it is the spelling of "let
// the planner choose" that ParseEngine accepts next to the table's names.
const (
	EngineAuto            = "auto"
	EngineYannakakis      = "yannakakis"
	EngineTree            = "tree"
	EngineLine            = "line"
	EngineStar            = "star"
	EngineStarLike        = "star-like"
	EngineMatMul          = "matmul" // composite: Theorem 1 (theorem1.go) picks the branch
	EngineMatMulLinear    = "matmul-linear"
	EngineMatMulWorstCase = "matmul-worstcase"
	EngineMatMulOutSens   = "matmul-outsens"
)

// Engine is one row of the engine table: everything the system knows about
// an engine except how to run it. The run half is generic over the
// semiring type, so it lives in core's runner table under the same names
// (a core test fails when the key sets differ); this package stays pure
// arithmetic.
type Engine struct {
	Name string
	// Ranked maps each query class in whose ranking the engine competes to
	// its tie-preference rank there: of two candidates predicting the same
	// load, the lower rank wins.
	Ranked map[hypergraph.Class]int
	// ForcedOnly lists further classes the engine may run, but only when
	// forced by name or when its FastPath claims the instance.
	ForcedOnly []hypergraph.Class
	// Cost instantiates the engine's load formula on the instance sizes
	// (the Candidate's Engine field is filled in from Name).
	Cost func(Input) Candidate
	// FastPath, when set, returns a non-empty reason on instances this
	// engine wins without any comparison and without size estimates.
	FastPath func(Input) string
	// PermClasses marks the engines built on the degree-permutation class
	// split (dist.DegreeOrderClasses), which cannot name the classes of a
	// query joining more than dist.MaxPermArms relations at one aggregated
	// attribute: there they are infeasible candidates and cannot be forced.
	PermClasses bool
}

func (e *Engine) price(in Input) Candidate {
	c := e.Cost(in)
	c.Engine = e.Name
	if e.PermClasses && in.Arms > dist.MaxPermArms {
		c.Feasible = false
	}
	return c
}

// Shorthands that keep a table row on one line.
const (
	cMatMul     = hypergraph.ClassMatMul
	cLine       = hypergraph.ClassLine
	cStar       = hypergraph.ClassStar
	cStarLike   = hypergraph.ClassStarLike
	cFreeConnex = hypergraph.ClassFreeConnex
	cTree       = hypergraph.ClassTree
)

type ranks = map[hypergraph.Class]int

// Engines is the engine table. Adding an engine is appending a row here,
// a runner under the same name in core, and a boundcheck case.
//
// The tie ranks encode what the sweeps measured. The matmul
// specializations precede the baseline in their class — at a tie the
// cheaper algorithm wins. The pair-list specializations (line, star,
// star-like) buy their skew bounds with residual matmul grids whose sample
// gathers span scratch servers beyond p, so at a tie the simpler fold
// pipeline measures no worse and yannakakis ranks first; the tree engine
// is itself a fold and keeps precedence over the baseline in its own
// class. It subsumes every class via its twig dispatch, so it may be
// forced on a matmul too, but has no formula of its own there.
var Engines = []Engine{
	{Name: EngineMatMul, ForcedOnly: []hypergraph.Class{cMatMul}, Cost: costMatMulFast, FastPath: matMulFastPath},
	{Name: EngineMatMulLinear, Ranked: ranks{cMatMul: 0}, Cost: costMatMulLinear},
	{Name: EngineMatMulWorstCase, Ranked: ranks{cMatMul: 1}, Cost: costMatMulWorstCase},
	{Name: EngineMatMulOutSens, Ranked: ranks{cMatMul: 2}, Cost: costMatMulOutSens},
	{Name: EngineYannakakis, Cost: costYannakakis,
		Ranked: ranks{cMatMul: 3, cLine: 0, cStar: 0, cStarLike: 0, cFreeConnex: 0, cTree: 1}},
	{Name: EngineLine, Ranked: ranks{cLine: 1}, Cost: costChain},
	{Name: EngineStar, Ranked: ranks{cStar: 1}, Cost: costProduct, PermClasses: true},
	{Name: EngineStarLike, Ranked: ranks{cStarLike: 1}, Cost: costChain, PermClasses: true},
	{Name: EngineTree, Cost: costTree, ForcedOnly: []hypergraph.Class{cMatMul}, PermClasses: true,
		Ranked: ranks{cLine: 2, cStar: 2, cStarLike: 2, cFreeConnex: 1, cTree: 0}},
}

// legal returns the class's legal engines: the ranked ones in tie order,
// then the forced-only ones in table order.
func legal(class hypergraph.Class) []*Engine {
	var ranked, forced []*Engine
	for i := range Engines {
		e := &Engines[i]
		if _, ok := e.Ranked[class]; ok {
			ranked = append(ranked, e)
		} else if slices.Contains(e.ForcedOnly, class) {
			forced = append(forced, e)
		}
	}
	sort.Slice(ranked, func(a, b int) bool { return ranked[a].Ranked[class] < ranked[b].Ranked[class] })
	return append(ranked, forced...)
}

// Legal names the engines that may run a query of the class, ranked ones
// first in tie-preference order.
func Legal(class hypergraph.Class) []string {
	var names []string
	for _, e := range legal(class) {
		names = append(names, e.Name)
	}
	return names
}

// Names lists the table's engine names in table order.
func Names() []string {
	var names []string
	for _, e := range Engines {
		names = append(names, e.Name)
	}
	return names
}

// ParseEngine is the one parser of engine spellings (the library's
// WithEngine, the service's "strategy" field, mpcrun -engine). It returns
// the value for core's Options.Engine: "" — automatic selection — for ""
// and "auto", the name itself for a table row, an error otherwise.
func ParseEngine(s string) (string, error) {
	switch {
	case s == "" || s == EngineAuto:
		return "", nil
	case slices.Contains(Names(), s):
		return s, nil
	}
	return "", fmt.Errorf("unknown engine %q (want %s or one of %s)", s, EngineAuto, strings.Join(Names(), ", "))
}

// Forced checks that the named engine may run the query — legal for its
// class (unknown names fail like illegal ones) and, for a class-split
// engine, within dist.MaxPermArms — and builds the trivial plan of an
// execution whose engine was fixed up front, so a plan is always reported.
func Forced(q *hypergraph.Query, engine string) (Plan, error) {
	class := q.Classify()
	for _, e := range legal(class) {
		if e.Name != engine {
			continue
		}
		if e.PermClasses {
			if err := dist.CheckPermArms(q.AggregatedDegree()); err != nil {
				return Plan{}, fmt.Errorf("engine %q cannot run this query: %w", engine, err)
			}
		}
		return Plan{Class: class.String(), Chosen: engine, Reason: "forced by name"}, nil
	}
	return Plan{}, fmt.Errorf("engine %q is not legal for class %s (legal: %v)", engine, class, Legal(class))
}

// ---------------------------------------------------------------------------
// Cost formulas
// ---------------------------------------------------------------------------

func (in Input) p() float64 { return math.Max(float64(in.P), 1) }

// always is a candidate whose formula has no precondition.
func always(load float64, formula string) Candidate {
	return Candidate{PredictedLoad: load, Formula: formula, Feasible: true}
}

// sortCost prices one distributed sample sort of a collection of size m:
// the balanced range-partition reshuffle (m/p per server) and the
// regular-sampling all-gather (each holder sends min(p, local) samples to
// every server, so each receives min(m, p²)).
func (in Input) sortCost(m float64) float64 {
	p := in.p()
	return math.Max(m/p, math.Min(m, p*p))
}

// floor is what every engine pays first: sorting its input relations
// (dangling removal / initial placement touches each tuple plus its
// reducer messages).
func (in Input) floor() float64 { return in.sortCost(2 * float64(in.NMax)) }

// scratch is the sample gather of the specialized engines. They assemble
// the output from heavy/light-decomposed pair lists, and their residual
// matmul subjoins run on scratch grids spanning up to p+2 servers — so
// their gathers are capped by min(·, (p+2)²), not p². (Their Table 1 skew
// terms — Nmax·√OUT/p and friends — bound the heavy-value handling, which
// these collection prices subsume on concrete instances: heavy values
// inflate the collections, never the per-sort structure.)
func (in Input) scratch() float64 {
	p := in.p()
	return math.Min(float64(in.N)+float64(in.Out), (p+2)*(p+2))
}

// matMulFastPath hands the instances Theorem 1 decides on sizes alone to
// the composite matmul engine, which takes the same fast path itself.
func matMulFastPath(in Input) string {
	return map[string]string{
		EngineMatMulBroadcast: "broadcast fast path: one side has at most one tuple",
		EngineMatMulUnequal:   "unequal-ratio fast path: size ratio exceeds p",
	}[MatMulFastPath(in.N1, in.N2, in.P)]
}

func costMatMulFast(in Input) Candidate {
	return always(math.Max(in.floor(), in.sortCost(float64(in.Out))),
		"sort(N) + sort(OUT)")
}

func costMatMulLinear(in Input) Candidate {
	n1, n2, out := float64(in.N1), float64(in.N2), float64(in.Out)
	return Candidate{
		PredictedLoad: math.Max(in.floor(), math.Max(in.sortCost(n1), math.Max(in.sortCost(n2), in.sortCost(out)))),
		Formula:       "max(sort(N1), sort(N2), sort(OUT))  [OUT ≤ N/p]",
		Feasible:      LinearGate(in.N1, in.N2, in.Out, in.P),
	}
}

func costMatMulWorstCase(in Input) Candidate {
	return always(math.Max(in.floor(), (float64(in.N1)+float64(in.N2))/math.Sqrt(in.p())),
		"max(sort(N), N/√p)")
}

func costMatMulOutSens(in Input) Candidate {
	p, n, out := in.p(), float64(in.N), float64(in.Out)
	n12 := float64(in.N1) * float64(in.N2)
	return always(math.Max(in.floor(), math.Max(math.Cbrt(n12*out)/math.Cbrt(p*p), in.sortCost(n+out))),
		"max(sort(N), (N1·N2·OUT)^{1/3}/p^{2/3}, sort(N+OUT))")
}

// costYannakakis prices the baseline, which folds leaves into parents.
// Each fold is a grid two-way join whose per-server receive is twice the
// join's load target max(inputs/p, √(Jfold/p)) — servers receive the
// fold's inputs (the edge relation plus the aggregated subtree image),
// never its output, which is produced locally — followed by an
// early-aggregation sort of the fold intermediate. That sort's reshuffle
// runs where the grid join left the collection, a subcluster of d(p) =
// max(3, (√p−1)²) effective targets (calibrated against the sweep's
// measured fold rounds), over the intermediate after local
// pre-combination — bounded by the fold's aggregated result OUT+Nmax. Its
// sample gather sees the un-combined intermediate (samples leave before
// runs collapse), hence the min(Jfold, p²) cap on the raw fold size.
func costYannakakis(in Input) Candidate {
	p, nmax, out := in.p(), float64(in.NMax), float64(in.Out)
	// foldJ is the largest pre-aggregation fold intermediate: the profiled
	// value when the pre-pass ran, else the early-aggregation cap
	// min(J, Nmax+OUT) — a fold joins one relation against an aggregated
	// image, which the output plus the relation's own rows bound. img is
	// the largest aggregated image itself (the input side of that join),
	// falling back to OUT.
	foldJ := float64(in.MaxFold)
	if in.MaxFold <= 0 {
		foldJ = math.Min(float64(in.J), nmax+out)
	}
	img := float64(in.MaxImage)
	if in.MaxImage <= 0 {
		img = out
	}
	d := math.Max(3, (math.Sqrt(p)-1)*(math.Sqrt(p)-1))
	foldSort := math.Max(math.Min(foldJ, out+nmax)/d, math.Min(foldJ, p*p))
	return always(math.Max(in.floor(), math.Max(2*math.Max((nmax+img)/p, math.Sqrt(foldJ/p)), foldSort)),
		"max(sort(2·Nmax), 2·max((Nmax+IMG)/p, √(Jfold/p)), min(Jfold, OUT+Nmax)/d(p), min(Jfold, p²))")
}

// costChain prices chain assembly (line, star-like): the accumulated
// output list is threaded through a chain of pair-list joins (the pair
// lists ride inside it, so the reshuffle is OUT/p), and the scratch-grid
// gather piggybacks on the reshuffle round, so the two add.
func costChain(in Input) Candidate {
	return always(math.Max(in.floor(), float64(in.Out)/in.p()+in.scratch()),
		"max(sort(2·Nmax), OUT/p + min(N+OUT, (p+2)²))")
}

// costProduct prices product assembly (star): one root-keyed product joins
// all branch lists at once — the N/p + OUT/p receive of Table 1's star
// bound — and the gather stays a round of its own, so the terms max.
func costProduct(in Input) Candidate {
	n, nmax, out := float64(in.N), float64(in.NMax), float64(in.Out)
	return always(math.Max(in.floor(), math.Max((n+nmax+out)/in.p(), in.scratch())),
		"max(sort(2·Nmax), (N+Nmax+OUT)/p, min(N+OUT, (p+2)²))")
}

// costTree prices the generic tree join. Inside the line, star and
// star-like classes its twig dispatch follows the same assembly shape as
// the class engine, so it is priced by that engine's formula. Elsewhere
// its assembly sorts see only the aggregated output relation, so the
// gather operand is Nmax+OUT rather than the raw carried collection.
func costTree(in Input) Candidate {
	switch in.Class {
	case cLine, cStarLike:
		return costChain(in)
	case cStar:
		return costProduct(in)
	}
	p, nmax, out := in.p(), float64(in.NMax), float64(in.Out)
	return always(math.Max(in.floor(), math.Max((nmax+out)/p, math.Min(nmax+out, (p+2)*(p+2)))),
		"max(sort(2·Nmax), (Nmax+OUT)/p, min(Nmax+OUT, (p+2)²))")
}
