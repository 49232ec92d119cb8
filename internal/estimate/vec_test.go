package estimate

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"mpcjoin/internal/dist"
	"mpcjoin/internal/kmv"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/relation"
	"mpcjoin/internal/workload"
)

// oracle is the reference a Vec is held to: one copy-on-write kmv.Sketch
// per repetition, driven through New, Insert and Merge only.
type oracle []kmv.Sketch

func newOracle(p Params, items ...uint64) oracle {
	o := make(oracle, p.reps)
	for i := range o {
		o[i] = kmv.New(p.k, p.Seed+uint64(i)*0x9e37)
		for _, it := range items {
			o[i] = o[i].Insert(it)
		}
	}
	return o
}

func (o oracle) merge(b oracle) oracle {
	out := make(oracle, len(o))
	for i := range o {
		out[i] = kmv.Merge(o[i], b[i])
	}
	return out
}

func (o oracle) tag(tag uint64) oracle {
	out := make(oracle, len(o))
	for i, s := range o {
		out[i] = kmv.New(s.K, s.Seed)
		for _, hv := range s.Vals {
			out[i] = out[i].Insert(hv ^ (tag * 0x9e3779b97f4a7c15))
		}
	}
	return out
}

func (o oracle) product(b oracle) oracle {
	out := make(oracle, len(o))
	for i, s := range o {
		out[i] = kmv.New(s.K, s.Seed)
		for _, ha := range s.Vals {
			for _, hb := range b[i].Vals {
				out[i] = out[i].Insert(ha ^ (hb*0x9e3779b97f4a7c15 + 0x94d049bb133111eb))
			}
		}
	}
	return out
}

func (o oracle) estimate() float64 {
	ests := make([]float64, len(o))
	for i, s := range o {
		ests[i] = s.Estimate()
	}
	sort.Float64s(ests)
	return ests[len(ests)/2]
}

// requireOracle demands the vector's per-repetition value lists and its
// estimate be the oracle's.
func requireOracle(t *testing.T, name string, v Vec, o oracle) {
	t.Helper()
	if v.reps() != len(o) {
		t.Fatalf("%s: %d repetitions, want %d", name, v.reps(), len(o))
	}
	for i, s := range o {
		if v.k() != s.K || repSeed(v.seed(), i) != s.Seed || !slices.Equal(v.rep(i), s.Vals) {
			t.Fatalf("%s rep %d: K %d seed %#x vals %v, want %+v", name, i, v.k(), repSeed(v.seed(), i), v.rep(i), s)
		}
	}
	if got, want := v.Estimate(), o.estimate(); got != want {
		t.Fatalf("%s: estimate %v, want %v", name, got, want)
	}
}

// vecOf builds the vector of an item set the way the fold does: singletons,
// ⊕-merged.
func vecOf(p Params, items []uint64) Vec {
	v := NewVec(p)
	for _, it := range items {
		v = MergeVec(v, SingletonVec(p, it))
	}
	return v
}

// TestVecMatchesSketchOracle drives every vector operation and the
// per-repetition kmv.Sketch reference with the same random item sets: an
// empty side, duplicates, fewer than K items, far more than K (saturated),
// K = 2, and both repetition counts the planner uses.
func TestVecMatchesSketchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	draw := func(n, domain int) []uint64 {
		items := make([]uint64, n)
		for i := range items {
			items[i] = uint64(rng.Intn(domain)) // domain < n forces duplicates
		}
		return items
	}
	for _, k := range []int{2, 8, 64} {
		for _, reps := range []int{5, 17} {
			p := Params{k: k, reps: reps, Seed: uint64(k*131 + reps)}
			sets := map[string][]uint64{
				"empty":     nil,
				"one":       {42},
				"dups":      draw(3*k, k/2+1),
				"below-K":   draw(k-1, 1<<30),
				"at-K":      draw(k, 1<<30),
				"saturated": draw(20*k, 1<<30),
			}
			for an, as := range sets {
				a, oa := vecOf(p, as), newOracle(p, as...)
				name := fmt.Sprintf("K=%d/reps=%d/%s", k, reps, an)
				requireOracle(t, name+"/merged singletons", a, oa)
				requireOracle(t, name+"/tag", TagVec(a, 0xfeed), oa.tag(0xfeed))
				ins := a
				for _, it := range as {
					ins = ins.Insert(it + 1)
					oa = oa.merge(newOracle(p, it+1))
				}
				requireOracle(t, name+"/insert", ins, oa)
				oa = newOracle(p, as...)
				for bn, bs := range sets {
					b, ob := vecOf(p, bs), newOracle(p, bs...)
					requireOracle(t, name+"⊕"+bn, MergeVec(a, b), oa.merge(ob))
					requireOracle(t, name+"⊗"+bn, ProductVec(a, b), oa.product(ob))
				}
			}
		}
	}
}

func TestSingletonVecEqualsNewInsert(t *testing.T) {
	p := Params{k: 16, reps: 5, Seed: 3}
	for _, item := range []uint64{0, 1, 42, ^uint64(0)} {
		requireOracle(t, fmt.Sprint("singleton ", item), SingletonVec(p, item), newOracle(p, item))
		requireOracle(t, fmt.Sprint("insert ", item), NewVec(p).Insert(item), newOracle(p, item))
	}
}

// TestVecOpsLeaveOperandsUntouched: the fold's untagged carry shares one
// vector between Part elements and the fault plane re-sends outboxes, so no
// operation may write into an operand — including a repetition where one
// side is empty, the case that used to alias.
func TestVecOpsLeaveOperandsUntouched(t *testing.T) {
	p := Params{k: 4, reps: 5, Seed: 9}
	for name, items := range map[string][2][]uint64{
		"empty-side": {nil, {7}},
		"unsat":      {{1, 2}, {2, 3}},
		"saturated":  {{1, 2, 3, 4, 5, 6, 7, 8, 9}, {10, 11, 12, 13, 14, 15, 16}},
	} {
		a, b := vecOf(p, items[0]), vecOf(p, items[1])
		wa, wb := slices.Clone(a.w), slices.Clone(b.w)
		m := MergeVec(a, b)
		for _, r := range []Vec{m, MergeVec(b, a), ProductVec(a, b), TagVec(a, 5), TagVec(b, 5), a.Insert(99), m.Insert(8)} {
			_ = r.Estimate()
		}
		if !slices.Equal(a.w, wa) || !slices.Equal(b.w, wb) {
			t.Fatalf("%s: an operation wrote into its operand", name)
		}
		requireOracle(t, name, m, newOracle(p, items[0]...).merge(newOracle(p, items[1]...)))
	}
}

// TestVecAllocationContract: a vector is built once — every operation is
// one allocation, and reading the estimate none.
func TestVecAllocationContract(t *testing.T) {
	p := Params{k: 64, reps: 17, Seed: 1}
	var big []uint64
	for i := uint64(0); i < 500; i++ {
		big = append(big, i)
	}
	small, sat, wide := vecOf(p, big[:6]), vecOf(p, big), vecOf(Params{k: 2, reps: 64}, big)
	var sink Vec
	var est float64
	for name, c := range map[string]struct {
		want float64
		op   func()
	}{
		"SingletonVec":     {1, func() { sink = SingletonVec(p, 77) }},
		"MergeVec":         {1, func() { sink = MergeVec(small, sat) }},
		"ProductVec/small": {1, func() { sink = ProductVec(small, small) }},
		"ProductVec/sat":   {1, func() { sink = ProductVec(sat, sat) }},
		"TagVec":           {1, func() { sink = TagVec(sat, 3) }},
		"Estimate":         {0, func() { est = sat.Estimate() }},
		"Estimate/64 reps": {0, func() { est = wide.Estimate() }},
	} {
		if got := testing.AllocsPerRun(50, c.op); got != c.want {
			t.Errorf("%s: %v allocations per run, want %v", name, got, c.want)
		}
	}
	_, _ = sink, est
}

func TestMergeVecIncompatiblePanics(t *testing.T) {
	base := Params{k: 8, reps: 5, Seed: 1}
	for name, other := range map[string]Params{
		"K":    {k: 16, reps: 5, Seed: 1},
		"reps": {k: 8, reps: 7, Seed: 1},
		"seed": {k: 8, reps: 5, Seed: 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("merging vectors of different %s did not panic", name)
				}
			}()
			MergeVec(SingletonVec(base, 1), SingletonVec(other, 1))
		}()
	}
}

// TestElementSizesPinned: the tracer meters a message as units ×
// sizeof(element), so the header sizes are part of every golden trace.
func TestElementSizesPinned(t *testing.T) {
	if got := unsafe.Sizeof(Vec{}); got != 24 {
		t.Errorf("unsafe.Sizeof(Vec{}) = %d, want 24", got)
	}
	if got := unsafe.Sizeof(KeySketch{}); got != 40 {
		t.Errorf("unsafe.Sizeof(KeySketch{}) = %d, want 40", got)
	}
}

// TestHashItemAgreesWithHashCols: a leaf hashes its row in place with
// relation.HashCols and a tag hashes an encoded key with relation.HashString
// at seed 0; both must name a tuple by the same item.
func TestHashItemAgreesWithHashCols(t *testing.T) {
	vals := []relation.Value{0, -1, 7, -1 << 63, 1<<63 - 1, 123456789}
	for _, idx := range [][]int{{}, {0}, {3, 4}, {5, 3, 1, 4}} {
		if got, want := relation.HashString(relation.EncodeKey(vals, idx), 0), relation.HashCols(vals, idx); got != want {
			t.Errorf("columns %v: HashString(EncodeKey, 0) %#x, relation.HashCols %#x", idx, got, want)
		}
	}
}

// copyWire is an in-memory mpc.Wire that, like internal/mpc's own test wire,
// delivers a copy of every payload and honors the round's drop and crash
// directives.
type copyWire struct{}

func (copyWire) Close() error { return nil }

func (copyWire) ExchangeRound(_ context.Context, r *mpc.WireRound) (*mpc.WireInbox, error) {
	in := &mpc.WireInbox{Segs: make([][]mpc.WireMsg, r.PDst), Recv: make([]int64, r.PDst)}
	for i, m := range r.Msgs {
		switch {
		case i == r.Drop:
		case m.To == r.Crash:
			in.Lost += int64(m.Units)
		default:
			m.Payload = bytes.Clone(m.Payload)
			in.Segs[m.To] = append(in.Segs[m.To], m)
			in.Recv[m.To] += int64(m.Units)
		}
	}
	return in, nil
}

// TestFoldsSurviveFaults: sketch vectors ride in outboxes the fault plane
// re-sends, and are shared between elements, so both folds must return the
// clean run's estimates and Stats under dropped messages and crashed
// servers, on either carrier.
func TestFoldsSurviveFaults(t *testing.T) {
	const p = 8
	type result struct {
		Ests                   []mpc.KeyCount[string]
		Total                  int64
		Out, MaxFold, MaxImage int64
		LineStats, TreeStats   mpc.Stats
	}
	lineInst, _ := workload.Named("line").Gen(24)
	treeFam := workload.Named("tree")
	treeInst, _ := treeFam.Gen(6)
	run := func(ex *mpc.Exec) result {
		var res result
		line := []dist.Rel[int64]{
			dist.FromRelationIn(ex, lineInst["R1"], p), dist.FromRelationIn(ex, lineInst["R2"], p), dist.FromRelationIn(ex, lineInst["R3"], p),
		}
		ests, total, st := LineOut(line, [][]dist.Attr{{"A1"}, {"A2"}, {"A3"}, {"A4"}}, Params{Seed: 5})
		res.Ests, res.Total, res.LineStats = mpc.Collect(ests), total, st
		rels := map[string]dist.Rel[int64]{}
		for name, r := range treeInst {
			rels[name] = dist.FromRelationIn(ex, r, p)
		}
		res.Out, res.MaxFold, res.MaxImage, res.TreeStats = TreeOutProfile(treeFam.Query, rels, Params{Seed: 5})
		return res
	}
	want := run(mpc.NewExec(context.Background(), 1))
	if want.Total < 2 || want.Out < 2 {
		t.Fatalf("degenerate instance: %+v", want)
	}
	for name, spec := range map[string]mpc.FaultSpec{
		"drop":  {Seed: 5, DropProb: 0.3, MaxRetries: 12},
		"crash": {Seed: 18, CrashProb: 0.2, CrashRound: 2, MaxRetries: 12},
	} {
		for _, wired := range []bool{false, true} {
			fp := mpc.NewFaultPlane(spec)
			ex := mpc.NewExec(context.Background(), 2).WithFaults(fp)
			if wired {
				ex = ex.WithWire(copyWire{})
			}
			if got := run(ex); !reflect.DeepEqual(got, want) {
				t.Errorf("%s wired=%v: folds differ from the clean run:\n got %+v\nwant %+v", name, wired, got, want)
			}
			if rep := fp.Report(); rep.Detected == 0 {
				t.Errorf("%s wired=%v: schedule injected nothing (weak seed)", name, wired)
			}
		}
	}
}
