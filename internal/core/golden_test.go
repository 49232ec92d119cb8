package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"mpcjoin/internal/mpc"
	"mpcjoin/internal/planner"
	"mpcjoin/internal/workload"
)

// goldenDigests pins what every legal engine (and auto) produces on the
// seven planner-check instances at quick size, p = 16, seed 1: an FNV-64a
// hash of the gathered rows in result order, the Stats, every RoundTrace of
// the execution (op label, per-round loads and bytes) and — for auto — the
// pre-pass's Plan.EstimateStats and chosen engine.
//
// The determinism and transport-equivalence sweeps compare runs within one
// commit; this table compares commits. A refactor of a shared primitive
// that shifts one round's load, relabels one round or reorders one output
// row passes every other test and fails here. The digests were captured at
// the commit before the four skeletons (sample sort, all-reduce, tree fold,
// class split) were collapsed into single implementations; re-pin them only
// in a PR whose stated purpose is to change rounds or loads.
var goldenDigests = map[string]uint64{
	"matmul-sparse/auto":             0x9fda726644c9d144,
	"matmul-sparse/matmul-linear":    0x4a1b026b430b424c,
	"matmul-sparse/matmul-worstcase": 0x6542f11da0037b0e,
	"matmul-sparse/matmul-outsens":   0x6520a029d376c73b,
	"matmul-sparse/yannakakis":       0xfc647b9d990d638,
	"matmul-sparse/matmul":           0x6520a029d376c73b,
	"matmul-sparse/tree":             0xb932c40e724b4f25,
	"matmul-dense/auto":              0x25fbb016f5918dbe,
	"matmul-dense/matmul-linear":     0x6cacf92510959d74,
	"matmul-dense/matmul-worstcase":  0x6b30a5e1292455b7,
	"matmul-dense/matmul-outsens":    0x106f5d603a0b638d,
	"matmul-dense/yannakakis":        0x680eee32c5f11193,
	"matmul-dense/matmul":            0x5979f9db6b5bf7cc,
	"matmul-dense/tree":              0x1d8b4bcbce9af6a5,
	"line/auto":                      0x7ab55f8dfa8d509c,
	"line/yannakakis":                0xb4126ce88647e857,
	"line/line":                      0x1a42dacc4732c29a,
	"line/tree":                      0xb86afa66290b9527,
	"star/auto":                      0x53e35974cda0a61c,
	"star/yannakakis":                0x4d526a94fc19f94c,
	"star/star":                      0x60556949a0dd0d28,
	"star/tree":                      0x6cd5bc7698aeee42,
	"star-like/auto":                 0x95ccf2f5017e7246,
	"star-like/yannakakis":           0xdbb255209c2c385,
	"star-like/star-like":            0x67f13dac82c79aa8,
	"star-like/tree":                 0x4b74d08c86f7a48f,
	"tree/auto":                      0x4f7642c4848fb091,
	"tree/tree":                      0xb1a19798884a027c,
	"tree/yannakakis":                0xcaa8bdb85940de5,
	"free-connex/auto":               0x68e94034c155d6fb,
	"free-connex/yannakakis":         0x9d997ccde2ba6464,
	"free-connex/tree":               0xcff4117a5336aabb,
}

// goldenFamilies are the planner-check families, run at quick size: the
// catalogue spells them, so the digests above pin the catalogue too.
var goldenFamilies = []string{"matmul-sparse", "matmul-dense", "line", "star", "star-like", "tree", "free-connex"}

func TestGoldenAcrossCommits(t *testing.T) {
	for _, name := range goldenFamilies {
		fam := workload.Named(name)
		inst, _ := fam.Canonical(true)
		for _, engine := range append([]string{""}, planner.Legal(fam.Query.Classify())...) {
			tr := mpc.NewTracer()
			var plan planner.Plan
			res, st, err := Execute[int64](intSR, fam.Query, inst, Options{
				Servers: 16, Seed: 1, Engine: engine, Tracer: tr, PlanOut: &plan,
			})
			if err != nil {
				t.Fatalf("%s engine %q: %v", name, engine, err)
			}
			h := fnv.New64a()
			fmt.Fprintf(h, "%v|", res.Schema())
			for _, row := range res.Rows {
				fmt.Fprintf(h, "%v=%v;", row.Vals, row.W)
			}
			fmt.Fprintf(h, "|%+v|", st)
			for _, r := range tr.Rounds() {
				fmt.Fprintf(h, "%+v;", r)
			}
			key := name + "/" + engine
			if engine == "" {
				key = name + "/auto"
				fmt.Fprintf(h, "|%s|%+v", plan.Chosen, plan.EstimateStats)
			}
			want, pinned := goldenDigests[key]
			if got := h.Sum64(); !pinned || got != want {
				t.Errorf("%q: %#x, // pinned %#x (%d rows, %+v, %d traced rounds)",
					key, got, want, len(res.Rows), st, len(tr.Rounds()))
			}
		}
	}
}
