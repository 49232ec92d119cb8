package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"mpcjoin/internal/mpc"
	"mpcjoin/internal/planner"
	"mpcjoin/internal/workload"
)

// goldenRows and goldenCosts pin what every legal engine (and auto)
// produces on the seven planner-check instances at quick size, p = 16,
// seed 1, as two FNV-64a digests: the rows digest hashes the schema and the
// gathered rows in result order; the cost digest hashes the Stats, every
// RoundTrace of the execution (op label, per-round loads and bytes) and —
// for auto — the chosen engine and the pre-pass's Plan.EstimateStats.
//
// The determinism and transport-equivalence sweeps compare runs within one
// commit; these tables compare commits. A refactor of a shared primitive
// that shifts one round's load, relabels one round or reorders one output
// row passes every other test and fails here. The rows digests were
// captured at d71c737 and no change to rounds or loads moves them; re-pin
// the cost digests only in a change whose stated purpose is to change
// rounds or loads.
var goldenRows = map[string]uint64{
	"matmul-sparse/auto":             0x1d6acac6a4bd9ea3,
	"matmul-sparse/matmul-linear":    0x1d6acac6a4bd9ea3,
	"matmul-sparse/matmul-worstcase": 0xd57aaa551b35f43,
	"matmul-sparse/matmul-outsens":   0x1d6acac6a4bd9ea3,
	"matmul-sparse/yannakakis":       0x1d6acac6a4bd9ea3,
	"matmul-sparse/matmul":           0x1d6acac6a4bd9ea3,
	"matmul-sparse/tree":             0x1d6acac6a4bd9ea3,
	"matmul-dense/auto":              0xa64201cd546c1ffd,
	"matmul-dense/matmul-linear":     0xd5f7297c31ff2ac9,
	"matmul-dense/matmul-worstcase":  0xa64201cd546c1ffd,
	"matmul-dense/matmul-outsens":    0xa4ab6b43e8764c39,
	"matmul-dense/yannakakis":        0xd5f7297c31ff2ac9,
	"matmul-dense/matmul":            0xa64201cd546c1ffd,
	"matmul-dense/tree":              0xd5f7297c31ff2ac9,
	"line/auto":                      0xacc8d402090efbe8,
	"line/yannakakis":                0xacc8d402090efbe8,
	"line/line":                      0xacc8d402090efbe8,
	"line/tree":                      0xacc8d402090efbe8,
	"star/auto":                      0x65f55e81947a8bc8,
	"star/yannakakis":                0x65f55e81947a8bc8,
	"star/star":                      0x65f55e81947a8bc8,
	"star/tree":                      0x65f55e81947a8bc8,
	"star-like/auto":                 0x6978c6c7cb228c5,
	"star-like/yannakakis":           0x6978c6c7cb228c5,
	"star-like/star-like":            0x6978c6c7cb228c5,
	"star-like/tree":                 0x6978c6c7cb228c5,
	"tree/auto":                      0xfb8fb2316cb9b5e0,
	"tree/tree":                      0xfb8fb2316cb9b5e0,
	"tree/yannakakis":                0xfb8fb2316cb9b5e0,
	"free-connex/auto":               0x1a120b6cf1b0907f,
	"free-connex/yannakakis":         0x1a120b6cf1b0907f,
	"free-connex/tree":               0x1a120b6cf1b0907f,
}

var goldenCosts = map[string]uint64{
	"matmul-sparse/auto":             0xfc95b0145cb099d8,
	"matmul-sparse/matmul-linear":    0x5f884aab919dbf6e,
	"matmul-sparse/matmul-worstcase": 0xb1ad97c61f2c6057,
	"matmul-sparse/matmul-outsens":   0x2d939c30064216f2,
	"matmul-sparse/yannakakis":       0xbe669baa896f5a9a,
	"matmul-sparse/matmul":           0x2d939c30064216f2,
	"matmul-sparse/tree":             0x431aaef585f505fd,
	"matmul-dense/auto":              0x89a02c798baf4560,
	"matmul-dense/matmul-linear":     0x648f687eafb00f81,
	"matmul-dense/matmul-worstcase":  0xd89dcea865a05ed4,
	"matmul-dense/matmul-outsens":    0xa973c3febabdf959,
	"matmul-dense/yannakakis":        0x6483d1df65027fff,
	"matmul-dense/matmul":            0x5c5a321e5147f5bd,
	"matmul-dense/tree":              0xfcecf59a928a00d0,
	"line/auto":                      0x865f131aeba627f4,
	"line/yannakakis":                0x3667097dd0818a1c,
	"line/line":                      0x5e86cb51749d27cf,
	"line/tree":                      0xcf06ef32d9f61daf,
	"star/auto":                      0xc457866abfa1b05,
	"star/yannakakis":                0xde85b114bd03236e,
	"star/star":                      0xcda96c473c01a99e,
	"star/tree":                      0x63a1d137eaa9684c,
	"star-like/auto":                 0xa044b60b6ac12c11,
	"star-like/yannakakis":           0xba3c4c41c46e4aa8,
	"star-like/star-like":            0x7ce1312ad1a1066c,
	"star-like/tree":                 0x5736ffc7976b4cd8,
	"tree/auto":                      0x7f7266cb2f070ae,
	"tree/tree":                      0x658cf9bd6e6f5563,
	"tree/yannakakis":                0x3b786ac285251a0b,
	"free-connex/auto":               0x8d84e4d0a6392686,
	"free-connex/yannakakis":         0xe3090b96bfa487cd,
	"free-connex/tree":               0x54c495bb2bcac0f3,
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
			rows := fnv.New64a()
			fmt.Fprintf(rows, "%v|", res.Schema())
			for _, row := range res.Rows {
				fmt.Fprintf(rows, "%v=%v;", row.Vals, row.W)
			}
			cost := fnv.New64a()
			fmt.Fprintf(cost, "%+v|", st)
			for _, r := range tr.Rounds() {
				fmt.Fprintf(cost, "%+v;", r)
			}
			key := name + "/" + engine
			if engine == "" {
				key = name + "/auto"
				fmt.Fprintf(cost, "|%s|%+v", plan.Chosen, plan.EstimateStats)
			}
			for _, d := range []struct {
				what   string
				pinned map[string]uint64
				got    uint64
			}{{"rows", goldenRows, rows.Sum64()}, {"cost", goldenCosts, cost.Sum64()}} {
				if want, ok := d.pinned[key]; !ok || d.got != want {
					t.Errorf("%s %q: %#x, // pinned %#x (%d rows, %+v, %d traced rounds)",
						d.what, key, d.got, want, len(res.Rows), st, len(tr.Rounds()))
				}
			}
		}
	}
}
