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
	"matmul-sparse/auto":             0x68eb316a239061f8,
	"matmul-sparse/matmul-linear":    0xc6ed6d48cc1a9ebf,
	"matmul-sparse/matmul-worstcase": 0x1217d32c422061eb,
	"matmul-sparse/matmul-outsens":   0x4ffb5b4f7d9b879c,
	"matmul-sparse/yannakakis":       0x2a177c64589b853c,
	"matmul-sparse/matmul":           0x4ffb5b4f7d9b879c,
	"matmul-sparse/tree":             0xf2a4e141169ac829,
	"matmul-dense/auto":              0x54a9e108b76a49d3,
	"matmul-dense/matmul-linear":     0x34dddce1394b5177,
	"matmul-dense/matmul-worstcase":  0xca48e294201d2425,
	"matmul-dense/matmul-outsens":    0x2deb1e87ed635cfb,
	"matmul-dense/yannakakis":        0xd37fd0d3cac4df42,
	"matmul-dense/matmul":            0xd2ec83cdcbee983d,
	"matmul-dense/tree":              0x750667f4c2d647c0,
	"line/auto":                      0x4a920f4c29c4147d,
	"line/yannakakis":                0x7fa9654d8541afda,
	"line/line":                      0x6362ee96ea4f1257,
	"line/tree":                      0x41a693017f737b95,
	"star/auto":                      0x2c5d8b77729173a1,
	"star/yannakakis":                0x19570920e3bdb844,
	"star/star":                      0x428e98004df83804,
	"star/tree":                      0x9ac3525a37302db0,
	"star-like/auto":                 0x1d54950f9ede9946,
	"star-like/yannakakis":           0x6f692a736061cf50,
	"star-like/star-like":            0x2c5e8069d30887ed,
	"star-like/tree":                 0x3074fb1b7be87497,
	"tree/auto":                      0xb45e67b883e0c953,
	"tree/tree":                      0xbefff6216854ed44,
	"tree/yannakakis":                0x232e589a3a952308,
	"free-connex/auto":               0xd1070315d86f2440,
	"free-connex/yannakakis":         0x26338ca593fcb3cd,
	"free-connex/tree":               0x202c66b94fd6e300,
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
