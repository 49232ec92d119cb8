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
	"matmul-sparse/auto":             0xc9a187bbd21af221,
	"matmul-sparse/matmul-linear":    0xf4508a3265b73bde,
	"matmul-sparse/matmul-worstcase": 0x80ee4d60447be019,
	"matmul-sparse/matmul-outsens":   0x5b461fea4d387c,
	"matmul-sparse/yannakakis":       0x37078043c32cc229,
	"matmul-sparse/matmul":           0x5b461fea4d387c,
	"matmul-sparse/tree":             0x6fd027c73bd9d7bb,
	"matmul-dense/auto":              0x3cc19c3fffda8dfe,
	"matmul-dense/matmul-linear":     0x1b4ccdea9b306c0,
	"matmul-dense/matmul-worstcase":  0x7340984f54618f72,
	"matmul-dense/matmul-outsens":    0x39bd3e283d55e808,
	"matmul-dense/yannakakis":        0x9954cf1862bbbe8b,
	"matmul-dense/matmul":            0xdeeb3c11671d63e8,
	"matmul-dense/tree":              0x75a793cb3aac7486,
	"line/auto":                      0x30f0ed9cf76fc7a0,
	"line/yannakakis":                0xcec8f863219f6c47,
	"line/line":                      0xe4e9aeefa490a21c,
	"line/tree":                      0xadd939b3a5e2ecc7,
	"star/auto":                      0x87f243d77956fa3,
	"star/yannakakis":                0x510be42e871e7092,
	"star/star":                      0x12aa44df04fb8dab,
	"star/tree":                      0xd6bbb694028c9226,
	"star-like/auto":                 0x9ad1391a31f24f8d,
	"star-like/yannakakis":           0x24a86e30209b429c,
	"star-like/star-like":            0x7eb615cc7e3d090e,
	"star-like/tree":                 0x50eb9abf4d6594e9,
	"tree/auto":                      0xe85975f6cc9018a5,
	"tree/tree":                      0x429fb0b1f90fca2b,
	"tree/yannakakis":                0xbf1f33a97013a7b1,
	"free-connex/auto":               0xc3c5f9fa8d0dbf09,
	"free-connex/yannakakis":         0xc1f60be99a48c958,
	"free-connex/tree":               0x383ce6c7b9c5c8d6,
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
