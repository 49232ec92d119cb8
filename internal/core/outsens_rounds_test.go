package core

import (
	"testing"

	"mpcjoin/internal/mpc"
	"mpcjoin/internal/planner"
	"mpcjoin/internal/workload"
)

// TestOutSensLooksEachTableUpOnce counts the multi-searches of a forced
// matmul-outsens run on the matmul-sparse family (quick size, p = 16, seed
// 1) by their "multisearch.samples" rounds — the first round of every
// multi-search's sort carries that label: R1 is looked up once against
// one table that flags heavy A values and groups the light ones, and the
// replicated R2 once against the bin table, whose found rows also give the
// per-(group, bin) sizes. A second lookup of either table makes it 8 or 9.
func TestOutSensLooksEachTableUpOnce(t *testing.T) {
	fam := workload.Named("matmul-sparse")
	inst, _ := fam.Canonical(true)
	tr := mpc.NewTracer()
	if _, _, err := Execute[int64](intSR, fam.Query, inst, Options{
		Servers: 16, Seed: 1, Engine: planner.EngineMatMulOutSens, Tracer: tr,
	}); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, r := range tr.Rounds() {
		if r.Op == "multisearch.samples" {
			n++
		}
	}
	if n != 7 {
		t.Fatalf("%d multisearch.samples rounds, want 7", n)
	}
}
