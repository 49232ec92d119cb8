package boundcheck

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpcjoin/internal/experiments"
)

// TestBoundsHoldAcrossP is the load-bound regression net: every query
// class must stay within its slack × Table 1 bound at p = 4, 16 and 64.
func TestBoundsHoldAcrossP(t *testing.T) {
	results, err := Run(Config{Quick: testing.Short(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(classes) * 3
	if len(results) != wantRows {
		t.Fatalf("got %d results, want %d (classes × p values)", len(results), wantRows)
	}
	for _, r := range results {
		t.Logf("%-15s p=%-3d N=%-6d OUT=%-6d load=%-6d bound=%.0f ratio=%.2f",
			r.Class, r.P, r.N, r.Out, r.MaxLoad, r.Bound, r.Ratio)
		if r.MaxLoad <= 0 || r.Rounds <= 0 {
			t.Errorf("%s p=%d: empty metering: %+v", r.Class, r.P, r)
		}
	}
	if err := Check(results); err != nil {
		t.Fatal(err)
	}
}

// TestTraceDoesNotChangeLoads: a traced sweep records a timeline for every
// run whose per-round maxima are consistent with the metered MaxLoad, and
// the loads are identical to an untraced sweep.
func TestTraceDoesNotChangeLoads(t *testing.T) {
	cfg := Config{Quick: true, Ps: []int{8}, Seed: 7}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = true
	traced, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(traced) {
		t.Fatalf("row counts differ: %d vs %d", len(plain), len(traced))
	}
	for i := range plain {
		pr, tr := plain[i], traced[i]
		if pr.MaxLoad != tr.MaxLoad || pr.Rounds != tr.Rounds || pr.Out != tr.Out {
			t.Fatalf("%s p=%d: tracing changed the run: %+v vs %+v", pr.Class, pr.P, pr, tr)
		}
		if len(pr.Trace) != 0 {
			t.Fatalf("%s: untraced run has a timeline", pr.Class)
		}
		if len(tr.Trace) == 0 {
			t.Fatalf("%s: traced run has no timeline", tr.Class)
		}
		maxRound := 0
		for _, rt := range tr.Trace {
			if rt.Op == "" || rt.Servers <= 0 {
				t.Fatalf("%s: malformed round %+v", tr.Class, rt)
			}
			if rt.MaxLoad > maxRound {
				maxRound = rt.MaxLoad
			}
		}
		if maxRound < tr.MaxLoad {
			t.Fatalf("%s: trace max %d below metered MaxLoad %d", tr.Class, maxRound, tr.MaxLoad)
		}
	}
}

// TestCheckReportsViolations: Check must name every failing row.
func TestCheckReportsViolations(t *testing.T) {
	results := []Result{
		{Class: "star", P: 4, MaxLoad: 10, Bound: 100, Slack: 8, OK: true},
		{Class: "line", P: 16, MaxLoad: 9000, Bound: 100, Slack: 8, OK: false},
	}
	err := Check(results)
	if err == nil || !strings.Contains(err.Error(), "line p=16") {
		t.Fatalf("Check = %v, want a line p=16 violation", err)
	}
	if strings.Contains(err.Error(), "star") {
		t.Fatalf("Check reported a passing row: %v", err)
	}
	if err := Check(results[:1]); err != nil {
		t.Fatalf("Check on passing rows = %v, want nil", err)
	}
}

// TestWriteJSON: the artifact is valid JSON that round-trips, and an empty
// result set marshals as [] rather than null.
func TestWriteJSON(t *testing.T) {
	results, err := Run(Config{Quick: true, Ps: []int{4}, Seed: 7, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bound.json")
	if err := experiments.WriteJSON(path, results); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []Result
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(results) || back[0].Class != results[0].Class || len(back[0].Trace) == 0 {
		t.Fatalf("round-trip mismatch: %d rows, first %+v", len(back), back[0])
	}
	if err := experiments.WriteJSON[Result](path, nil); err != nil {
		t.Fatal(err)
	}
	if buf, _ = os.ReadFile(path); strings.TrimSpace(string(buf)) != "[]" {
		t.Fatalf("empty results = %q, want []", buf)
	}
}
