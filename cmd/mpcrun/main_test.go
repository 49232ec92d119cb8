package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"mpcjoin/internal/core"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/planner"
	"mpcjoin/internal/semiring"
	"mpcjoin/internal/textio"
	"mpcjoin/internal/workload"
)

// line3Dir writes what `datagen -query line3 -kind blocks -blocks 8 -fan 3`
// writes and returns the directory.
func line3Dir(t *testing.T) string {
	t.Helper()
	q := hypergraph.LineQuery(3)
	inst, _ := workload.Blocks(q, 8, 3)
	dir := t.TempDir()
	if err := textio.WriteInstance(dir, q, inst); err != nil {
		t.Fatal(err)
	}
	return dir
}

func mpcrun(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestUsageErrorsExit2(t *testing.T) {
	if code, _, stderr := mpcrun(); code != 2 || !strings.Contains(stderr, "-data is required") {
		t.Fatalf("missing -data: exit %d, stderr %q", code, stderr)
	}
	code, _, stderr := mpcrun("-data", line3Dir(t), "-engine", "quantum")
	if code != 2 || !strings.Contains(stderr, `unknown engine "quantum"`) {
		t.Fatalf("unknown -engine: exit %d, stderr %q", code, stderr)
	}
	if code, _, _ := mpcrun("-no-such-flag"); code != 2 {
		t.Fatalf("unknown flag: exit %d, want 2", code)
	}
}

// TestIllegalEngineExit1 forces an engine the table knows but the query's
// class does not allow: a failed execution, not a usage error — and never
// a silent run of some other engine.
func TestIllegalEngineExit1(t *testing.T) {
	code, stdout, stderr := mpcrun("-data", line3Dir(t), "-engine", planner.EngineStar)
	if code != 1 || !strings.Contains(stderr, "not legal for class line") || stdout != "" {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

var headerEngine = regexp.MustCompile(`class (\S+), engine (\S+)\n`)

// TestHeaderNamesExecutedEngine pins the bug this file arrived with: on a
// line-3 blocks instance the planner runs yannakakis, and the header used
// to print the class-default label "line" regardless.
func TestHeaderNamesExecutedEngine(t *testing.T) {
	dir := line3Dir(t)
	q, inst, err := textio.ReadInstance(dir)
	if err != nil {
		t.Fatal(err)
	}
	var plan planner.Plan
	if _, _, err := core.Execute(semiring.IntSumProd{}, q, inst, core.Options{Servers: 16, Seed: 1, PlanOut: &plan}); err != nil {
		t.Fatal(err)
	}
	if plan.Chosen == planner.EngineLine {
		t.Fatal("instance lost its point: the planner chose the class-default engine")
	}

	code, stdout, stderr := mpcrun("-data", dir, "-p", "16", "-verify", "-limit", "2")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	m := headerEngine.FindStringSubmatch(stdout)
	if m == nil || m[1] != "line" || m[2] != plan.Chosen {
		t.Fatalf("header %q, want class line engine %s", m, plan.Chosen)
	}
	if !strings.Contains(stdout, "verify: answers match the Yannakakis baseline") {
		t.Fatalf("-verify did not report: %q", stdout)
	}

	// A forced engine is what the header names, too.
	code, stdout, _ = mpcrun("-data", dir, "-engine", planner.EngineLine, "-limit", "0")
	if m := headerEngine.FindStringSubmatch(stdout); code != 0 || m == nil || m[2] != planner.EngineLine {
		t.Fatalf("forced line: exit %d, header %q", code, m)
	}
}
