package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"mpcjoin/internal/experiments/boundcheck"
)

func boundcheckCmd(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{{"-no-such-flag"}, {"-p", "0"}, {"-p", "4,x"}, {"-p", ""}} {
		if code, stdout, stderr := boundcheckCmd(args...); code != 2 || stdout != "" || stderr == "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 2 and a message on stderr only", args, code, stdout, stderr)
		}
	}
}

// TestFlagSetUnchanged pins the command's flags: a harness refactor adds
// and removes none.
func TestFlagSetUnchanged(t *testing.T) {
	_, _, usage := boundcheckCmd("-h")
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(usage, -1) {
		got = append(got, m[1])
	}
	if want := []string{"json", "p", "planner", "quick", "seed", "slack", "trace"}; !slices.Equal(got, want) {
		t.Fatalf("flags %v, want %v", got, want)
	}
}

// TestQuickSweepWritesArtifact runs the CI lane's invocation at one
// cluster size, in both modes, and reads back the artifact CI uploads.
func TestQuickSweepWritesArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rows.json")
	code, stdout, stderr := boundcheckCmd("-quick", "-p", "4", "-trace", "-json", path)
	if code != 0 || !strings.Contains(stdout, "within their Table 1 bounds") {
		t.Fatalf("exit %d, stderr %q, stdout:\n%s", code, stderr, stdout)
	}
	var rows []boundcheck.Result
	if buf, err := os.ReadFile(path); err != nil || json.Unmarshal(buf, &rows) != nil || len(rows) == 0 || len(rows[0].Trace) == 0 {
		t.Fatalf("-json wrote %d rows (%v)", len(rows), err)
	}

	code, stdout, stderr = boundcheckCmd("-planner", "-quick", "-p", "4", "-json", path)
	if code != 0 || !strings.Contains(stdout, "on all 7 instances") {
		t.Fatalf("-planner: exit %d, stderr %q, stdout:\n%s", code, stderr, stdout)
	}
	var plans []boundcheck.PlanResult
	if buf, err := os.ReadFile(path); err != nil || json.Unmarshal(buf, &plans) != nil || len(plans) != 7 {
		t.Fatalf("-planner -json wrote %d rows (%v)", len(plans), err)
	}
}

// TestViolationExit1: a failed check is exit 1, not a usage error — an
// impossible slack makes every row a violation.
func TestViolationExit1(t *testing.T) {
	code, _, stderr := boundcheckCmd("-quick", "-p", "4", "-slack", "0.001")
	if code != 1 || !strings.Contains(stderr, "violation(s)") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}
