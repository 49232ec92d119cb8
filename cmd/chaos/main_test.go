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

	"mpcjoin/internal/experiments/chaos"
)

func chaosCmd(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestUsageErrorsExit2(t *testing.T) {
	if code, _, _ := chaosCmd("-no-such-flag"); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	code, stdout, stderr := chaosCmd("-quick", "-transport", "udp")
	if code != 2 || stdout != "" || !strings.Contains(stderr, `chaos: unknown -transport "udp"`) {
		t.Errorf("-transport udp: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

// TestFlagSetUnchanged pins the command's flags: a harness refactor adds
// and removes none.
func TestFlagSetUnchanged(t *testing.T) {
	_, _, usage := chaosCmd("-h")
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(usage, -1) {
		got = append(got, m[1])
	}
	if want := []string{"json", "p", "quick", "seed", "transport", "transport-peers", "workers"}; !slices.Equal(got, want) {
		t.Fatalf("flags %v, want %v", got, want)
	}
}

// TestQuickSweepWritesArtifact runs the CI lane's invocation and reads
// back the artifact CI uploads.
func TestQuickSweepWritesArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.json")
	code, stdout, stderr := chaosCmd("-quick", "-json", path)
	if code != 0 || !strings.Contains(stdout, "cells recovered or failed as specified") {
		t.Fatalf("exit %d, stderr %q, stdout:\n%s", code, stderr, stdout)
	}
	var cells []chaos.Result
	want := len(chaos.Engines()) * len(chaos.Scenarios())
	if buf, err := os.ReadFile(path); err != nil || json.Unmarshal(buf, &cells) != nil || len(cells) != want {
		t.Fatalf("-json wrote %d cells (%v), want %d", len(cells), err, want)
	}
}
