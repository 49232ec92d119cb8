package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpcjoin/internal/experiments"
)

func mpcbench(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestListPrintsExperimentIDs(t *testing.T) {
	code, stdout, _ := mpcbench("-list")
	if want := strings.Join(experiments.IDs(), "\n") + "\n"; code != 0 || stdout != want {
		t.Fatalf("-list: exit %d, stdout %q, want %q", code, stdout, want)
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	// -service is gone with the stack bench/ superseded: an unknown flag
	// like any other.
	for _, flag := range []string{"-no-such-flag", "-service"} {
		if code, _, _ := mpcbench(flag); code != 2 {
			t.Fatalf("%s: exit %d, want 2", flag, code)
		}
	}
	code, _, stderr := mpcbench("-experiment", "T1-MM-load", "-quick", "-transport", "carrier-pigeon")
	if code != 2 || !strings.Contains(stderr, `unknown -transport "carrier-pigeon"`) {
		t.Fatalf("unknown -transport: exit %d, stderr %q", code, stderr)
	}
}

func TestUnknownExperimentExit1(t *testing.T) {
	code, _, stderr := mpcbench("-experiment", "T9-nope", "-quick")
	if code != 1 || !strings.Contains(stderr, "T9-nope") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}

// TestQuickExperimentWritesRows runs one -quick experiment the way the CI
// lanes do and reads back the -json rows they upload.
func TestQuickExperimentWritesRows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rows.json")
	code, stdout, stderr := mpcbench("-experiment", "T1-MM-load", "-quick", "-workers", "1", "-json", path)
	if code != 0 || strings.Contains(stdout, "MISMATCH") {
		t.Fatalf("exit %d, stderr %q, stdout:\n%s", code, stderr, stdout)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows []experiments.BenchRow
	if err := json.Unmarshal(buf, &rows); err != nil || len(rows) == 0 {
		t.Fatalf("-json wrote %d rows (%v): %s", len(rows), err, buf)
	}
}
