package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"mpcjoin/internal/textio"
)

func datagen(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestBadSizesExit2AndWriteNothing: sizes the generators would turn into a
// panic (-dom 0) or a silently empty instance with a negative OUT are
// usage errors, caught before the output directory exists.
func TestBadSizesExit2AndWriteNothing(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // on stderr
	}{
		{[]string{"-kind", "uniform", "-dom", "0"}, "-dom 0 must be >= 1"},
		{[]string{"-kind", "uniform", "-n", "-1"}, "-n -1 must be >= 0"},
		{[]string{"-kind", "zipf", "-n", "-1"}, "-n -1 must be >= 0"},
		{[]string{"-kind", "zipf", "-s", "1"}, "zipf exponent"},
		{[]string{"-blocks", "-1"}, "-blocks -1 must be >= 1"},
		{[]string{"-fan", "0"}, "-fan 0 must be >= 1"},
		{[]string{"-kind", "multi", "-mult", "0"}, "-mult 0 must be >= 1"},
		{[]string{"-kind", "graph", "-n", "1"}, "n >= 2"},
		{[]string{"-kind", "nope"}, `unknown kind "nope"`},
		{[]string{"-query", "line99"}, `unknown query "line99"`},
		{[]string{"-no-such-flag"}, "-no-such-flag"},
	} {
		out := filepath.Join(t.TempDir(), "d")
		code, stdout, stderr := datagen(append(tc.args, "-out", out)...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 2 and %q on stderr", tc.args, code, stdout, stderr, tc.want)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%v: output directory was written (stat: %v)", tc.args, err)
		}
	}
	if code, _, stderr := datagen(); code != 2 || !strings.Contains(stderr, "-out is required") {
		t.Errorf("missing -out: exit %d, stderr %q", code, stderr)
	}
}

// TestFlagSetUnchanged pins the command's flags: the validation adds and
// removes none.
func TestFlagSetUnchanged(t *testing.T) {
	_, _, usage := datagen("-h")
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(usage, -1) {
		got = append(got, m[1])
	}
	want := []string{"blocks", "degree", "dom", "fan", "kind", "maxw", "mult", "n", "out", "query", "s", "seed"}
	if !slices.Equal(got, want) {
		t.Fatalf("flags %v, want %v", got, want)
	}
}

// TestWritesReadableInstance: every kind writes what mpcrun reads, and a
// flag another kind owns is not checked (-mult 0 means nothing to blocks).
func TestWritesReadableInstance(t *testing.T) {
	for _, args := range [][]string{
		{"-query", "line3", "-kind", "blocks", "-blocks", "8", "-fan", "3", "-mult", "0"},
		{"-query", "fig3", "-kind", "multi", "-blocks", "4", "-fan", "2", "-mult", "3"},
		{"-query", "star3", "-kind", "uniform", "-n", "0"},
		{"-kind", "zipf", "-n", "64", "-dom", "16"},
		{"-kind", "graph", "-n", "50", "-degree", "3"},
	} {
		out := filepath.Join(t.TempDir(), "d")
		code, stdout, stderr := datagen(append(args, "-out", out)...)
		if code != 0 || !strings.HasPrefix(stdout, "wrote "+out) {
			t.Fatalf("%v: exit %d, stdout %q, stderr %q", args, code, stdout, stderr)
		}
		if _, _, err := textio.ReadInstance(out); err != nil {
			t.Errorf("%v: reading it back: %v", args, err)
		}
	}
}
