package mpc

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestNoComparisonSortsInHotKernels guards the radix migration: the hot
// sort/reduce kernels must contain no comparison-sort call sites. Every
// comparison sort they need goes through the named fallbacks in radix.go
// (sortFunc, sortStableFunc), so a future edit that quietly puts a hot
// path back on slices.SortFunc — undoing the 2×+ the radix kernel buys —
// fails here instead of shipping.
func TestNoComparisonSortsInHotKernels(t *testing.T) {
	banned := regexp.MustCompile(`slices\.Sort|sort\.Slice|sort\.Stable|sort\.Sort\b`)
	for _, file := range []string{"sort.go", "reduce.go"} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("reading %s: %v", file, err)
		}
		if loc := banned.FindIndex(src); loc != nil {
			line := 1 + countNewlines(src[:loc[0]])
			t.Errorf("%s:%d: comparison sort call site %q in a hot kernel file; route it through the radix.go fallbacks",
				file, line, src[loc[0]:loc[1]])
		}
	}
}

// TestOneSampleSort guards the single sample-sort skeleton: the
// "sort.samples" round is labelled at exactly one call site in the package
// (sampleSort), so a second sample sort — a keyed twin, a specialised copy
// for one primitive — cannot reappear beside it unnoticed. Fusing or
// re-cutting Sort's rounds is then one edit, not one per copy.
func TestOneSampleSort(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	site := regexp.MustCompile(`TraceOp\([^)]*"sort\.samples"\)`)
	var sites []string
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("reading %s: %v", file, err)
		}
		for _, loc := range site.FindAllIndex(src, -1) {
			sites = append(sites, fmt.Sprintf("%s:%d", file, 1+countNewlines(src[:loc[0]])))
		}
	}
	if len(sites) != 1 || !strings.HasPrefix(sites[0], "sort.go:") {
		t.Fatalf(`TraceOp(ex, "sort.samples") call sites: %v; want exactly one, in sort.go`, sites)
	}
}

func countNewlines(b []byte) int {
	n := 0
	for _, c := range b {
		if c == '\n' {
			n++
		}
	}
	return n
}
