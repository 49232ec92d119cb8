package mpc

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestNoComparisonSortsInHotKernels guards the radix migration: the hot
// sort/reduce/multi-search kernels must contain no comparison-sort call
// sites. Every comparison sort they need goes through the named fallbacks
// in radix.go (sortPermFunc, sortStableFunc), so a future edit that quietly
// puts a hot path back on slices.SortFunc — undoing what the radix kernel
// buys — fails here instead of shipping. multisearch.go must not call
// SortBy either — that is sampleSort with no key image, every phase on
// comparisons — and sort.go builds no outbox by copying: the sorted tagged
// array is the outbox.
func TestNoComparisonSortsInHotKernels(t *testing.T) {
	banned := regexp.MustCompile(`slices\.Sort|sort\.Slice|sort\.Stable|sort\.Sort\b`)
	for file, banned := range map[string]*regexp.Regexp{
		"sort.go":        regexp.MustCompile(banned.String() + `|\bbuildOutbox`),
		"reduce.go":      banned,
		"multisearch.go": regexp.MustCompile(banned.String() + `|\bSortBy\(`),
	} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("reading %s: %v", file, err)
		}
		if loc := banned.FindIndex(src); loc != nil {
			line := 1 + countNewlines(src[:loc[0]])
			t.Errorf("%s:%d: %q in a hot kernel file; comparison sorts go through the radix.go fallbacks, the sort's outbox is cut from the sorted array",
				file, line, src[loc[0]:loc[1]])
		}
	}
}

// TestOneSampleSort guards the single sample-sort skeleton: the
// "sort.samples" round is labelled at exactly one site in the package
// (sampleSort's coordinator round-trip), so a second sample sort — a keyed
// twin, a specialised copy for one primitive — cannot reappear beside it
// unnoticed. Fusing or re-cutting Sort's rounds is then one edit, not one
// per copy.
func TestOneSampleSort(t *testing.T) {
	sites := sitesOf(t, regexp.MustCompile(`"sort\.samples"`))
	if len(sites) != 1 || !strings.HasPrefix(sites[0], "sort.go:") {
		t.Fatalf(`"sort.samples" label sites: %v; want exactly one, in sort.go`, sites)
	}
}

// TestOneCoordinatorRoundTrip guards the single all-gather → decide
// skeleton: within the package only coordinator.go calls Broadcast, and the
// primitives that used to spell the step out read no Shards[0].
func TestOneCoordinatorRoundTrip(t *testing.T) {
	for _, site := range sitesOf(t, regexp.MustCompile(`\bBroadcast\(`)) {
		if !strings.HasPrefix(site, "coordinator.go:") {
			t.Errorf("%s calls Broadcast: a coordinator step is Agree", site)
		}
	}
	for _, site := range sitesOf(t, regexp.MustCompile(`Shards\[0\]`)) {
		if !strings.HasPrefix(site, "coordinator.go:") {
			t.Errorf("%s reads Shards[0]: what every server holds is decide's argument", site)
		}
	}
}

// TestSharedInboxOnlyInProc guards the shared broadcast inbox: its one
// caller is the in-process carrier of the exchange barrier, so no other
// path — the wire carrier, a primitive — hands two servers one slice.
func TestSharedInboxOnlyInProc(t *testing.T) {
	var callers []string
	fset := token.NewFileSet()
	for _, file := range nonTestFiles(t, ".") {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "sharedInbox" {
						callers = append(callers, fmt.Sprintf("%s:%s", fset.Position(call.Pos()).Filename, fn.Name.Name))
					}
				}
				return true
			})
		}
	}
	if !slices.Equal(callers, []string{"cluster.go:carryInProc"}) {
		t.Fatalf("sharedInbox callers %v; want only cluster.go's carryInProc", callers)
	}
}

// TestOneAllocationRoute guards the allocation step ("allocate p_i servers
// to subquery i"): RouteBlocks is its one routing round. Within the
// package ExchangeToIn is called only by ExchangeIn, RouteBlocks and
// sampleSort's partition round (onto the sort's own p servers); outside
// it no non-test file calls ExchangeToIn or builds an outbox by hand.
func TestOneAllocationRoute(t *testing.T) {
	var callers []string
	fset := token.NewFileSet()
	for _, file := range nonTestFiles(t, ".") {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isIdentNamed(stripIndex(call.Fun), "ExchangeToIn") {
					return true
				}
				site := fmt.Sprintf("%s:%s", fset.Position(call.Pos()).Filename, fn.Name.Name)
				if site == "sort.go:sampleSort" && !isIdentNamed(call.Args[1], "p") {
					site += " (destination count is not p)"
				}
				callers = append(callers, site)
				return true
			})
		}
	}
	slices.Sort(callers)
	if want := []string{"cluster.go:ExchangeIn", "layout.go:RouteBlocks", "sort.go:sampleSort"}; !slices.Equal(callers, want) {
		t.Errorf("ExchangeToIn callers %v; want %v — an allocation step routes through RouteBlocks", callers, want)
	}

	mpcDir := filepath.Join("..", "..", "internal", "mpc") + string(filepath.Separator)
	for _, site := range sitesIn(t, filepath.Join("..", ".."), regexp.MustCompile(`\b(ExchangeToIn|BuildOutbox|buildOutbox)\b`)) {
		if !strings.HasPrefix(site, mpcDir) {
			t.Errorf("%s: an exchange or outbox built by hand outside internal/mpc; an allocation step is mpc.RouteBlocks", site)
		}
	}
}

// nonTestFiles lists the non-test Go files under root, skipping hidden
// directories (build and benchmark checkouts) and testdata.
func nonTestFiles(t *testing.T, root string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// stripIndex drops a call's explicit instantiation: f[T] is f.
func stripIndex(fun ast.Expr) ast.Expr {
	switch fn := fun.(type) {
	case *ast.IndexExpr:
		return fn.X
	case *ast.IndexListExpr:
		return fn.X
	}
	return fun
}

func isIdentNamed(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// TestFixupsRideThePartition guards the fused boundary fix-ups: the
// multi-search's predecessor carry and reduce-by-key's whole keys ride the
// sort's partition round, so multisearch.go and reduce.go run no
// coordinator round of their own.
func TestFixupsRideThePartition(t *testing.T) {
	for _, site := range sitesOf(t, regexp.MustCompile(`\b(Coordinate|Agree)\(`)) {
		if strings.HasPrefix(site, "multisearch.go:") || strings.HasPrefix(site, "reduce.go:") {
			t.Errorf("%s runs a coordinator round: a boundary fix-up rides the sort's partition round", site)
		}
	}
}

// sitesOf lists, as file:line, every match of re in the package's non-test
// files, comment lines excluded.
func sitesOf(t *testing.T, re *regexp.Regexp) []string { return sitesIn(t, ".", re) }

// sitesIn is sitesOf over every non-test file under root.
func sitesIn(t *testing.T, root string, re *regexp.Regexp) []string {
	t.Helper()
	var sites []string
	for _, file := range nonTestFiles(t, root) {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("reading %s: %v", file, err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if !strings.HasPrefix(strings.TrimSpace(line), "//") && re.MatchString(line) {
				sites = append(sites, fmt.Sprintf("%s:%d", file, i+1))
			}
		}
	}
	return sites
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
