package experiments

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// The keyed-lookup guard keeps the multi-search's consumers inside its
// scan: outside internal/mpc a lookup result is never post-filtered on
// .Found (that is a mpc.Lookup visitor, or one mpc.Split when both sides
// are wanted), and two relations reach a local join as they arrive —
// relation.SidedRow values are built only where a router emits them and
// where linearSparseMM merges its inputs for GroupByKey, never zipped just
// to be unzipped. By form, never by line.

// lookupViolations reports, in f: every mpc.Filter whose predicate reads
// .Found, every mpc.Map(mpc.Filter(…)) whose callbacks take a mpc.Pred,
// and every SidedRow{…} literal that is neither an emit argument nor
// inside linearSparseMM.
func lookupViolations(path string, fset *token.FileSet, f *ast.File) []string {
	var out []string
	report := func(n ast.Node, format string, args ...any) {
		out = append(out, fmt.Sprintf("%s:%d: %s", path, fset.Position(n.Pos()).Line, fmt.Sprintf(format, args...)))
	}
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.CallExpr:
			switch {
			case isMpcCall(n, "Filter") && len(n.Args) == 2 && mentions(n.Args[1], named("Found")):
				report(n, "mpc.Filter on .Found: decide inside the scan (mpc.Lookup's visitor), or mpc.Split when both sides are kept")
			case isMpcCall(n, "Map") && len(n.Args) == 2:
				if inner, ok := n.Args[0].(*ast.CallExpr); ok && isMpcCall(inner, "Filter") && (takesPred(n.Args[1]) || len(inner.Args) == 2 && takesPred(inner.Args[1])) {
					report(n, "mpc.Map(mpc.Filter(…)) over a mpc.Pred: one mpc.Lookup visitor does both inside the scan")
				}
			}
		case *ast.CompositeLit:
			if n.Type == nil || !mentions(n.Type, named("SidedRow")) || enclosingFunc(stack) == "linearSparseMM" {
				break
			}
			if call, ok := stack[len(stack)-2].(*ast.CallExpr); !ok || !isIdent(call.Fun, "emit") {
				report(n, "SidedRow literal outside a router's emit: hand the two sides to the local join as they are (relation.Unzip is for routed shards)")
			}
		}
		return true
	})
	return out
}

// isMpcCall reports whether call is mpc.<name>(…), instantiated or not.
func isMpcCall(call *ast.CallExpr, name string) bool {
	fun := call.Fun
	if ix, ok := fun.(*ast.IndexExpr); ok {
		fun = ix.X
	} else if ix, ok := fun.(*ast.IndexListExpr); ok {
		fun = ix.X
	}
	sel, ok := fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name && isIdent(sel.X, "mpc")
}

// mentions reports whether any node under root satisfies is.
func mentions(root ast.Node, is func(ast.Node) bool) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n != nil && is(n) {
			found = true
		}
		return !found
	})
	return found
}

// takesPred reports whether e is a function literal with a parameter whose
// type names Pred.
func takesPred(e ast.Expr) bool {
	lit, ok := e.(*ast.FuncLit)
	return ok && mentions(lit.Type.Params, named("Pred"))
}

// named matches the identifier name (a selector's field or type included).
func named(name string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		return ok && id.Name == name
	}
}

// TestLookupsAreConsumedInTheScan runs the guard over every non-test file
// outside internal/mpc (which defines the forms), internal/relation (which
// defines SidedRow and its codec) and bench/.
func TestLookupsAreConsumedInTheScan(t *testing.T) {
	for _, src := range sources(t, false, ".") {
		if strings.HasPrefix(src.path, "internal/mpc/") || strings.HasPrefix(src.path, "internal/relation/") {
			continue
		}
		for _, v := range lookupViolations(src.path, src.fset, src.file) {
			t.Error(v)
		}
	}
}

// TestLookupGuardCatchesPlantedPostPasses: the guard must fail on the
// shapes it exists to forbid, and pass their legal counterparts.
func TestLookupGuardCatchesPlantedPostPasses(t *testing.T) {
	const header = "package dist\n\nfunc linearSparseMM() { _ = relation.SidedRow[int]{Left: true} }\n\nfunc f(looked mpc.Part[mpc.Pred[row, row]], rows mpc.Part[row], emit func(int, relation.SidedRow[int])) {\n"
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"filter on Found", "m := mpc.Filter(looked, func(pr mpc.Pred[row, row]) bool { return pr.Found })\n_ = m", 1},
		{"filter on Found, negated and instantiated", "m := mpc.Filter[mpc.Pred[row, row]](looked, func(pr mpc.Pred[row, row]) bool { return !pr.Found && pr.X.W > 0 })\n_ = m", 1},
		{"map over filter over a Pred", "m := mpc.Map(mpc.Filter(looked, func(pr mpc.Pred[row, row]) bool { return pr.X.W > pr.Y.W }), func(pr mpc.Pred[row, row]) row { return pr.X })\n_ = m", 1},
		{"both at once", "m := mpc.Map(mpc.Filter(looked, func(pr mpc.Pred[row, row]) bool { return pr.Found }), func(pr mpc.Pred[row, row]) row { return pr.X })\n_ = m", 2},
		{"zip to unzip", "var zipped []relation.SidedRow[int]\nzipped = append(zipped, relation.SidedRow[int]{Left: true})\n_ = zipped", 1},
		{"map over filter over rows", "m := mpc.Map(mpc.Filter(rows, func(r row) bool { return r.W > 0 }), func(r row) int { return r.W })\n_ = m", 0},
		{"visitor and split read Found", "a, b := mpc.Split(looked, func(pr mpc.Pred[row, row]) (row, bool) { return pr.X, pr.Found })\n_, _ = a, b", 0},
		{"memo loop reads Found", "mpc.MapShards(looked, func(_ int, sh []mpc.Pred[row, row]) []row { for _, pr := range sh { if pr.Found { return nil } }; return nil })", 0},
		{"router emit", "emit(0, relation.SidedRow[int]{Left: true})", 0},
	} {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "planted.go", header+tc.body+"\n}\n", parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := lookupViolations("internal/dist/planted.go", fset, f); len(got) != tc.want {
			t.Errorf("%s: %d violations %v, want %d", tc.name, len(got), got, tc.want)
		}
	}
}
