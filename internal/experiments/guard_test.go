package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The guards below keep "run engine X on instance Y" written once: a
// harness names a catalogue family and forces an engine through
// core.Execute. They read the source, so a harness that goes back to
// placing relations and calling an engine package itself — or to spelling
// an instance a second time — fails here instead of drifting.

const repoRoot = "../.."

// parsed is one Go file, by repo-relative path.
type parsed struct {
	path string
	file *ast.File
	fset *token.FileSet // for line numbers in a guard's report
}

// sources parses every Go file under the repo-relative dirs (recursively),
// skipping bench/ (its own module) unless it is one of dirs and, unless
// tests is set, _test files.
func sources(t *testing.T, tests bool, dirs ...string) []parsed {
	t.Helper()
	var out []parsed
	fset := token.NewFileSet()
	for _, dir := range dirs {
		err := filepath.WalkDir(filepath.Join(repoRoot, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(repoRoot, path)
			rel = filepath.ToSlash(rel)
			if d.IsDir() {
				if rel == "bench" && dir != "bench" || strings.HasPrefix(d.Name(), ".") && rel != "." {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(rel, ".go") || !tests && strings.HasSuffix(rel, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			out = append(out, parsed{rel, f, fset})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// imports lists the last path element of every mpcjoin/internal import.
func (p parsed) imports() []string {
	var out []string
	for _, im := range p.file.Imports {
		path, _ := strconv.Unquote(im.Path.Value)
		if rest, ok := strings.CutPrefix(path, "mpcjoin/internal/"); ok {
			out = append(out, rest[strings.LastIndex(rest, "/")+1:])
		}
	}
	return out
}

// selectors calls visit for every pkg.Name expression in the file.
func (p parsed) selectors(visit func(pkg, name string)) {
	ast.Inspect(p.file, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok {
				visit(x.Name, sel.Sel.Name)
			}
		}
		return true
	})
}

// TestHarnessesImportNoEngine: the experiment packages and the commands
// reach engines only through core.Execute. The two raw scopes that remain
// are named here — hypercube is not a table engine, and EST-OUT drives the
// estimator alone.
func TestHarnessesImportNoEngine(t *testing.T) {
	banned := []string{"matmul", "linequery", "starquery", "starlike", "treequery", "yannakakis", "twoway", "hypercube", "estimate"}
	allowed := map[string][]string{
		"internal/experiments/experiments.go": {"hypercube", "estimate"},
		"internal/experiments/chaos/chaos.go": {"hypercube"},
	}
	for _, src := range sources(t, false, "internal/experiments", "cmd") {
		for _, im := range src.imports() {
			if slices.Contains(banned, im) && !slices.Contains(allowed[src.path], im) {
				t.Errorf("%s imports internal/%s: run engines through core.Execute with Options.Engine forced", src.path, im)
			}
			if im == "dist" && src.path == "internal/experiments/boundcheck/boundcheck.go" {
				t.Errorf("%s imports internal/dist: placement is core.Execute's", src.path)
			}
		}
	}
}

// TestEnginesComputeCalledFromTheTableOnly: outside the engine packages
// (which compose one another) the only caller of an engine's entry point —
// matmul's and treequery's Compute, the Run of linequery, starquery and
// starlike — is the runner table in core/engines.go.
func TestEnginesComputeCalledFromTheTableOnly(t *testing.T) {
	engines := []string{"matmul", "linequery", "starquery", "starlike", "treequery"}
	for _, src := range sources(t, false, ".") {
		dir := filepath.Base(filepath.Dir(src.path))
		if slices.Contains(engines, dir) || src.path == "internal/core/engines.go" {
			continue
		}
		src.selectors(func(pkg, name string) {
			if (name == "Compute" || name == "Run") && slices.Contains(engines, pkg) {
				t.Errorf("%s calls %s.%s: the engine table (core/engines.go) is the one caller", src.path, pkg, name)
			}
		})
	}
}

// TestEnginesAreBindAndRun: linequery, starquery and starlike export their
// algorithm as Bind plus Run(…, seed) and nothing that wraps them — no
// Options type (the seed is Run's argument) and no Compute shell (the
// runner binds and runs; the planner already checked the class and the
// arm count).
func TestEnginesAreBindAndRun(t *testing.T) {
	for _, src := range sources(t, false, "internal/linequery", "internal/starquery", "internal/starlike") {
		for _, d := range src.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.Name == "Compute" {
					t.Errorf("%s:%d: func Compute: the engine is Bind and Run; core/engines.go binds and runs it", src.path, src.fset.Position(d.Pos()).Line)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.Name == "Options" {
						t.Errorf("%s:%d: type Options: pass the seed to Run", src.path, src.fset.Position(ts.Pos()).Line)
					}
				}
			}
		}
	}
}

// TestEmptyResultsKeepTheirScope: an empty Rel is built on its input's
// execution scope with dist.EmptyIn, so the rounds after it are traced,
// fault-injected and cancellable; a scope-less dist.Empty would run them
// outside the execution.
func TestEmptyResultsKeepTheirScope(t *testing.T) {
	for _, src := range sources(t, false, ".") {
		src.selectors(func(pkg, name string) {
			if pkg == "dist" && name == "Empty" {
				t.Errorf("%s calls dist.Empty: build the empty result with dist.EmptyIn on the input's scope", src.path)
			}
		})
	}
}

// TestKeysDecodedInFewPlaces: relation.DecodeKey turns a key string back
// into values; keying the estimator's output by value retires it from the
// engines. Until then its callers are relation itself, the reference
// engine, the instance generators and text I/O, the estimator's one
// per-arm map (estimate.ArmOut) and outsens' group lookups.
func TestKeysDecodedInFewPlaces(t *testing.T) {
	allowed := []string{"internal/relation/", "internal/refengine/", "internal/workload/", "internal/textio/",
		"internal/estimate/estimate.go", "internal/matmul/outsens.go"}
	for _, src := range sources(t, false, ".") {
		if slices.ContainsFunc(allowed, func(a string) bool { return strings.HasPrefix(src.path, a) }) {
			continue
		}
		src.selectors(func(pkg, name string) {
			if pkg == "relation" && name == "DecodeKey" {
				t.Errorf("%s calls relation.DecodeKey: take per-value estimates from estimate.ArmOut", src.path)
			}
		})
	}
}

// TestTheorem1WrittenOnce: Theorem 1's loads, gate and rule live in
// internal/planner (theorem1.go). A cube root anywhere else is a second
// copy of (N1·N2·OUT)^{1/3}/p^{2/3}; call planner.OutSensLoad instead.
func TestTheorem1WrittenOnce(t *testing.T) {
	for _, src := range sources(t, false, ".") {
		if strings.HasPrefix(src.path, "internal/planner/") {
			continue
		}
		src.selectors(func(pkg, name string) {
			if pkg == "math" && name == "Cbrt" {
				t.Errorf("%s calls math.Cbrt: Theorem 1's arithmetic is internal/planner's (theorem1.go)", src.path)
			}
		})
	}
}

// TestEstimatorHoldsNoSketch: kmv.Sketch is the copy-per-Insert reference
// the tests compare against; the estimator builds its flat vectors in place
// from kmv's slice-level functions. A non-test file outside internal/kmv
// that never names the type, its constructor or its merge cannot hold a
// Sketch, so it can neither call Insert on one nor spell a kmv.Sketch{…}.
func TestEstimatorHoldsNoSketch(t *testing.T) {
	for _, src := range sources(t, false, ".") {
		if strings.HasPrefix(src.path, "internal/kmv/") {
			continue
		}
		src.selectors(func(pkg, name string) {
			if pkg == "kmv" && slices.Contains([]string{"Sketch", "New", "Merge"}, name) {
				t.Errorf("%s uses kmv.%s: build value lists in place with kmv.Keep / kmv.AppendMerge (estimate.Vec does)", src.path, name)
			}
		})
	}
}

// TestEveryCoreOptionHasACaller: a core.Options field that no caller sets
// is a knob nothing turns. Every field must be a key of some core.Options{…}
// literal in a non-test file outside internal/core and the root package
// (whose option builder writes fields one at a time), bench/ included.
func TestEveryCoreOptionHasACaller(t *testing.T) {
	var fields []string
	for _, src := range sources(t, false, "internal/core") {
		ast.Inspect(src.file, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == "Options" {
				for _, f := range ts.Type.(*ast.StructType).Fields.List {
					for _, name := range f.Names {
						fields = append(fields, name.Name)
					}
				}
			}
			return true
		})
	}
	if len(fields) == 0 {
		t.Fatal("core.Options not found")
	}
	set := map[string]bool{}
	for _, src := range sources(t, false, ".", "bench") {
		if strings.HasPrefix(src.path, "internal/core/") || !strings.Contains(src.path, "/") {
			continue
		}
		ast.Inspect(src.file, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || !isSelector(lit.Type, "core", "Options") {
				return true
			}
			for _, e := range lit.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						set[key.Name] = true
					}
				}
			}
			return true
		})
	}
	for _, f := range fields {
		if !set[f] {
			t.Errorf("core.Options.%s is set by no caller outside internal/core and the root package: delete it or give it one", f)
		}
	}
}

// TestEstimatorConfiguredOnce: the §2.2 estimator has one configuration,
// fixed inside internal/estimate. No non-test struct elsewhere carries an
// estimate.Params to pass along.
func TestEstimatorConfiguredOnce(t *testing.T) {
	for _, src := range sources(t, false, ".", "bench") {
		if strings.HasPrefix(src.path, "internal/estimate/") {
			continue
		}
		ast.Inspect(src.file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, f := range st.Fields.List {
				typ := f.Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if isSelector(typ, "estimate", "Params") {
					t.Errorf("%s:%d: a struct field of type estimate.Params: the estimator is not configurable; call it with estimate.Params{}", src.path, src.fset.Position(f.Pos()).Line)
				}
			}
			return true
		})
	}
}

// isSelector reports whether e is the expression pkg.name.
func isSelector(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == pkg
}

// TestLocalAggregateIsFused: a server aggregates a local join with
// relation.JoinAgg, which never materialises the join. ProjectAgg (and
// Compact, ProjectAgg onto the whole schema) stay the reference the fused
// kernel is tested against, for internal/relation and the unfused
// reference engine only.
func TestLocalAggregateIsFused(t *testing.T) {
	for _, src := range sources(t, false, ".") {
		if strings.HasPrefix(src.path, "internal/relation/") || strings.HasPrefix(src.path, "internal/refengine/") {
			continue
		}
		src.selectors(func(pkg, name string) {
			if pkg == "relation" && (name == "ProjectAgg" || name == "Compact") {
				t.Errorf("%s calls relation.%s: aggregate a local join with relation.JoinAgg (dist.ProjectAgg across servers)", src.path, name)
			}
		})
	}
}

// TestValuesHashedOnce: relation.HashCols is the one FNV-1a over a row's
// Values. Outside internal/relation no non-test function that takes a
// []relation.Value multiplies by the FNV-1a prime, spelt as a literal or as
// a constant of the file.
func TestValuesHashedOnce(t *testing.T) {
	const fnvPrime = 0x100000001b3
	isPrime := func(e ast.Expr) bool {
		lit, ok := e.(*ast.BasicLit)
		if !ok || lit.Kind != token.INT {
			return false
		}
		v, err := strconv.ParseUint(lit.Value, 0, 64)
		return err == nil && v == fnvPrime
	}
	for _, src := range sources(t, false, ".") {
		if strings.HasPrefix(src.path, "internal/relation/") {
			continue
		}
		named := map[string]bool{}
		for _, d := range src.file.Decls {
			if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.CONST {
				for _, spec := range g.Specs {
					vs := spec.(*ast.ValueSpec)
					for i, v := range vs.Values {
						if isPrime(v) {
							named[vs.Names[i].Name] = true
						}
					}
				}
			}
		}
		for _, d := range src.file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !takesValues(fn.Type.Params) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				id, isIdent := n.(*ast.Ident)
				if e, ok := n.(ast.Expr); ok && isPrime(e) || isIdent && named[id.Name] {
					t.Errorf("%s:%d: %s hashes relation.Values with FNV-1a: call relation.HashCols", src.path, src.fset.Position(n.Pos()).Line, fn.Name.Name)
					return false
				}
				return true
			})
		}
	}
}

// takesValues reports whether a parameter list has a []relation.Value.
func takesValues(params *ast.FieldList) bool {
	for _, f := range params.List {
		if arr, ok := f.Type.(*ast.ArrayType); ok && arr.Len == nil {
			if sel, ok := arr.Elt.(*ast.SelectorExpr); ok && sel.Sel.Name == "Value" {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "relation" {
					return true
				}
			}
		}
	}
	return false
}

// TestHarnessInstancesComeFromTheCatalogue: the sweep harnesses and the
// golden digests spell no block instance of their own.
func TestHarnessInstancesComeFromTheCatalogue(t *testing.T) {
	harness := []string{
		"internal/experiments/boundcheck/boundcheck.go",
		"internal/experiments/boundcheck/planner.go",
		"internal/experiments/chaos/chaos.go",
		"internal/core/golden_test.go",
	}
	generators := []string{"Blocks", "BlocksMulti", "BlocksFan", "MatMulBlocks", "InjectDangling"}
	seen := 0
	for _, src := range sources(t, true, "internal/experiments", "internal/core") {
		if !slices.Contains(harness, src.path) {
			continue
		}
		seen++
		src.selectors(func(pkg, name string) {
			if pkg == "workload" && slices.Contains(generators, name) {
				t.Errorf("%s calls workload.%s: name a family of workload's catalogue instead", src.path, name)
			}
		})
	}
	if seen != len(harness) {
		t.Fatalf("found %d of the %d harness files %v", seen, len(harness), harness)
	}
}

// TestSweepCLIPlumbingWrittenOnce: one loop boots loopback shuffle peers
// and one function marshals a -json artifact, in non-test code.
func TestSweepCLIPlumbingWrittenOnce(t *testing.T) {
	var boots, writers []string
	for _, src := range sources(t, false, ".") {
		ast.Inspect(src.file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := ""
			switch fn := call.Fun.(type) {
			case *ast.Ident:
				name = fn.Name
			case *ast.SelectorExpr:
				name = fn.Sel.Name
			}
			if name == "MarshalIndent" {
				writers = append(writers, src.path)
			}
			if lit, ok := firstArg(call).(*ast.BasicLit); ok && name == "ListenPeer" && lit.Value == `"127.0.0.1:0"` {
				boots = append(boots, src.path)
			}
			return true
		})
	}
	if want := []string{"internal/transport/transport.go"}; !slices.Equal(boots, want) {
		t.Errorf(`ListenPeer("127.0.0.1:0") call sites %v, want %v (transport.Loopback)`, boots, want)
	}
	if want := []string{"internal/experiments/artifact.go"}; !slices.Equal(writers, want) {
		t.Errorf("MarshalIndent call sites %v, want %v (experiments.WriteJSON)", writers, want)
	}
}

func firstArg(call *ast.CallExpr) ast.Expr {
	if len(call.Args) == 0 {
		return nil
	}
	return call.Args[0]
}
