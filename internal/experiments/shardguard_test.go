package experiments

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// The shard-access guard encodes the simulator's convention: shard sizes
// are free driver-side knowledge (Part.Len, Rebalance's prefix offsets),
// shard contents cross servers only through a metered round. Outside
// internal/mpc a shard is therefore only ever addressed as "my own": by the
// server index the enclosing per-server loop or callback binds. A
// coordinator step is a call (mpc.Agree), never a Gather followed by a
// read of shard 0. The rules are by form, never by line.

// shardFreeReads lists the functions allowed to range over every server's
// shard contents without a round, each with its reason. It is empty: every
// global read rides a metered round.
var shardFreeReads = map[string]string{}

// perServerCalls are the dispatchers whose callback's first parameter is
// the server index (RouteBlocks': the source server).
var perServerCalls = []string{"ForEachShard", "ForEachShardScratch", "MapShards", "RouteBlocks"}

// shardAccessViolations reports every use of .Shards in f that reads
// another server's shard — or could: a literal index, an index that is not
// the server variable of the enclosing per-server loop or callback, a
// Shards[a%b] fold, a keyless element-reading range outside the allow-list,
// and any mpc.Gather call.
func shardAccessViolations(path string, fset *token.FileSet, f *ast.File) []string {
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
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Gather" && isIdent(sel.X, "mpc") {
				report(n, "mpc.Gather outside internal/mpc: a coordinator step is mpc.Agree")
			}
		case *ast.IndexExpr:
			if !isShards(n.X) {
				break
			}
			switch idx := n.Index.(type) {
			case *ast.BasicLit:
				report(n, ".Shards[%s]: a literal server index reads one server's shard from outside it", idx.Value)
			case *ast.Ident:
				if !bindsServer(stack, idx.Name) {
					report(n, ".Shards[%s]: %s is not the server index of an enclosing ForEachShard/ForEachShardScratch/MapShards/RouteBlocks callback or for loop", idx.Name, idx.Name)
				}
			default:
				report(n, ".Shards[…]: index is not a server variable (hosting is mpc.Overlay)")
			}
		case *ast.RangeStmt:
			if isShards(n.X) && blank(n.Key) && !blank(n.Value) {
				if _, ok := shardFreeReads[path+":"+enclosingFunc(stack)]; !ok {
					report(n, "range over .Shards binds no server index but reads every shard: sizes are Part.Len, contents need a round")
				}
			}
		}
		return true
	})
	return out
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

func isShards(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Shards"
}

func blank(e ast.Expr) bool { return e == nil || isIdent(e, "_") }

// bindsServer reports whether name is bound as a server index by a node on
// the stack: the key of a range over some .Shards, the counter of a
// `for name := 0; …; name++` loop, or the first parameter of a function
// literal passed to one of perServerCalls.
func bindsServer(stack []ast.Node, name string) bool {
	for i, n := range stack {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if isShards(n.X) && n.Key != nil && isIdent(n.Key, name) {
				return true
			}
		case *ast.ForStmt:
			init, ok := n.Init.(*ast.AssignStmt)
			post, ok2 := n.Post.(*ast.IncDecStmt)
			if ok && ok2 && init.Tok == token.DEFINE && len(init.Lhs) == 1 && isIdent(init.Lhs[0], name) && isIdent(post.X, name) {
				return true
			}
		case *ast.FuncLit:
			call, ok := stack[i-1].(*ast.CallExpr)
			if !ok || len(n.Type.Params.List) == 0 || len(n.Type.Params.List[0].Names) == 0 {
				continue
			}
			callee := ""
			switch fn := call.Fun.(type) {
			case *ast.SelectorExpr:
				callee = fn.Sel.Name
			case *ast.IndexExpr: // explicit instantiation, mpc.MapShards[T, U](…)
				if sel, ok := fn.X.(*ast.SelectorExpr); ok {
					callee = sel.Sel.Name
				}
			}
			for _, want := range perServerCalls {
				if callee == want && n.Type.Params.List[0].Names[0].Name == name {
					return true
				}
			}
		}
	}
	return false
}

func enclosingFunc(stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd.Name.Name
		}
	}
	return ""
}

// TestShardsAreTheServersOwn runs the guard over every non-test file outside
// internal/mpc (the package that implements the rounds) and bench/.
func TestShardsAreTheServersOwn(t *testing.T) {
	if len(shardFreeReads) != 0 {
		t.Fatalf("the guard's exception list has %d entries, want none", len(shardFreeReads))
	}
	declared := map[string]bool{}
	for _, src := range sources(t, false, ".") {
		if strings.HasPrefix(src.path, "internal/mpc/") {
			continue
		}
		for _, v := range shardAccessViolations(src.path, src.fset, src.file) {
			t.Error(v)
		}
		for _, d := range src.file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				declared[src.path+":"+fd.Name.Name] = true
			}
		}
	}
	for name := range shardFreeReads {
		if !declared[name] {
			t.Errorf("exception %s names no function in the tree", name)
		}
	}
}

// TestShardGuardCatchesPlantedReads: the guard must fail on the shapes it
// exists to forbid, and pass their legal counterparts.
func TestShardGuardCatchesPlantedReads(t *testing.T) {
	const header = "package starquery\n\nfunc f(ex *mpc.Exec, pt, x mpc.Part[int], p int) {\n"
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"literal index in an engine", "heavy := pt.Shards[0]\n_ = heavy", 1},
		{"another server's shard inside a per-server callback", "ex.ForEachShard(p, func(s int) { j := (s + 1) % p; _ = pt.Shards[j] })", 1},
		{"keyless element-reading range", "n := 0\nfor _, sh := range x.Shards { n += len(sh) }", 1},
		{"modulo fold", "for s, sh := range x.Shards { pt.Shards[s%p] = append(pt.Shards[s%p], sh...) }", 2},
		{"gather then read", "g, _ := mpc.Gather(pt, 0)\n_ = g", 1},
		{"own shard in a callback", "ex.ForEachShard(p, func(s int) { _ = pt.Shards[s] })", 0},
		{"own shard in loops", "for s := range x.Shards { _ = pt.Shards[s] }\nfor i := 0; i < p; i++ { _ = x.Shards[i] }", 0},
		{"own shard in MapShards", "_ = mpc.MapShards(pt, func(s int, shard []int) []int { return x.Shards[s] })", 0},
		{"own shard in RouteBlocks", "_, _ = mpc.RouteBlocks(ex, lay, \"op\", p, func(src int, _ *xrt.Scratch) func(bool, func(int, int, int)) { _ = pt.Shards[src]; return nil })", 0},
	} {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "planted.go", header+tc.body+"\n}\n", parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := shardAccessViolations("internal/starquery/planted.go", fset, f); len(got) != tc.want {
			t.Errorf("%s: %d violations %v, want %d", tc.name, len(got), got, tc.want)
		}
	}
}
