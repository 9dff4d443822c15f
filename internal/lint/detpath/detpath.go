// Package detpath enforces ONEX's determinism contract on the scoring and
// pruning packages: search results and statistics must be identical across
// runs (the invariant the determinism tests pin), so the kernel and core
// packages may not consult the wall clock, draw from an unseeded random
// source, or let map iteration order reach an ordered output.
package detpath

import (
	"go/ast"
	"go/types"

	"repro/internal/lint"
)

// Analyzer flags nondeterminism sources in internal/dist and
// internal/core. Wall-time measurement that feeds stats (never scores)
// carries //onex:wallclock <reason>; a map iteration whose order provably
// cannot reach an ordered output carries //onex:detorder <reason>.
var Analyzer = &lint.Analyzer{
	Name:           "detpath",
	Directive:      "wallclock",
	MoreDirectives: []string{"detorder"},
	Doc: `check scoring/pruning code for nondeterminism

In internal/dist and internal/core: time.Now/time.Since are flagged
(annotate stats-only wall-time sites with //onex:wallclock <reason>);
math/rand package-level functions are flagged (use a rand.New(
rand.NewSource(seed)) so mining is reproducible); and a range over a map
that appends to a slice, sends to a channel, or writes an element of a
slice is flagged as map-order-into-ordered-output (annotate provably
order-free sites with //onex:detorder <reason>).`,
	Match: lint.MatchAny("internal/dist", "internal/core"),
	Run:   run,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.CallExpr:
				checkClockAndRand(pass, v)
			case *ast.RangeStmt:
				checkMapRange(pass, v)
			}
			return true
		})
	}
	return nil
}

func checkClockAndRand(pass *lint.Pass, call *ast.CallExpr) {
	for _, name := range []string{"Now", "Since", "Until"} {
		if lint.PkgFuncCall(pass.TypesInfo, call, "time", name) {
			pass.Reportf(call.Pos(),
				"time.%s in a scoring/pruning package: wall time must not influence results (annotate stats-only sites with //onex:wallclock <reason>)", name)
		}
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	if (path == "math/rand" || path == "math/rand/v2") && fn.Type().(*types.Signature).Recv() == nil {
		switch fn.Name() {
		case "New", "NewSource", "NewPCG", "NewChaCha8", "NewZipf":
			return // constructing a seeded source is the fix, not the bug
		}
		pass.Reportf(call.Pos(),
			"%s.%s uses the global random source: seed a local rand.New(rand.NewSource(seed)) so mining is reproducible", path, fn.Name())
	}
}

// checkMapRange flags map iterations whose body writes into an ordered
// sink (slice append, indexed slice write, channel send). The //onex:
// detorder annotation suppresses it via the secondary directive.
func checkMapRange(pass *lint.Pass, rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	ordered := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					ordered = true
				}
			}
		case *ast.SendStmt:
			ordered = true
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if xt := pass.TypesInfo.TypeOf(ix.X); xt != nil {
						if _, isSlice := xt.Underlying().(*types.Slice); isSlice {
							ordered = true
						}
					}
				}
			}
		}
		return !ordered
	})
	if !ordered {
		return
	}
	pass.ReportfDirective("detorder", rng.For,
		"map iteration feeds an ordered output: iteration order is randomized per run, breaking result determinism (sort keys first, or annotate //onex:detorder <reason>)")
}
