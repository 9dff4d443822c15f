// Package ctxloop enforces ONEX's cancellation invariant: every walk over
// groups or members in the query-processing packages must poll its
// context, so a cancelled search aborts within one pruning round instead
// of running to completion (the contract established in PRs 2-4 and
// load-bearing for the streaming and serving tiers).
package ctxloop

import (
	"go/ast"
	"regexp"

	"repro/internal/lint"
)

// Analyzer flags range loops over group/member collections whose body
// neither polls ctx.Err()/ctx.Done() nor hands the context to a callee.
// Annotate deliberate exceptions with //onex:nopoll <reason>.
var Analyzer = &lint.Analyzer{
	Name:      "ctxloop",
	Directive: "nopoll",
	Doc: `check that group/member walks poll their context

Range loops whose iterated expression names a group, member, or wave
collection must contain a ctx.Err() or ctx.Done() poll, or pass the
context to a function they call (which is then itself subject to this
check). Loops that are deliberately unpolled — O(1) bodies under an
outer per-round poll — carry an //onex:nopoll <reason> annotation.`,
	Match: lint.MatchAny("internal/core", "internal/replica", "internal/server"),
	Run:   run,
}

// walkExprRe decides whether a range expression iterates a group/member
// collection: any identifier or selector in it mentioning groups, members,
// or refinement waves.
var walkExprRe = regexp.MustCompile(`(?i)group|member|wave`)

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if !mentionsWalkCollection(rng.X) {
				return true
			}
			if bodyPollsContext(pass, rng.Body) {
				return true
			}
			pass.Reportf(rng.For,
				"range over %s does not poll ctx.Err()/ctx.Done() or pass the context on; a cancelled walk must abort within one round (annotate //onex:nopoll <reason> if this loop is exempt)",
				exprString(rng.X))
			return true
		})
	}
	return nil
}

// mentionsWalkCollection reports whether any name inside e matches the
// group/member vocabulary.
func mentionsWalkCollection(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && walkExprRe.MatchString(id.Name) {
			found = true
			return false
		}
		return !found
	})
	return found
}

// bodyPollsContext reports whether body contains a context poll — a call
// to .Err() or .Done() on a context.Context — or a call that receives a
// context.Context argument (the callee's own loops are checked when its
// package is analyzed).
func bodyPollsContext(pass *lint.Pass, body *ast.BlockStmt) bool {
	polls := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !polls
		}
		for _, name := range []string{"Err", "Done"} {
			if recv, ok := lint.MethodCallNamed(call, name); ok && lint.IsContextExpr(pass.TypesInfo, recv) {
				polls = true
				return false
			}
		}
		for _, arg := range call.Args {
			if lint.IsContextExpr(pass.TypesInfo, arg) {
				polls = true
				return false
			}
		}
		return true
	})
	return polls
}

// exprString renders the range expression compactly for the diagnostic.
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.CallExpr:
		return exprString(v.Fun) + "(...)"
	case *ast.IndexExpr:
		return exprString(v.X) + "[...]"
	default:
		return "group/member collection"
	}
}
