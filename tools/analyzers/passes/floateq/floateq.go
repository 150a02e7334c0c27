// Package floateq flags == and != between floating-point operands in
// the numerical packages (internal/analytic, internal/stats). The
// queue and MMPP solvers and fitting routines iterate to convergence; an
// exact float comparison in a convergence or degenerate-case check
// either never fires (cv² == 1 after arithmetic) or fires one
// iteration late, and the resulting model drift is invisible until the
// reproduced curves diverge. Comparisons belong in the tolerance
// helpers (stats.ApproxEqual, stats.NearZero) — inside those helpers,
// and in code annotated //lint:allow floateq with a reason (exact
// sentinel values, guards against log(0) on exact draws), the operator
// is fine.
//
// Skipped on purpose: comparisons where both operands are compile-time
// constants, and the x != x NaN-test idiom (self-comparison).
package floateq

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/tools/analyzers/lintkit"
)

// DefaultPackages are the numerical packages.
var DefaultPackages = []string{
	"internal/analytic",
	"internal/stats",
}

// ToleranceHelpers are function names whose bodies may compare floats
// exactly: they are the primitives the rest of the code is supposed to
// use instead of ==.
var ToleranceHelpers = map[string]bool{
	"ApproxEqual": true,
	"NearZero":    true,
}

// Analyzer is the floateq pass.
var Analyzer = &lintkit.Analyzer{
	Name:     "floateq",
	Doc:      "flag ==/!= between floats outside tolerance helpers; exact float equality breaks convergence checks",
	Packages: DefaultPackages,
	Run:      run,
}

func run(pass *lintkit.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if ToleranceHelpers[fd.Name.Name] {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
					return true
				}
				if !isFloat(pass, be.X) && !isFloat(pass, be.Y) {
					return true
				}
				if isConst(pass, be.X) && isConst(pass, be.Y) {
					return true
				}
				if isSelfCompare(be) {
					return true // x != x is the NaN test
				}
				pass.Reportf(be.OpPos, "floating-point %s comparison; use stats.ApproxEqual/stats.NearZero or annotate with //lint:allow floateq", be.Op)
				return true
			})
		}
	}
	return nil
}

func isFloat(pass *lintkit.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&(types.IsFloat|types.IsComplex) != 0
}

func isConst(pass *lintkit.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Value != nil
}

// isSelfCompare reports whether both operands are the same plain
// identifier.
func isSelfCompare(be *ast.BinaryExpr) bool {
	x, ok1 := ast.Unparen(be.X).(*ast.Ident)
	y, ok2 := ast.Unparen(be.Y).(*ast.Ident)
	return ok1 && ok2 && x.Name == y.Name
}
