package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// laneWidthScope lists the package-path suffixes the analyzer applies
// to: the kernel and scheduler packages, where every 32/64 must be the
// engine's lane count in disguise. internal/native's one kernel,
// Pair32, has no lanes; the package stays in scope so that any
// lane-shaped native kernel (a SWAR one, say) is held to the same rule
// from its first line.
var laneWidthScope = []string{"internal/core", "internal/sched", "internal/native"}

// laneNames are the identifier/parameter names that denote a lane
// stride. A literal 32 or 64 flowing into one of these is the bug
// class the generic lane engine was built to kill: a hard-coded width
// that silently under- or over-sizes buffers when the other register
// width runs.
var laneNames = map[string]bool{
	"lanes":   true,
	"stride":  true,
	"blanes":  true,
	"nlanes":  true,
	"lanecnt": true,
	// The striped kernel family's layout dimensions: the segment
	// length and stripe count are lane-count quotients, so a bare
	// 32/64 flowing into them is the same width bug.
	"seglen":  true,
	"segs":    true,
	"stripes": true,
}

// LaneWidth checks that lane strides and scratch sizing in the kernel
// and scheduler packages derive from the engine's Lanes()/Stride()
// values (or the seqio lane constants) instead of hard-coded 32/64
// literals.
var LaneWidth = &Analyzer{
	Name: "lanewidth",
	Doc: `flag hard-coded 32/64 lane strides in internal/core and internal/sched

The 256-bit engines run 32 lanes and the 512-bit engines 64; every
scratch buffer, batch stride, and engine instantiation must be sized
from vek.Engine.Lanes(), Batch.Stride(), or the seqio lane constants.
A literal 32/64 passed as a lanes/stride parameter, assigned to a
lanes/stride variable or field, or buried in a make() size is exactly
the width bug the generic lane engine refactor fixed by hand.`,
	Run: runLaneWidth,
}

func runLaneWidth(pass *Pass) error {
	inScope := false
	for _, s := range laneWidthScope {
		if pkgPathIs(pass.Path, s) {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}
	info := pass.TypesInfo
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkLaneCall(pass, n)
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if i >= len(n.Rhs) {
						break
					}
					if name := exprName(lhs); isLaneName(name) && isLaneLiteral(n.Rhs[i]) {
						pass.Reportf(n.Rhs[i].Pos(),
							"hard-coded lane stride assigned to %s; derive it from Engine.Lanes(), Batch.Stride(), or the seqio lane constants", name)
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i >= len(n.Values) {
						break
					}
					if isLaneName(name.Name) && isLaneLiteral(n.Values[i]) {
						pass.Reportf(n.Values[i].Pos(),
							"hard-coded lane stride assigned to %s; derive it from Engine.Lanes(), Batch.Stride(), or the seqio lane constants", name.Name)
					}
				}
			case *ast.KeyValueExpr:
				if key, ok := n.Key.(*ast.Ident); ok && isLaneName(key.Name) && isLaneLiteral(n.Value) {
					if _, isField := info.Uses[key].(*types.Var); isField {
						pass.Reportf(n.Value.Pos(),
							"hard-coded lane stride for field %s; derive it from Engine.Lanes(), Batch.Stride(), or the seqio lane constants", key.Name)
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkLaneCall flags 32/64 literals passed as lanes/stride parameters
// and buried inside make() sizing expressions.
func checkLaneCall(pass *Pass, call *ast.CallExpr) {
	info := pass.TypesInfo
	if isBuiltin(info, call, "make") {
		for _, arg := range call.Args[1:] {
			ast.Inspect(arg, func(n ast.Node) bool {
				if isLaneLiteral(n) {
					pass.Reportf(n.Pos(),
						"hard-coded 32/64 in scratch-buffer sizing; size it from Engine.Lanes() or Batch.Stride()")
				}
				return true
			})
		}
		return
	}
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		if !isLaneLiteral(arg) {
			continue
		}
		var param *types.Var
		switch {
		case sig.Variadic() && i >= np-1:
			param = sig.Params().At(np - 1)
		case i < np:
			param = sig.Params().At(i)
		default:
			continue
		}
		if isLaneName(param.Name()) {
			pass.Reportf(arg.Pos(),
				"hard-coded lane stride passed as parameter %s; derive it from Engine.Lanes(), Batch.Stride(), or the seqio lane constants", param.Name())
		}
	}
}

// isLaneLiteral reports whether n is a bare 32 or 64 integer literal.
// Named constants (seqio.BatchLanes) resolve to identifiers, not
// literals, so the derived forms always pass.
func isLaneLiteral(n ast.Node) bool {
	lit, ok := n.(*ast.BasicLit)
	return ok && lit.Kind == token.INT && (lit.Value == "32" || lit.Value == "64")
}

func isLaneName(name string) bool {
	return laneNames[strings.ToLower(name)]
}

// exprName returns the terminal identifier name of an lvalue: x or
// s.x. Empty for anything else.
func exprName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}
