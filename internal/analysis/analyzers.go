package analysis

import (
	"go/ast"
	"go/types"
)

// All returns the flvet analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Poolonly, Hotmap, Detrand}
}

// calleeFunc resolves a call expression to the package-level function or
// method it invokes, or nil for builtins, conversions, and indirect calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, _ := obj.(*types.Func)
	return fn
}
