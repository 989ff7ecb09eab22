package analysis

import (
	"go/ast"
	"go/types"
)

// All returns the flvet analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Poolonly, Hotmap, Dettaint}
}

// exprString renders an expression for diagnostics.
func exprString(e ast.Expr) string { return types.ExprString(e) }

// envMethodCall reports whether call invokes method `Send` or `Broadcast`
// on the simulator's *congest.Env (matched structurally — receiver type
// named Env in a package named congest — so testdata packages exercising
// the real engine type are recognized too). It returns the method name.
func envMethodCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	selection := info.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return "", false
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Name() != "congest" {
		return "", false
	}
	if fn.Name() != "Send" && fn.Name() != "Broadcast" {
		return "", false
	}
	recv := selection.Recv()
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != "Env" {
		return "", false
	}
	return fn.Name(), true
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
