package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// callGraph is the top of the dataflow layer: the package-local
// declarations that let the deep analyzers carry one level of summary
// information across function boundaries. Only statically resolved calls
// to functions and methods *declared in the analyzed package* resolve to a
// summary; calls through interfaces, function values, and imports are
// leaves the analyzers model with their own conservative defaults.
type callGraph struct {
	// decls maps every package-level function/method object to its
	// declaration (bodyless declarations are absent).
	decls map[*types.Func]*ast.FuncDecl
	// order fixes a deterministic iteration order over decls (source
	// position), so analyzer output never depends on map iteration.
	order []*types.Func
}

func buildCallGraph(pass *Pass) *callGraph {
	cg := &callGraph{decls: map[*types.Func]*ast.FuncDecl{}}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				cg.decls[fn] = fd
				cg.order = append(cg.order, fn)
			}
		}
	}
	sort.Slice(cg.order, func(i, j int) bool {
		return cg.decls[cg.order[i]].Pos() < cg.decls[cg.order[j]].Pos()
	})
	return cg
}
