package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// hotmapFiles are the engine hot-path files covered by the million-node
// memory layout (CSR adjacency, struct-of-arrays node state): per-node maps
// there were deliberately replaced with position-indexed flat slices, and a
// map creeping back in silently reintroduces hashing, pointer chasing, and
// per-node allocation on the per-round path.
var hotmapFiles = map[string]bool{
	"congest.go":   true, // Graph + Env (Send once-per-neighbour check)
	"engine.go":    true, // env layout and the span executor's round path
	"shard.go":     true, // shard workers and the per-destination merge
	"transport.go": true, // RunShard's round loop over the span executor
	"nodes.go":     true, // facility/client state machines
	"frontier.go":  true, // active-set bookkeeping on the per-round path
}

// Hotmap guards that layout: inside the hot-path files of the protocol
// engine packages, allocating a map — make(map[...]...) or a map composite
// literal — is flagged. Cold-path code that legitimately needs a map in one
// of these files can exempt the line with `//flvet:coldpath <reason>`.
var Hotmap = &Analyzer{
	Name:     "hotmap",
	Doc:      "forbid map allocation in engine hot-path files (CSR/SoA memory layout)",
	Packages: []string{"dfl/internal/congest", "dfl/internal/core"},
	Run:      runHotmap,
}

func runHotmap(pass *Pass) {
	for _, file := range pass.Files {
		name := filepath.Base(pass.Fset.Position(file.Pos()).Filename)
		if !hotmapFiles[name] || strings.HasSuffix(name, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			var pos ast.Node
			switch e := n.(type) {
			case *ast.CallExpr:
				id, ok := ast.Unparen(e.Fun).(*ast.Ident)
				if !ok || id.Name != "make" || len(e.Args) == 0 {
					return true
				}
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
					return true // shadowed make
				}
				if !isMapType(pass.Info, e.Args[0]) {
					return true
				}
				pos = e
			case *ast.CompositeLit:
				if e.Type == nil || !isMapType(pass.Info, e.Type) {
					return true
				}
				pos = e
			default:
				return true
			}
			if _, exempt := pass.directiveAt(pos.Pos(), "coldpath"); exempt {
				return true
			}
			pass.Reportf(pos.Pos(), "map allocation in engine hot-path file %s: use a position-indexed flat slice (CSR/SoA layout); mark genuine cold paths //flvet:coldpath", name)
			return true
		})
	}
}

// isMapType reports whether expr denotes a map type, either syntactically
// or through a named type whose underlying type is a map.
func isMapType(info *types.Info, expr ast.Expr) bool {
	if _, ok := ast.Unparen(expr).(*ast.MapType); ok {
		return true
	}
	if tv, ok := info.Types[expr]; ok && tv.IsType() {
		_, isMap := tv.Type.Underlying().(*types.Map)
		return isMap
	}
	return false
}
