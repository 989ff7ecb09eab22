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
	"engine.go":    true, // env layout and the round executor
	"shard.go":     true, // shard workers and their in-place ingest
	"transport.go": true, // the round executor's transport edge
	"nodes.go":     true, // facility/client state machines
	"frontier.go":  true, // active-set bookkeeping on the per-round path
	"delivery.go":  true, // fault pipeline and the reliable shim's per-edge link state
}

// Hotmap guards that layout: inside the hot-path files of the protocol
// engine packages, allocating a map — make(map[...]...) or a map composite
// literal — is flagged. Set-up code that needs a map belongs in a file
// outside the hot-path set.
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
			case *ast.CompositeLit:
				if e.Type == nil || !isMapType(pass.Info, e.Type) {
					return true
				}
			default:
				return true
			}
			pass.Reportf(n.Pos(), "map allocation in engine hot-path file %s: use a position-indexed flat slice (CSR/SoA layout)", name)
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
