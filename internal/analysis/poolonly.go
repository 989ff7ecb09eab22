package analysis

import (
	"go/ast"
	"path/filepath"
)

// Poolonly protects the sharded-runner architecture: inside
// internal/congest, goroutines may only be started by shard.go (home of
// the persistent shardPool and its per-shard workers). A bare `go`
// statement anywhere else reintroduces exactly the per-round spawning (and
// the attendant scheduling nondeterminism hazards) the pool was built to
// eliminate; new concurrency must be routed through shardPool so the
// round barrier and the deterministic shard-local ingest stay the only
// synchronization points. There is deliberately no exemption
// directive.
var Poolonly = &Analyzer{
	Name:     "poolonly",
	Doc:      "forbid bare go statements in internal/congest outside shard.go",
	Packages: []string{"dfl/internal/congest"},
	Run:      runPoolonly,
}

func runPoolonly(pass *Pass) {
	for _, file := range pass.Files {
		name := filepath.Base(pass.Fset.Position(file.Pos()).Filename)
		if name == "shard.go" {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "bare go statement outside shard.go: route concurrency through the persistent shardPool so the round barrier stays the only synchronization point")
			}
			return true
		})
	}
}
