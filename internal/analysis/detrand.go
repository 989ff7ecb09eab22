package analysis

import (
	"go/ast"
	"go/types"
)

// Detrand bans the nondeterministic sources from the protocol packages: a
// wall-clock read, an environment or host query, or a draw from the global
// math/rand stream. A run there is a pure function of (instance, K, seed);
// protocol randomness comes from the seeded *rand.Rand the engine plumbs
// through Env.Rand and Config.Seed. The tests run in one environment on
// one host, so an environment or host value folded into a seed or a
// payload changes no execution they compare. Seeded constructors,
// *rand.Rand methods and runtime.GOMAXPROCS stay allowed: GOMAXPROCS only
// sizes the shard pool, and invariant I5 keeps output independent of the
// shard count. Timing that a report needs is taken by the runner or the
// tool, outside these packages.
var Detrand = &Analyzer{
	Name:     "detrand",
	Doc:      "forbid wall-clock reads, environment and host queries, and global math/rand draws in protocol packages",
	Packages: []string{"dfl/internal/core", "dfl/internal/congest", "dfl/internal/seq"},
	Run:      runDetrand,
}

// nondetFuncs lists the banned package-level functions by import path:
// the ones that read the wall clock or the scheduler, the environment, or
// the host. Formatting and duration arithmetic stay allowed.
var nondetFuncs = map[string]map[string]bool{
	"time": {"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true,
		"AfterFunc": true, "Tick": true, "NewTimer": true, "NewTicker": true},
	"os":      {"Getenv": true, "LookupEnv": true, "Environ": true, "Getpid": true, "Hostname": true},
	"runtime": {"NumCPU": true, "NumGoroutine": true},
}

// seededConstructors are the math/rand (and v2) package-level functions
// that only build a generator from caller-supplied state; every other
// package-level function there draws from the shared global stream.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func runDetrand(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
				return true // builtins, conversions, indirect calls and methods
			}
			path := fn.Pkg().Path()
			banned := nondetFuncs[path][fn.Name()]
			if path == "math/rand" || path == "math/rand/v2" {
				banned = !seededConstructors[fn.Name()]
			}
			if banned {
				pass.Reportf(call.Pos(), "call to %s.%s in a protocol package: a run must be a pure function of (instance, K, seed)", path, fn.Name())
			}
			return true
		})
	}
}
