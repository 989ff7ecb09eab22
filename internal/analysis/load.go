package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Info       *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// LoadError is an operational failure pinned to one package: the listing,
// compile, or type check of that package failed. Drivers distinguish it
// from analyzer findings (exit 2, not 1) and report the package.
type LoadError struct {
	ImportPath string
	Reason     string
}

func (e *LoadError) Error() string {
	return "load " + e.ImportPath + ": " + e.Reason
}

// Load resolves patterns (as the go tool would, relative to dir) and
// type-checks every matched package from source. Imports — including the
// standard library — are satisfied from compiler export data produced by
// `go list -export`, which keeps the loader free of external dependencies:
// the x/tools packages loader is not available in this module.
//
// A package that fails to list, compile, or type-check aborts the run with
// a *LoadError naming it, so multi-package runs say which target broke.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	exports := make(map[string]string, len(listed))
	for _, lp := range listed {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
	}

	fset := token.NewFileSet()
	// The gc importer reads export data through the lookup function and
	// caches packages internally, so one importer serves every target.
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})

	var pkgs []*Package
	for _, lp := range listed {
		if lp.DepOnly || len(lp.GoFiles) == 0 {
			continue
		}
		files := make([]*ast.File, 0, len(lp.GoFiles))
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, &LoadError{ImportPath: lp.ImportPath, Reason: fmt.Sprintf("parse %s: %v", name, err)}
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(lp.ImportPath, fset, files, info); err != nil {
			return nil, &LoadError{ImportPath: lp.ImportPath, Reason: fmt.Sprintf("typecheck: %v", err)}
		}
		pkgs = append(pkgs, &Package{
			ImportPath: lp.ImportPath,
			Dir:        lp.Dir,
			Fset:       fset,
			Files:      files,
			Info:       info,
		})
	}
	return pkgs, nil
}

// goList shells out for package metadata plus compiled export data. -deps
// pulls in every transitive import so the lookup importer can resolve the
// full graph; targets are told apart by DepOnly. -e keeps one broken
// package from truncating the listing, so the caller can name it.
func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-e", "-export", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %w\n%s", patterns, err, stderr.Bytes())
	}
	var listed []listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decode go list output: %w", err)
		}
		if lp.Error != nil {
			return nil, &LoadError{ImportPath: lp.ImportPath, Reason: lp.Error.Err}
		}
		listed = append(listed, lp)
	}
	return listed, nil
}

// ModuleRoot walks upward from the working directory to the enclosing
// go.mod; tests and the driver use it so they work from any package dir.
func ModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
