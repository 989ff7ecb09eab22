package analysis

import "strings"

// transportScopedPackages is dettaint's scope: the protocol packages plus
// the real-transport adapter. The adapter legitimately reads the clock and
// draws jitter for timers and backoff, so it declares a `//flvet:transport`
// boundary in its package doc and dettaint skips it — by declaration, not
// by silence: a transport package that drops the directive is analyzed
// (and flagged) like protocol code.
var transportScopedPackages = []string{
	"dfl/internal/core",
	"dfl/internal/congest",
	"dfl/internal/seq",
	"dfl/internal/transport/udp",
}

// transportBoundary reports whether the analyzed package declares the
// `//flvet:transport` nondeterminism boundary in a package doc comment.
// Only packages whose import path contains "transport" may declare it —
// anywhere else the directive is itself a finding and does not exempt,
// so protocol code cannot opt out of determinism checking by annotation.
func transportBoundary(pass *Pass) bool {
	path := ""
	if pass.Pkg != nil {
		path = pass.Pkg.Path()
	}
	for _, file := range pass.Files {
		if file.Doc == nil {
			continue
		}
		for _, c := range file.Doc.List {
			body, found := strings.CutPrefix(c.Text, "//flvet:")
			if !found {
				continue
			}
			if _, match := cutDirective(strings.TrimSpace(body), "transport"); !match {
				continue
			}
			if strings.Contains(path, "transport") {
				return true
			}
			pass.Reportf(c.Pos(), "//flvet:transport on package %s: only transport adapter packages (import path containing \"transport\") may declare the nondeterminism boundary", path)
			return false
		}
	}
	return false
}
