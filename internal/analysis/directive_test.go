package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestDirectiveScoping pins exactly where a //flvet: annotation applies:
// the annotated line itself and the single line below it (the "line
// above" placement), never further — a stacked directive two lines up
// must not bleed through, and a name must match whole (no prefixes).
func TestDirectiveScoping(t *testing.T) {
	src := `package p
//flvet:ordered keys sorted below
var a = 1
var b = 2 //flvet:coldpath once per run
var c = 3
var d = 4
//flvet:nondet trace only
//flvet:ordered stacked
var e = 5
var f = 6
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "directives.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var sink []Diagnostic
	pass := newPass(&Analyzer{Name: "scoping"}, &Package{Fset: fset, Files: []*ast.File{file}}, &sink)
	tf := fset.File(file.Pos())

	cases := []struct {
		line     int
		name     string
		wantArgs string
		wantOK   bool
	}{
		// Same-line and line-above placement both bind.
		{2, "ordered", "keys sorted below", true},
		{3, "ordered", "keys sorted below", true},
		{4, "coldpath", "once per run", true},
		{5, "coldpath", "once per run", true},
		// Two lines below the annotation is out of scope.
		{4, "ordered", "", false},
		{6, "coldpath", "", false},
		// Names match whole directives, not prefixes or other names.
		{3, "order", "", false},
		{3, "coldpath", "", false},
		// Stacked directives: only the adjacent one reaches the next line.
		{9, "ordered", "stacked", true},
		{9, "nondet", "", false}, // two lines up, shadowed by the ordered line
		{8, "nondet", "trace only", true},
		{10, "ordered", "", false}, // the var e line absorbed it; var f is bare
	}
	for _, c := range cases {
		args, ok := pass.directiveAt(tf.LineStart(c.line), c.name)
		if ok != c.wantOK || args != c.wantArgs {
			t.Errorf("directiveAt(line %d, %q) = (%q, %v), want (%q, %v)",
				c.line, c.name, args, ok, c.wantArgs, c.wantOK)
		}
	}
}

// TestDocDirectiveScoping pins the declaration form: a doc-comment
// directive binds to its own declaration only.
func TestDocDirectiveScoping(t *testing.T) {
	src := `package p

// encode is tiny.
//
//flvet:encoder maxbits=88
func encode() {}

// plain has no directive and must not inherit encode's.
func plain() {}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "doc.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	fns := map[string]*ast.FuncDecl{}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			fns[fd.Name.Name] = fd
		}
	}
	if args, ok := docDirective(fns["encode"].Doc, "encoder"); !ok || args != "maxbits=88" {
		t.Errorf("encode: docDirective = (%q, %v), want (maxbits=88, true)", args, ok)
	}
	if _, ok := docDirective(fns["encode"].Doc, "frozen"); ok {
		t.Error("encode: unrelated directive name matched")
	}
	if _, ok := docDirective(fns["plain"].Doc, "encoder"); ok {
		t.Error("plain: inherited the previous declaration's directive")
	}
}
