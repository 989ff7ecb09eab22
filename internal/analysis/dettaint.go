package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Dettaint guards seed-reproducibility by tracking nondeterministic
// *values* — wall-clock reads, environment lookups, host-dependent runtime
// queries, map-iteration order, and reads of package-level state mutated
// outside init — and reports only when such a value reaches
// protocol-visible state: the congest wire (Env.Send/Broadcast,
// //flvet:encoder functions), an RNG seed, or a Seed-named field.
//
// Taint propagates through assignments, expressions, and one level of
// package-local calls (per-function summaries record which parameters
// flow to the return value and which reach a sink inside). Map ranges
// already blessed with //flvet:ordered contribute no taint; a
// package-level var documented immutable-after-init may be annotated
// `//flvet:frozen <why>`; a sink call whose tainted input provably cannot
// alter protocol output may be annotated `//flvet:nondet`.
//
// Soundness caveats (documented in DESIGN.md §9): taint does not cross
// interface calls, function values, goroutine spawns, or closure bodies,
// and a tainted receiver does not taint its method results.
var Dettaint = &Analyzer{
	Name:     "dettaint",
	Doc:      "forbid nondeterministic values (clock, env, map order, mutable globals) from reaching the wire, RNG seeds, or per-round state",
	Packages: transportScopedPackages,
	Run:      runDettaint,
}

// taintVal is the dataflow fact: which sources a value may carry. Bit i
// (i < 62) marks "derived from parameter i" (used while summarizing);
// taintInherent marks a genuine nondeterministic source, with reason
// naming the first one.
type taintVal struct {
	mask   uint64
	reason string
}

const taintInherent = uint64(1) << 63

func (t taintVal) zero() bool { return t.mask == 0 }

func (t taintVal) or(u taintVal) taintVal {
	r := t.reason
	if r == "" {
		r = u.reason
	}
	return taintVal{mask: t.mask | u.mask, reason: r}
}

func inherentTaint(reason string) taintVal {
	return taintVal{mask: taintInherent, reason: reason}
}

func joinTaintFacts(dst, src varFacts[taintVal]) (varFacts[taintVal], bool) {
	if dst == nil {
		return src.clone(), true
	}
	changed := false
	for k, v := range src { //flvet:ordered per-key union into a map, order-free
		merged := dst[k].or(v)
		if merged != dst[k] {
			dst[k] = merged
			changed = true
		}
	}
	return dst, changed
}

// taintSummary is a function's one-level call summary.
type taintSummary struct {
	// returnMask: parameter bits (and taintInherent) that may flow into a
	// returned value.
	returnMask   uint64
	returnReason string
	// sinkMask: parameter bits that may reach a sink inside the function;
	// callers report when they pass tainted arguments for these.
	sinkMask uint64
	sinkDesc string
}

type dettaintCtx struct {
	pass      *Pass
	cg        *callGraph
	encoders  map[*types.Func]bool
	summaries map[*types.Func]*taintSummary
	// mutableGlobals are package-level vars written outside init and not
	// annotated //flvet:frozen; reading one is a taint source.
	mutableGlobals map[*types.Var]bool
	reported       map[token.Pos]bool
}

func runDettaint(pass *Pass) {
	if transportBoundary(pass) {
		return
	}
	cx := &dettaintCtx{
		pass:      pass,
		cg:        buildCallGraph(pass),
		encoders:  collectEncoders(pass),
		summaries: map[*types.Func]*taintSummary{},
		reported:  map[token.Pos]bool{},
	}
	cx.collectMutableGlobals()
	for round := 0; round < 32; round++ {
		changed := false
		for _, fn := range cx.cg.order {
			s := cx.summarize(fn)
			if old := cx.summaries[fn]; old == nil || *old != *s {
				cx.summaries[fn] = s
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for _, fn := range cx.cg.order {
		cx.reportFn(fn)
	}
}

// collectEncoders gathers the package's //flvet:encoder functions, whose
// arguments are wire sinks.
func collectEncoders(pass *Pass) map[*types.Func]bool {
	encoders := map[*types.Func]bool{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if _, ok := docDirective(fd.Doc, "encoder"); !ok {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				encoders[fn] = true
			}
		}
	}
	return encoders
}

// collectMutableGlobals records package-level vars assigned (directly or
// through an index/selector/deref chain) anywhere outside func init.
func (cx *dettaintCtx) collectMutableGlobals() {
	cx.mutableGlobals = map[*types.Var]bool{}
	frozen := map[*types.Var]bool{}
	for _, file := range cx.pass.Files {
		for _, decl := range file.Decls {
			switch decl := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					_, declFrozen := docDirective(decl.Doc, "frozen")
					if !declFrozen {
						_, declFrozen = docDirective(vs.Doc, "frozen")
					}
					if declFrozen {
						for _, name := range vs.Names {
							if v, ok := cx.pass.Info.Defs[name].(*types.Var); ok {
								frozen[v] = true
							}
						}
					}
				}
			case *ast.FuncDecl:
				if decl.Body == nil || (decl.Recv == nil && decl.Name.Name == "init") {
					continue
				}
				ast.Inspect(decl.Body, func(n ast.Node) bool {
					var targets []ast.Expr
					switch n := n.(type) {
					case *ast.AssignStmt:
						targets = n.Lhs
					case *ast.IncDecStmt:
						targets = []ast.Expr{n.X}
					default:
						return true
					}
					for _, t := range targets {
						if v := cx.globalVarOf(rootIdent(t)); v != nil {
							cx.mutableGlobals[v] = true
						}
					}
					return true
				})
			}
		}
	}
	for v := range frozen { //flvet:ordered per-key delete, order-free
		delete(cx.mutableGlobals, v)
	}
}

// rootIdent strips index/selector/deref/paren chains down to the base
// identifier of an lvalue.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := e.(type) {
		case *ast.Ident:
			return t
		case *ast.IndexExpr:
			e = t.X
		case *ast.SelectorExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		default:
			return nil
		}
	}
}

// globalVarOf resolves id to a package-level var of the analyzed package.
func (cx *dettaintCtx) globalVarOf(id *ast.Ident) *types.Var {
	if id == nil {
		return nil
	}
	v, ok := cx.pass.Info.Uses[id].(*types.Var)
	if !ok {
		v, ok = cx.pass.Info.Defs[id].(*types.Var)
	}
	if !ok || v == nil {
		return nil
	}
	if cx.pass.Pkg.Scope().Lookup(v.Name()) != types.Object(v) {
		return nil
	}
	return v
}

// sourceCall recognizes the inherent nondeterminism sources.
func sourceCall(fn *types.Func) (string, bool) {
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", false
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return "wall-clock read time." + fn.Name(), true
		}
	case "os":
		switch fn.Name() {
		case "Getenv", "LookupEnv", "Environ":
			return "environment read os." + fn.Name(), true
		}
	case "runtime":
		switch fn.Name() {
		case "NumGoroutine", "NumCPU", "GOMAXPROCS":
			return "host-dependent runtime query runtime." + fn.Name(), true
		}
	}
	return "", false
}

// taintOf computes the taint carried by an expression under env.
func (cx *dettaintCtx) taintOf(e ast.Expr, env varFacts[taintVal]) taintVal {
	var t taintVal
	switch e := e.(type) {
	case nil:
		return t
	case *ast.Ident:
		if v, ok := cx.pass.Info.Uses[e].(*types.Var); ok && v != nil {
			if f, seen := env[v]; seen {
				t = t.or(f)
			}
			if cx.mutableGlobals[v] {
				t = t.or(inherentTaint("read of mutable package-level state " + v.Name()))
			}
		}
		return t
	case *ast.ParenExpr:
		return cx.taintOf(e.X, env)
	case *ast.SelectorExpr:
		return cx.taintOf(e.X, env)
	case *ast.StarExpr:
		return cx.taintOf(e.X, env)
	case *ast.UnaryExpr:
		return cx.taintOf(e.X, env)
	case *ast.BinaryExpr:
		return cx.taintOf(e.X, env).or(cx.taintOf(e.Y, env))
	case *ast.IndexExpr:
		return cx.taintOf(e.X, env).or(cx.taintOf(e.Index, env))
	case *ast.SliceExpr:
		t = cx.taintOf(e.X, env).or(cx.taintOf(e.Low, env)).or(cx.taintOf(e.High, env))
		return t.or(cx.taintOf(e.Max, env))
	case *ast.TypeAssertExpr:
		return cx.taintOf(e.X, env)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				t = t.or(cx.taintOf(kv.Value, env))
				continue
			}
			t = t.or(cx.taintOf(elt, env))
		}
		return t
	case *ast.CallExpr:
		fn := calleeFunc(cx.pass.Info, e)
		if reason, isSource := sourceCall(fn); isSource {
			return inherentTaint(reason)
		}
		if fn != nil {
			if _, local := cx.cg.decls[fn]; local {
				s := cx.summaries[fn]
				if s == nil {
					return t // first summary round: optimistic bottom
				}
				if s.returnMask&taintInherent != 0 {
					t = t.or(inherentTaint(s.returnReason))
				}
				for i, arg := range e.Args {
					if i < 62 && s.returnMask&(1<<uint(i)) != 0 {
						t = t.or(cx.taintOf(arg, env))
					}
				}
				return t
			}
		}
		// Unknown callee (imported, builtin, conversion, dynamic): its
		// result may carry any input's taint.
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			t = t.or(cx.taintOf(sel.X, env))
		}
		for _, arg := range e.Args {
			t = t.or(cx.taintOf(arg, env))
		}
		return t
	}
	return t
}

// stepTaint is the transfer function over one flat CFG node.
func (cx *dettaintCtx) stepTaint(n ast.Node, env varFacts[taintVal]) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
			t := cx.taintOf(n.Rhs[0], env)
			for _, lhs := range n.Lhs {
				cx.setFact(env, lhs, t, n.Tok)
			}
			return
		}
		for i, lhs := range n.Lhs {
			if i >= len(n.Rhs) {
				break
			}
			cx.setFact(env, lhs, cx.taintOf(n.Rhs[i], env), n.Tok)
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				var t taintVal
				if i < len(vs.Values) {
					t = cx.taintOf(vs.Values[i], env)
				} else if len(vs.Values) == 1 {
					t = cx.taintOf(vs.Values[0], env)
				}
				cx.setFact(env, name, t, token.DEFINE)
			}
		}
	case *RangeHeader:
		t := cx.taintOf(n.Range.X, env)
		if xt := cx.pass.Info.TypeOf(n.Range.X); xt != nil {
			if _, isMap := xt.Underlying().(*types.Map); isMap {
				if _, ordered := cx.pass.directiveAt(n.Range.Pos(), "ordered"); !ordered {
					t = t.or(inherentTaint("map iteration order"))
				}
			}
		}
		key, value := rangeVars(cx.pass.Info, n.Range)
		for _, v := range [...]*types.Var{key, value} {
			if v == nil {
				continue
			}
			if t.zero() {
				delete(env, v)
			} else {
				env[v] = t
			}
		}
	}
}

func (cx *dettaintCtx) setFact(env varFacts[taintVal], lhs ast.Expr, t taintVal, tok token.Token) {
	v := lhsVar(cx.pass.Info, lhs)
	if v == nil {
		return
	}
	if tok != token.ASSIGN && tok != token.DEFINE {
		t = env[v].or(t) // compound assignment accumulates
	}
	if t.zero() {
		delete(env, v)
	} else {
		env[v] = t
	}
}

// scanFn runs the taint dataflow over one function. With seedParams, each
// parameter starts carrying its own bit (the summarizing configuration).
// sink is called at every sink with the union taint of the values that
// reach it; ret is called with the taint of each returned value.
func (cx *dettaintCtx) scanFn(fn *types.Func, seedParams bool, sink func(pos token.Pos, desc string, t taintVal), ret func(t taintVal)) {
	fd := cx.cg.decls[fn]
	if fd == nil || fd.Body == nil {
		return
	}
	entry := varFacts[taintVal]{}
	if seedParams {
		i := 0
		if fd.Type.Params != nil {
			for _, field := range fd.Type.Params.List {
				for _, name := range field.Names {
					if v, ok := cx.pass.Info.Defs[name].(*types.Var); ok && i < 62 {
						entry[v] = taintVal{mask: 1 << uint(i)}
					}
					i++
				}
				if len(field.Names) == 0 {
					i++
				}
			}
		}
	}
	cfg := BuildCFG(fd.Body)
	transfer := func(b *Block, env varFacts[taintVal]) varFacts[taintVal] {
		for _, n := range b.Nodes {
			cx.stepTaint(n, env)
		}
		return env
	}
	states := forwardFlow(cfg, entry, joinTaintFacts, varFacts[taintVal].clone, transfer)
	for _, b := range cfg.Blocks {
		st, ok := states[b]
		if !ok {
			continue
		}
		env := st.clone()
		for _, n := range b.Nodes {
			if r, isRet := n.(*ast.ReturnStmt); isRet && ret != nil {
				for _, res := range r.Results {
					ret(cx.taintOf(res, env))
				}
			}
			cx.visitSinks(n, env, sink)
			cx.stepTaint(n, env)
		}
	}
}

// visitSinks finds every sink in one flat CFG node and hands its taint to
// the callback.
func (cx *dettaintCtx) visitSinks(n ast.Node, env varFacts[taintVal], sink func(pos token.Pos, desc string, t taintVal)) {
	if sink == nil {
		return
	}
	if as, ok := n.(*ast.AssignStmt); ok {
		for i, lhs := range as.Lhs {
			sel, isSel := ast.Unparen(lhs).(*ast.SelectorExpr)
			if !isSel || !strings.EqualFold(sel.Sel.Name, "seed") || i >= len(as.Rhs) {
				continue
			}
			sink(as.Pos(), "seed field "+exprString(lhs), cx.taintOf(as.Rhs[i], env))
		}
	}
	walkShallow(n, func(sub ast.Node) bool {
		switch sub := sub.(type) {
		case *ast.CompositeLit:
			for _, elt := range sub.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); ok && strings.EqualFold(key.Name, "seed") {
					sink(kv.Pos(), "seed field "+key.Name, cx.taintOf(kv.Value, env))
				}
			}
		case *ast.CallExpr:
			if method, isEnv := envMethodCall(cx.pass.Info, sub); isEnv {
				var t taintVal
				for _, arg := range sub.Args {
					t = t.or(cx.taintOf(arg, env))
				}
				sink(sub.Pos(), "the congest wire (Env."+method+")", t)
				return true
			}
			fn := calleeFunc(cx.pass.Info, sub)
			if fn == nil {
				return true
			}
			if cx.encoders[fn] || isCongestEncoderCall(fn) {
				var t taintVal
				for _, arg := range sub.Args {
					t = t.or(cx.taintOf(arg, env))
				}
				sink(sub.Pos(), "wire encoder "+fn.Name(), t)
				return true
			}
			if desc, isSeed := rngSeedCall(fn); isSeed {
				var t taintVal
				for _, arg := range sub.Args {
					t = t.or(cx.taintOf(arg, env))
				}
				sink(sub.Pos(), desc, t)
				return true
			}
			// One-level summaries: passing a tainted argument to a local
			// function that forwards it to a sink is a finding at this call.
			if _, local := cx.cg.decls[fn]; local {
				s := cx.summaries[fn]
				if s == nil || s.sinkMask == 0 {
					return true
				}
				var t taintVal
				for i, arg := range sub.Args {
					if i < 62 && s.sinkMask&(1<<uint(i)) != 0 {
						t = t.or(cx.taintOf(arg, env))
					}
				}
				sink(sub.Pos(), s.sinkDesc+" (via "+fn.Name()+")", t)
			}
		}
		return true
	})
}

// isCongestEncoderCall recognizes the congest wire encoders when called
// from a sibling protocol package (they are //flvet:encoder in their own
// package, invisible to this pass's directive table).
func isCongestEncoderCall(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "dfl/internal/congest" {
		return false
	}
	return strings.HasPrefix(fn.Name(), "EncodeKind")
}

// seededConstructors are the math/rand (and v2) package-level functions
// that build generators from caller-supplied state.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, // math/rand
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

// rngSeedCall recognizes RNG seeding: math/rand(/v2) generator
// constructors and the (*rand.Rand).Seed method.
func rngSeedCall(fn *types.Func) (string, bool) {
	if fn.Pkg() == nil {
		return "", false
	}
	switch fn.Pkg().Path() {
	case "math/rand", "math/rand/v2":
	default:
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if fn.Name() == "Seed" {
			return "an RNG seed (" + fn.FullName() + ")", true
		}
		return "", false
	}
	if seededConstructors[fn.Name()] || fn.Name() == "Seed" {
		return "an RNG seed (" + fn.Pkg().Name() + "." + fn.Name() + ")", true
	}
	return "", false
}

// summarize computes fn's taint summary with parameters seeded.
func (cx *dettaintCtx) summarize(fn *types.Func) *taintSummary {
	s := &taintSummary{}
	cx.scanFn(fn, true,
		func(_ token.Pos, desc string, t taintVal) {
			params := t.mask &^ taintInherent
			if params != 0 && s.sinkMask == 0 {
				s.sinkDesc = desc
			}
			s.sinkMask |= params
		},
		func(t taintVal) {
			s.returnMask |= t.mask
			if s.returnReason == "" && t.mask&taintInherent != 0 {
				s.returnReason = t.reason
			}
		})
	return s
}

// reportFn runs the reporting pass: parameters unseeded, so only inherent
// taint survives to a sink.
func (cx *dettaintCtx) reportFn(fn *types.Func) {
	cx.scanFn(fn, false, func(pos token.Pos, desc string, t taintVal) {
		if t.mask&taintInherent == 0 || cx.reported[pos] {
			return
		}
		if _, exempt := cx.pass.directiveAt(pos, "nondet"); exempt {
			return
		}
		cx.reported[pos] = true
		reason := t.reason
		if reason == "" {
			reason = "a nondeterministic source"
		}
		cx.pass.Reportf(pos, "%s flows into %s; protocol output must be a pure function of Config.Seed", reason, desc)
	}, nil)
}
