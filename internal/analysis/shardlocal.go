package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Shardlocal is the static complement of the runtime I5 byte-identity
// matrix: code reachable from a shard worker's compute phase may only
// write shard-owned state, so no data race (and no scheduling-dependent
// result) can hide in the parallel runner.
//
// The pool's worker entry point is annotated `//flvet:shardworker`; its
// receiver names the pool type and its first int parameter is the worker's
// own shard index. From there the analyzer runs a must-dataflow over each
// reachable package-local function, tracking which values are provably
// shard-local:
//
//   - the own shard index parameter (and copies of it);
//   - node ids obtained by ranging over a collection owned by the shard;
//   - handles (pointers, slices, maps) obtained by indexing a pool field
//     with a provably local index.
//
// A write whose target is rooted at a pool field then needs a provably
// local index; writes through handles derived from a non-local index
// (including a field of a struct element), and writes that replace a whole
// pool field, are flagged, as are method calls on another shard's state.
//
// State a shard handle shares with every other shard is declared with
// `//flvet:shared <why>` on its struct type: every field of that type
// counts as a pool field wherever it is reached, so the engine's node-
// indexed arrays — which each shard's span holds a copy of the slice
// headers of — need a provably local index even through the shard's own
// handle. Writes through a function's own locals,
// parameters, and non-pool receivers are allowed — locality of what the
// caller passed in is the caller's obligation (checked one call level up
// via argument facts).
//
// The merge phase is the one place cross-shard access is legal; it is
// annotated `//flvet:merge <why>` and excluded wholesale. Individual
// writes with an out-of-band ownership argument may be annotated
// `//flvet:shardlocal <why>`.
var Shardlocal = &Analyzer{
	Name:     "shardlocal",
	Doc:      "restrict shard-worker compute phases to writes of shard-owned state; cross-shard writes only in the //flvet:merge phase",
	Packages: []string{"dfl/internal/congest"},
	Run:      runShardlocal,
}

// locKind classifies how a value relates to the current worker's shard.
type locKind uint8

const (
	locNone locKind = iota
	// locOwnIndex: the worker's own shard index (the entry's first int
	// parameter, or a copy).
	locOwnIndex
	// locLocalID: a node id drawn from a shard-owned collection (ranging
	// over a field of a local handle).
	locLocalID
	// locLocalHandle: a reference to state owned by this shard (pool field
	// indexed by a local index, or reached through such a handle).
	locLocalHandle
	// locForeignHandle: a reference to state that may belong to another
	// shard (pool field indexed by a non-local index, or ranged over).
	locForeignHandle
	// locPool: the pool object itself (the shardworker receiver and any
	// pool-typed parameter).
	locPool
	// locPoolField: an alias of an entire shared pool field (p.F without an
	// index): indexing it still needs a local index, replacing it is a
	// cross-shard write.
	locPoolField
)

func isLocalIdx(k locKind) bool { return k == locOwnIndex || k == locLocalID }

type shardlocalCtx struct {
	pass     *Pass
	cg       *callGraph
	poolType *types.Named
	// shared holds the fields of the //flvet:shared struct types.
	shared   map[*types.Var]bool
	mergeFns map[*types.Func]bool
	entry    *types.Func
	entryIdx *types.Var // the entry's own-shard-index parameter
	// fnFacts holds the must-joined entry facts (over parameters and
	// receiver) of every function reachable from the entry.
	fnFacts  map[*types.Func]varFacts[locKind]
	reported map[token.Pos]bool
}

func runShardlocal(pass *Pass) {
	cg := buildCallGraph(pass)
	mergeFns := map[*types.Func]bool{}
	var entries []*types.Func
	for _, fn := range cg.order {
		fd := cg.decls[fn]
		if _, ok := docDirective(fd.Doc, "merge"); ok {
			mergeFns[fn] = true
		}
		if _, ok := docDirective(fd.Doc, "shardworker"); ok {
			entries = append(entries, fn)
		}
	}
	if len(entries) == 0 {
		// The contract exists to police the real engine: losing the
		// annotation must not silently disable the analyzer.
		if pass.Pkg.Path() == "dfl/internal/congest" && len(pass.Files) > 0 {
			pass.Reportf(pass.Files[0].Name.Pos(), "package has no //flvet:shardworker entry point; the shard-locality contract of the parallel runner is unchecked")
		}
		return
	}
	shared := sharedFields(pass)
	for _, entry := range entries {
		cx := &shardlocalCtx{
			pass:     pass,
			cg:       cg,
			shared:   shared,
			mergeFns: mergeFns,
			entry:    entry,
			fnFacts:  map[*types.Func]varFacts[locKind]{},
			reported: map[token.Pos]bool{},
		}
		fd := cg.decls[entry]
		cx.poolType = receiverOfFunc(pass.Info, fd)
		if cx.poolType == nil {
			pass.Reportf(fd.Pos(), "//flvet:shardworker must annotate a method on the worker pool type")
			continue
		}
		if cx.entryIdx = firstIntParam(pass.Info, fd); cx.entryIdx == nil {
			pass.Reportf(fd.Pos(), "//flvet:shardworker entry has no int parameter to carry the worker's own shard index")
			continue
		}
		cx.solve()
		cx.report()
	}
}

// sharedFields collects the fields of the struct types whose declaration
// doc carries //flvet:shared.
func sharedFields(pass *Pass) map[*types.Var]bool {
	shared := map[*types.Var]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				doc := ts.Doc
				if doc == nil && len(gd.Specs) == 1 {
					doc = gd.Doc
				}
				st, isStruct := ts.Type.(*ast.StructType)
				if _, ok := docDirective(doc, "shared"); !ok || !isStruct {
					continue
				}
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						if v, ok := pass.Info.Defs[name].(*types.Var); ok {
							shared[v] = true
						}
					}
				}
			}
		}
	}
	return shared
}

func firstIntParam(info *types.Info, fd *ast.FuncDecl) *types.Var {
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			v, ok := info.Defs[name].(*types.Var)
			if !ok {
				continue
			}
			if b, isBasic := v.Type().Underlying().(*types.Basic); isBasic && b.Info()&types.IsInteger != 0 {
				return v
			}
		}
	}
	return nil
}

// seedFor builds a function's entry facts: the pool receiver/params are
// always locPool; the entry's index param is locOwnIndex; other facts come
// from the must-join of call-site arguments.
func (cx *shardlocalCtx) seedFor(fn *types.Func) varFacts[locKind] {
	fd := cx.cg.decls[fn]
	env := varFacts[locKind]{}
	for v, k := range cx.fnFacts[fn] { //flvet:ordered per-key copy into a map, order-free
		env[v] = k
	}
	if rv := receiverVar(fd, cx.pass.Info); rv != nil && cx.isPoolType(rv.Type()) {
		env[rv] = locPool
	}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if v, ok := cx.pass.Info.Defs[name].(*types.Var); ok && cx.isPoolType(v.Type()) {
					env[v] = locPool
				}
			}
		}
	}
	if fn == cx.entry {
		env[cx.entryIdx] = locOwnIndex
	}
	return env
}

func (cx *shardlocalCtx) isPoolType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj() == cx.poolType.Obj()
}

// solve propagates call-site facts through the reachable set to fixpoint.
// Facts only shrink under the must-join, so this terminates.
func (cx *shardlocalCtx) solve() {
	queue := []*types.Func{cx.entry}
	queued := map[*types.Func]bool{cx.entry: true}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		queued[fn] = false
		cx.analyze(fn, false, func(callee *types.Func, facts varFacts[locKind]) {
			if cx.mergeFns[callee] || callee == cx.entry {
				return
			}
			old, seen := cx.fnFacts[callee]
			changed := false
			if !seen {
				cx.fnFacts[callee] = facts
				changed = true
			} else {
				cx.fnFacts[callee], changed = joinIntersect(old, facts)
			}
			if (changed || !seen) && !queued[callee] {
				queued[callee] = true
				queue = append(queue, callee)
			}
		})
	}
}

// report re-walks every function analyzed during solve with its final
// facts and emits diagnostics.
func (cx *shardlocalCtx) report() {
	cx.analyze(cx.entry, true, nil)
	for _, fn := range cx.cg.order {
		if _, ok := cx.fnFacts[fn]; ok && !cx.mergeFns[fn] {
			cx.analyze(fn, true, nil)
		}
	}
}

// analyze runs the locality dataflow over one function. When emit is set
// it reports violations; when callSite is non-nil it is invoked with the
// argument facts of every package-local call.
func (cx *shardlocalCtx) analyze(fn *types.Func, emit bool, callSite func(*types.Func, varFacts[locKind])) {
	fd := cx.cg.decls[fn]
	if fd == nil || fd.Body == nil {
		return
	}
	cfg := BuildCFG(fd.Body)
	transfer := func(b *Block, env varFacts[locKind]) varFacts[locKind] {
		for _, n := range b.Nodes {
			cx.stepLoc(n, env)
		}
		return env
	}
	states := forwardFlow(cfg, cx.seedFor(fn), joinIntersect, varFacts[locKind].clone, transfer, nil)
	for _, b := range cfg.Blocks {
		st, ok := states[b]
		if !ok {
			continue
		}
		env := st.clone()
		for _, n := range b.Nodes {
			cx.visitNode(n, env, emit, callSite)
			cx.stepLoc(n, env)
		}
	}
}

// stepLoc is the transfer function: it tracks locality facts across one
// flat CFG node.
func (cx *shardlocalCtx) stepLoc(n ast.Node, env varFacts[locKind]) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
			// Compound assignment (i += 1) moves an index off its proven
			// value.
			for _, lhs := range n.Lhs {
				if v := lhsVar(cx.pass.Info, lhs); v != nil {
					delete(env, v)
				}
			}
			return
		}
		if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
			for _, lhs := range n.Lhs {
				if v := lhsVar(cx.pass.Info, lhs); v != nil {
					delete(env, v)
				}
			}
			return
		}
		for i, lhs := range n.Lhs {
			if i >= len(n.Rhs) {
				break
			}
			v := lhsVar(cx.pass.Info, lhs)
			if v == nil {
				continue
			}
			if k := cx.exprLoc(n.Rhs[i], env); k != locNone {
				env[v] = k
			} else {
				delete(env, v)
			}
		}
	case *ast.IncDecStmt:
		if v := lhsVar(cx.pass.Info, n.X); v != nil {
			delete(env, v)
		}
	case *RangeHeader:
		key, value := rangeVars(cx.pass.Info, n.Range)
		ck := cx.exprLoc(n.Range.X, env)
		if key != nil {
			// Positions within a collection are not node ids, own or not.
			delete(env, key)
		}
		if value == nil {
			return
		}
		switch ck {
		case locLocalHandle:
			if refLike(value.Type()) {
				env[value] = locLocalHandle
			} else if isIntType(value.Type()) {
				// Ranging a shard-owned collection yields shard-owned ids
				// (the members-walk idiom).
				env[value] = locLocalID
			} else {
				delete(env, value)
			}
		case locPoolField, locPool, locForeignHandle:
			if refLike(value.Type()) {
				env[value] = locForeignHandle
			} else {
				delete(env, value)
			}
		default:
			delete(env, value)
		}
	}
}

// exprLoc classifies an expression's shard locality under env.
func (cx *shardlocalCtx) exprLoc(e ast.Expr, env varFacts[locKind]) locKind {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v := useVar(cx.pass.Info, e); v != nil {
			return env[v]
		}
		return locNone
	case *ast.SelectorExpr:
		switch cx.exprLoc(e.X, env) {
		case locPool, locPoolField:
			return locPoolField
		case locLocalHandle:
			if sel := cx.pass.Info.Selections[e]; sel != nil {
				if v, ok := sel.Obj().(*types.Var); ok && cx.shared[v] {
					return locPoolField
				}
			}
			return locLocalHandle
		case locForeignHandle:
			return locForeignHandle
		}
		return locNone
	case *ast.IndexExpr:
		xk := cx.exprLoc(e.X, env)
		switch xk {
		case locPoolField:
			if isLocalIdx(cx.exprLoc(e.Index, env)) {
				return locLocalHandle
			}
			// A struct element is another shard's storage too: writing
			// one of its fields is a cross-shard write.
			if t := cx.typeOf(e); refLike(t) || isComposite(t) {
				return locForeignHandle
			}
			return locNone
		case locLocalHandle:
			return locLocalHandle
		case locForeignHandle:
			if refLike(cx.typeOf(e)) {
				return locForeignHandle
			}
			return locNone
		}
		return locNone
	case *ast.StarExpr:
		return cx.exprLoc(e.X, env)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return cx.exprLoc(e.X, env)
		}
		return locNone
	}
	return locNone
}

func (cx *shardlocalCtx) typeOf(e ast.Expr) types.Type { return cx.pass.Info.TypeOf(e) }

// visitNode performs the checking half: writes, method calls, and
// package-local call propagation for one flat CFG node.
func (cx *shardlocalCtx) visitNode(n ast.Node, env varFacts[locKind], emit bool, callSite func(*types.Func, varFacts[locKind])) {
	switch s := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			if _, isIdent := ast.Unparen(lhs).(*ast.Ident); isIdent {
				continue // rebinding a local name is not a write-through
			}
			if emit {
				cx.checkWrite(s.Pos(), lhs, env)
			}
		}
	case *ast.IncDecStmt:
		if _, isIdent := ast.Unparen(s.X).(*ast.Ident); !isIdent && emit {
			cx.checkWrite(s.Pos(), s.X, env)
		}
	}
	// Calls can hide anywhere in the node's expressions.
	walkShallow(n, func(sub ast.Node) bool {
		call, ok := sub.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(cx.pass.Info, call)
		if callee != nil {
			if fd, local := cx.cg.decls[callee]; local {
				if callSite != nil && !cx.mergeFns[callee] {
					callSite(callee, cx.callArgFacts(fd, call, env))
				}
				return true
			}
		}
		// Leaf call (imported, builtin, or dynamic): a method invoked on
		// another shard's state mutates what this worker does not own.
		if emit {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if cx.exprLoc(sel.X, env) == locForeignHandle {
					cx.reportAt(call.Pos(), "method call on %s, which may belong to another shard; only the //flvet:merge phase may touch cross-shard state", exprString(sel.X))
				}
			}
		}
		return true
	})
}

// callArgFacts maps a call's argument locality facts onto the callee's
// parameter (and receiver) variables.
func (cx *shardlocalCtx) callArgFacts(fd *ast.FuncDecl, call *ast.CallExpr, env varFacts[locKind]) varFacts[locKind] {
	facts := varFacts[locKind]{}
	if rv := receiverVar(fd, cx.pass.Info); rv != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if k := cx.exprLoc(sel.X, env); k != locNone {
				facts[rv] = k
			}
		}
	}
	i := 0
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if i >= len(call.Args) {
					break
				}
				if v, ok := cx.pass.Info.Defs[name].(*types.Var); ok {
					if k := cx.exprLoc(call.Args[i], env); k != locNone {
						facts[v] = k
					}
				}
				i++
			}
		}
	}
	return facts
}

// checkWrite enforces the locality contract on one write target.
func (cx *shardlocalCtx) checkWrite(stmt token.Pos, target ast.Expr, env varFacts[locKind]) {
	switch e := ast.Unparen(target).(type) {
	case *ast.IndexExpr:
		switch cx.exprLoc(e.X, env) {
		case locPoolField:
			if !isLocalIdx(cx.exprLoc(e.Index, env)) {
				cx.reportAt(stmt, "write to %s indexed by %s, which is not provably in this worker's shard; shard workers may only write their own shard's range", exprString(e.X), exprString(e.Index))
			}
		case locForeignHandle:
			cx.reportAt(stmt, "write through %s, which may reference another shard's state", exprString(e.X))
		}
	case *ast.SelectorExpr:
		switch cx.exprLoc(e.X, env) {
		case locPool, locPoolField:
			cx.reportAt(stmt, "write to shared pool state %s from a shard worker; pool-wide fields may only change outside the compute phase", exprString(e))
		case locForeignHandle:
			cx.reportAt(stmt, "write through %s, which may reference another shard's state", exprString(e.X))
		}
	case *ast.StarExpr:
		if cx.exprLoc(e.X, env) == locForeignHandle {
			cx.reportAt(stmt, "write through %s, which may reference another shard's state", exprString(e.X))
		}
	}
}

func (cx *shardlocalCtx) reportAt(pos token.Pos, format string, args ...any) {
	if cx.reported[pos] {
		return
	}
	if _, exempt := cx.pass.directiveAt(pos, "shardlocal"); exempt {
		return
	}
	cx.reported[pos] = true
	cx.pass.Reportf(pos, format, args...)
}

// refLike reports whether writes through a value of type t alias shared
// backing state (pointers, slices, maps, chans, interfaces).
func refLike(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface:
		return true
	}
	return false
}

// isComposite reports whether t is a struct or array value, whose fields or
// elements a write can target in place.
func isComposite(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Struct, *types.Array:
		return true
	}
	return false
}

func isIntType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
