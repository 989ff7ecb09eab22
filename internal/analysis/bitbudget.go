package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// Bitbudget is the dataflow half of the CONGEST bit-budget contract.
// congestmsg checks that every payload handed to the engine *comes from* a
// `//flvet:encoder maxbits=N` function; bitbudget checks the encoders
// themselves: on every control-flow path through an encoder, the bytes
// appended to the result buffer must be statically bounded, and the bound
// must fit the declared maxbits.
//
// The analysis runs a forward dataflow over the function's CFG. Each
// []byte variable carries an upper bound on its length — a constant, or a
// symbolic "len(param i) + constant" — and transfer functions interpret
// appends, slicing, make, byte literals, the encoding/binary Append*
// helpers, and calls to package-local functions via one-level call-graph
// summaries (so an encoder may delegate to helpers without losing the
// bound). Values join by max; growth saturates to unbounded.
//
// Flagged: appends whose operand has no static length (p..., make with a
// runtime size), appends that grow the result inside a loop (the analysis
// does not count trip counts), and returns whose accumulated bound
// exceeds the declared maxbits. A site that is bounded for out-of-band
// reasons may be annotated `//flvet:bounded <why>` on the offending line;
// the declared registry bound still polices it at run time.
var Bitbudget = &Analyzer{
	Name: "bitbudget",
	Doc:  "prove every path through a //flvet:encoder appends statically bounded bytes within its declared maxbits",
	Packages: []string{
		"dfl/internal/core",
		"dfl/internal/congest",
	},
	Run: runBitbudget,
}

// maxTrackedBytes saturates the byte lattice: bounds beyond this are
// treated as unbounded, which both guarantees termination of the loop
// fixpoint and keeps pathological functions cheap to analyze. Every real
// CONGEST payload here is tens of bytes.
const maxTrackedBytes = 1 << 14

// byteBound is the lattice value: len(value) <= len(param[root]) + n, with
// root == -1 meaning an absolute bound and n == -1 meaning unbounded (top).
type byteBound struct{ root, n int }

var topBound = byteBound{-1, -1}

func (b byteBound) top() bool { return b.n < 0 }

func (b byteBound) add(d int) byteBound {
	if b.top() || d < 0 || b.n+d > maxTrackedBytes {
		return topBound
	}
	return byteBound{b.root, b.n + d}
}

func joinBB(a, b byteBound) byteBound {
	if a.top() || b.top() || a.root != b.root {
		return topBound
	}
	if b.n > a.n {
		return b
	}
	return a
}

func joinBounds(dst, src varFacts[byteBound]) (varFacts[byteBound], bool) {
	if dst == nil {
		return src.clone(), true
	}
	changed := false
	for k, v := range src { //flvet:ordered per-key max-join into a map, order-free
		if old, ok := dst[k]; !ok {
			dst[k] = v
			changed = true
		} else if j := joinBB(old, v); j != old {
			dst[k] = j
			changed = true
		}
	}
	return dst, changed
}

// knownAppendDeltas are the stdlib append-style helpers the engine's
// encoders build on: each returns its first argument extended by at most
// delta bytes.
func knownAppendDelta(fn *types.Func) (int, bool) {
	if fn.Pkg() == nil || fn.Pkg().Path() != "encoding/binary" {
		return 0, false
	}
	switch fn.Name() {
	case "AppendVarint", "AppendUvarint":
		return 10, true // one 64-bit varint is at most 10 bytes
	case "AppendUint16":
		return 2, true
	case "AppendUint32":
		return 4, true
	case "AppendUint64":
		return 8, true
	}
	return 0, false
}

type bitbudgetCtx struct {
	pass      *Pass
	cg        *callGraph
	encoders  map[*types.Func]int
	summaries map[*types.Func]byteBound
	// summarizable marks package-local functions whose first result is
	// []byte; their absence from summaries means "not yet computed"
	// (bottom) during the fixpoint, never "unknown".
	summarizable map[*types.Func]bool
	// boundedGlobals are package-level []byte vars with a constant-size
	// initializer (the payloadDone = []byte{kindDone} idiom).
	boundedGlobals map[*types.Var]int
}

func runBitbudget(pass *Pass) {
	cx := &bitbudgetCtx{
		pass:           pass,
		cg:             buildCallGraph(pass),
		encoders:       collectEncodersQuiet(pass),
		summaries:      map[*types.Func]byteBound{},
		summarizable:   map[*types.Func]bool{},
		boundedGlobals: map[*types.Var]int{},
	}
	cx.collectBoundedGlobals()
	for _, fn := range cx.cg.order {
		if firstByteSliceResult(fn) >= 0 {
			cx.summarizable[fn] = true
		}
	}
	// One-level summaries to fixpoint: each round recomputes every
	// summarizable function's return bound with the current callee
	// summaries. Bounds only grow (max-join, saturating), so this
	// stabilizes; the round cap is a backstop that tops out anything
	// still moving (deep recursion).
	for round := 0; round < 32; round++ {
		changed := false
		for _, fn := range cx.cg.order {
			if !cx.summarizable[fn] {
				continue
			}
			s := cx.summarize(fn)
			if old, ok := cx.summaries[fn]; !ok || old != s {
				cx.summaries[fn] = s
				changed = true
			}
		}
		if !changed {
			break
		}
		if round == 31 {
			for fn := range cx.summarizable { //flvet:ordered per-key top-out, order-free
				cx.summaries[fn] = topBound
			}
		}
	}
	for _, fn := range cx.cg.order {
		if maxbits, ok := cx.encoders[fn]; ok {
			cx.checkEncoder(fn, maxbits)
		}
	}
}

// collectEncodersQuiet gathers //flvet:encoder functions without re-running
// congestmsg's shape diagnostics (that analyzer owns them).
func collectEncodersQuiet(pass *Pass) map[*types.Func]int {
	encoders := map[*types.Func]int{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			args, ok := docDirective(fd.Doc, "encoder")
			if !ok {
				continue
			}
			bits := parseMaxBits(args)
			if bits <= 0 || !returnsByteSlice(pass, fd) {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				encoders[fn] = bits
			}
		}
	}
	return encoders
}

func (cx *bitbudgetCtx) collectBoundedGlobals() {
	for _, file := range cx.pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i >= len(vs.Values) {
						break
					}
					cl, ok := ast.Unparen(vs.Values[i]).(*ast.CompositeLit)
					if !ok {
						continue
					}
					t := cx.pass.Info.TypeOf(cl)
					if t == nil || !(isByteSliceType(t) || isByteArrayType(t)) {
						continue
					}
					if v, ok := cx.pass.Info.Defs[name].(*types.Var); ok {
						cx.boundedGlobals[v] = litLen(cx.pass, cl)
					}
				}
			}
		}
	}
}

// firstByteSliceResult returns the index of fn's first []byte result, -1
// when it has none.
func firstByteSliceResult(fn *types.Func) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return -1
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isByteSliceType(sig.Results().At(i).Type()) {
			return i
		}
	}
	return -1
}

// entryFacts seeds a function's dataflow: every []byte parameter starts at
// len(param i) + 0.
func (cx *bitbudgetCtx) entryFacts(fd *ast.FuncDecl) varFacts[byteBound] {
	env := varFacts[byteBound]{}
	if fd.Type.Params == nil {
		return env
	}
	idx := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if v, ok := cx.pass.Info.Defs[name].(*types.Var); ok && isByteSliceType(v.Type()) {
				env[v] = byteBound{root: idx, n: 0}
			}
			idx++
		}
		if len(field.Names) == 0 {
			idx++
		}
	}
	return env
}

// summarize computes fn's return-bound summary, rooted in fn's own
// parameter indices.
func (cx *bitbudgetCtx) summarize(fn *types.Func) byteBound {
	fd := cx.cg.decls[fn]
	resultIdx := firstByteSliceResult(fn)
	cfg := BuildCFG(fd.Body)
	states := forwardFlow(cfg, cx.entryFacts(fd), joinBounds, varFacts[byteBound].clone, func(b *Block, env varFacts[byteBound]) varFacts[byteBound] {
		for _, n := range b.Nodes {
			cx.stepNode(n, env, nil)
		}
		return env
	}, nil)

	ret := byteBound{}
	seenReturn := false
	for _, b := range cfg.Blocks {
		st, ok := states[b]
		if !ok {
			continue
		}
		env := st.clone()
		for _, n := range b.Nodes {
			if r, ok := n.(*ast.ReturnStmt); ok && resultIdx < len(r.Results) {
				bnd := cx.exprBound(r.Results[resultIdx], env)
				if !seenReturn {
					ret, seenReturn = bnd, true
				} else {
					ret = joinBB(ret, bnd)
				}
			}
			cx.stepNode(n, env, nil)
		}
	}
	if !seenReturn {
		return topBound // naked returns or no return: no tracked bound
	}
	return ret
}

// boundReport is the statement-level callback of the report pass.
type boundReport func(stmt ast.Node, v *types.Var, pre, post byteBound, rhs ast.Expr)

// stepNode is the transfer function: it applies one flat CFG node to env.
// When report is non-nil it is invoked for every tracked assignment with
// the pre/post bounds, before env is updated.
func (cx *bitbudgetCtx) stepNode(n ast.Node, env varFacts[byteBound], report boundReport) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
			// Multi-value assignment: no tracked source produces several
			// []byte results; drop any []byte targets to top.
			for _, lhs := range n.Lhs {
				if v := lhsVar(cx.pass.Info, lhs); v != nil && isByteSliceType(v.Type()) {
					if report != nil {
						report(n, v, cx.pre(env, v), topBound, n.Rhs[0])
					}
					env[v] = topBound
				}
			}
			return
		}
		for i, lhs := range n.Lhs {
			if i >= len(n.Rhs) {
				break
			}
			v := lhsVar(cx.pass.Info, lhs)
			if v == nil || !isByteSliceType(v.Type()) {
				continue
			}
			post := cx.exprBound(n.Rhs[i], env)
			if report != nil {
				report(n, v, cx.pre(env, v), post, n.Rhs[i])
			}
			env[v] = post
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
				v, ok := cx.pass.Info.Defs[name].(*types.Var)
				if !ok || !isByteSliceType(v.Type()) {
					continue
				}
				post := byteBound{-1, 0} // var b []byte: nil, zero length
				if i < len(vs.Values) {
					post = cx.exprBound(vs.Values[i], env)
				}
				if report != nil {
					report(n, v, cx.pre(env, v), post, nil)
				}
				env[v] = post
			}
		}
	case *RangeHeader:
		// Iteration variables of unknown element slices become unbounded.
		key, value := rangeVars(cx.pass.Info, n.Range)
		for _, v := range [...]*types.Var{key, value} {
			if v != nil && isByteSliceType(v.Type()) {
				env[v] = topBound
			}
		}
	}
}

func (cx *bitbudgetCtx) pre(env varFacts[byteBound], v *types.Var) byteBound {
	if b, ok := env[v]; ok {
		return b
	}
	return byteBound{-1, 0}
}

// exprBound computes the static length bound of a []byte expression under
// the current variable facts.
func (cx *bitbudgetCtx) exprBound(e ast.Expr, env varFacts[byteBound]) byteBound {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if e.Name == "nil" {
			return byteBound{-1, 0}
		}
		v := useVar(cx.pass.Info, e)
		if v == nil {
			return topBound
		}
		if b, ok := env[v]; ok {
			return b
		}
		if n, ok := cx.boundedGlobals[v]; ok {
			return byteBound{-1, n}
		}
		return topBound
	case *ast.CompositeLit:
		t := cx.pass.Info.TypeOf(e)
		if t != nil && (isByteSliceType(t) || isByteArrayType(t)) {
			return byteBound{-1, litLen(cx.pass, e)}
		}
		return topBound
	case *ast.SliceExpr:
		if e.High == nil {
			// x[a:] is no longer than x.
			return cx.exprBound(e.X, env)
		}
		if hi, ok := constIntValue(cx.pass, e.High); ok {
			if lo, ok := constIntValue(cx.pass, e.Low); ok && e.Low != nil {
				return byteBound{-1, hi - lo}
			}
			return byteBound{-1, hi}
		}
		return topBound
	case *ast.CallExpr:
		return cx.callBound(e, env)
	}
	return topBound
}

func (cx *bitbudgetCtx) callBound(call *ast.CallExpr, env varFacts[byteBound]) byteBound {
	// Conversion []byte(x): bounded only for constant strings.
	if tv, ok := cx.pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if s, ok := constStringValue(cx.pass, call.Args[0]); ok {
			return byteBound{-1, len(s)}
		}
		return topBound
	}
	// Builtins: append and make are the byte producers.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isBuiltin := cx.pass.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "append":
				if len(call.Args) == 0 {
					return topBound
				}
				base := cx.exprBound(call.Args[0], env)
				if call.Ellipsis.IsValid() {
					tail := call.Args[len(call.Args)-1]
					if s, ok := constStringValue(cx.pass, tail); ok {
						return base.add(len(s))
					}
					tb := cx.exprBound(tail, env)
					if tb.top() || tb.root != -1 {
						return topBound // symbolic + symbolic has no single root
					}
					return base.add(tb.n)
				}
				return base.add(len(call.Args) - 1)
			case "make":
				if len(call.Args) >= 2 {
					if n, ok := constIntValue(cx.pass, call.Args[1]); ok {
						return byteBound{-1, n}
					}
				}
				return topBound
			}
			return topBound
		}
	}
	fn := calleeFunc(cx.pass.Info, call)
	if fn == nil {
		return topBound
	}
	if d, ok := knownAppendDelta(fn); ok && len(call.Args) >= 1 {
		return cx.exprBound(call.Args[0], env).add(d)
	}
	if cx.summarizable[fn] {
		s, ok := cx.summaries[fn]
		if !ok {
			return byteBound{-1, 0} // bottom: refined by the summary fixpoint
		}
		if s.top() {
			return topBound
		}
		if s.root >= 0 {
			if s.root >= len(call.Args) {
				return topBound
			}
			arg := cx.exprBound(call.Args[s.root], env)
			if arg.top() {
				return topBound
			}
			return arg.add(s.n)
		}
		return s
	}
	return topBound
}

// selfAppendBase reports whether rhs is an append chain whose base is the
// variable v itself, *without* an intervening reslice that caps the length
// (buf = append(buf, ...) grows; buf = append(buf[:0], ...) resets).
func (cx *bitbudgetCtx) selfAppendBase(rhs ast.Expr, v *types.Var) bool {
	for {
		switch e := ast.Unparen(rhs).(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
				if b, isBuiltin := cx.pass.Info.Uses[id].(*types.Builtin); isBuiltin && b.Name() == "append" && len(e.Args) > 0 {
					rhs = e.Args[0]
					continue
				}
			}
			if fn := calleeFunc(cx.pass.Info, e); fn != nil && len(e.Args) > 0 {
				if _, ok := knownAppendDelta(fn); ok {
					rhs = e.Args[0]
					continue
				}
			}
			return false
		case *ast.Ident:
			return useVar(cx.pass.Info, e) == v
		default:
			return false
		}
	}
}

func (cx *bitbudgetCtx) checkEncoder(fn *types.Func, maxbits int) {
	fd := cx.cg.decls[fn]
	resultIdx := firstByteSliceResult(fn)
	cfg := BuildCFG(fd.Body)
	states := forwardFlow(cfg, cx.entryFacts(fd), joinBounds, varFacts[byteBound].clone, func(b *Block, env varFacts[byteBound]) varFacts[byteBound] {
		for _, n := range b.Nodes {
			cx.stepNode(n, env, nil)
		}
		return env
	}, nil)

	// Two sweeps over the stable states: assignment-level reports first
	// (they are the precise diagnosis and set reportedTop), return-site
	// checks second, so a loop body's report suppresses the vaguer
	// "returned payload unbounded" one regardless of block numbering (the
	// loop-exit block is created before the body block).
	reportedTop := false
	for _, b := range cfg.Blocks {
		st, ok := states[b]
		if !ok {
			continue
		}
		env := st.clone()
		inCycle := b.InCycle()
		for _, n := range b.Nodes {
			cx.stepNode(n, env, func(stmt ast.Node, v *types.Var, pre, post byteBound, rhs ast.Expr) {
				if _, exempt := cx.pass.directiveAt(stmt.Pos(), "bounded"); exempt {
					// The escape covers the unbounded value it blesses all
					// the way to the return.
					if post.top() {
						reportedTop = true
					}
					return
				}
				if !pre.top() && post.top() {
					reportedTop = true
					cx.pass.Reportf(stmt.Pos(), "encoder %s: %s is assigned a value with no static size bound (variable-length write); the CONGEST budget needs a provable per-message byte bound", fd.Name.Name, v.Name())
					return
				}
				if inCycle && post.top() && rhs != nil && cx.selfAppendBase(rhs, v) {
					reportedTop = true
					cx.pass.Reportf(stmt.Pos(), "encoder %s: append to %s inside a loop grows the payload unboundedly; hoist it, bound the loop, or annotate //flvet:bounded with the trip-count argument", fd.Name.Name, v.Name())
				}
			})
		}
	}
	for _, b := range cfg.Blocks {
		st, ok := states[b]
		if !ok {
			continue
		}
		env := st.clone()
		for _, n := range b.Nodes {
			if r, ok := n.(*ast.ReturnStmt); ok && resultIdx < len(r.Results) {
				bnd := cx.exprBound(r.Results[resultIdx], env)
				if _, exempt := cx.pass.directiveAt(r.Pos(), "bounded"); exempt {
					// out-of-band bound argued at the return site
				} else if bnd.top() {
					if !reportedTop {
						cx.pass.Reportf(r.Pos(), "encoder %s: returned payload size is not statically bounded; every path into the wire must append a bounded number of bytes (annotate //flvet:bounded only with an out-of-band size argument)", fd.Name.Name)
						reportedTop = true
					}
				} else if bnd.n*8 > maxbits {
					cx.pass.Reportf(r.Pos(), "encoder %s: payload can reach %d bits, exceeding declared maxbits=%d", fd.Name.Name, bnd.n*8, maxbits)
				}
			}
			cx.stepNode(n, env, nil)
		}
	}
}

// litLen computes the length of a byte slice/array composite literal,
// honouring keyed elements ([]byte{5: 1} has length 6) and typed array
// lengths.
func litLen(pass *Pass, cl *ast.CompositeLit) int {
	if t := pass.Info.TypeOf(cl); t != nil {
		if arr, ok := t.Underlying().(*types.Array); ok {
			return int(arr.Len())
		}
	}
	n, idx := 0, 0
	for _, elt := range cl.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if k, ok := constIntValue(pass, kv.Key); ok {
				idx = k
			}
		}
		idx++
		if idx > n {
			n = idx
		}
	}
	return n
}

// constIntValue evaluates an expression to a constant int, when possible.
func constIntValue(pass *Pass, e ast.Expr) (int, bool) {
	if e == nil {
		return 0, false
	}
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v, exact := constant.Int64Val(constant.ToInt(tv.Value))
	if !exact {
		return 0, false
	}
	return int(v), true
}

func constStringValue(pass *Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
