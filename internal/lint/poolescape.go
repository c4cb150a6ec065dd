package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolEscape enforces the pooled-scratch hygiene that keeps concurrent
// Predict race-free and allocation-free: a value drawn from a sync.Pool is
// borrowed for exactly one call. It must go back with Put on every return
// path (in practice: `defer put(v)` immediately after the get), and it must
// never outlive the call by being returned or parked in a struct field —
// the pool will hand the same object to another goroutine.
//
// The repo wraps its pools in tiny accessor pairs (scratchPool.get/put), so
// the analyzer classifies functions first:
//
//   - a getter is an unexported function that hands a pool-obtained value
//     to its caller (its returns are the pool plumbing, not an escape);
//     calls to getters are tracked exactly like direct Pool.Get calls, so
//     the borrow is checked at every call site;
//   - a putter is a function that calls Pool.Put on one of its own
//     parameters; calls to putters count as puts.
//
// For every other function, each tracked get must be balanced: no Put at
// all is flagged, a return statement between the get and the first
// put/defer-put is flagged as a leaking early return, returning the value
// from an exported function is flagged as an escape, and storing the value
// in a struct field is flagged as an escape. The between-get-and-put check
// is positional, not path-sensitive — by design: the accepted repo idiom is
// `v := get(); defer put(v)` with nothing in between, and anything cleverer
// should be rewritten, not proven safe.
var PoolEscape = &Analyzer{
	Name: "poolescape",
	Doc:  "require sync.Pool-obtained values to be Put on every return path and never escape the call",
	Run:  runPoolEscape,
}

// isPoolMethodCall reports whether call is x.Get() or x.Put(...) with x a
// sync.Pool.
func isPoolMethodCall(info *types.Info, call *ast.CallExpr, name string) bool {
	se, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || se.Sel.Name != name {
		return false
	}
	return isNamedPath(info.TypeOf(se.X), "sync", "Pool")
}

// unwrapGetCall peels parens, type assertions, and derefs off an expression
// and returns the underlying call, e.g. `*(p.Get().(*T))` -> `p.Get()`.
func unwrapGetCall(e ast.Expr) *ast.CallExpr {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.TypeAssertExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.CallExpr:
			return v
		default:
			return nil
		}
	}
}

// poolFuncs is the per-package classification of pool accessor functions.
type poolFuncs struct {
	getters map[*types.Func]bool
	putters map[*types.Func]bool
}

// isGetCall reports whether call obtains a value from a pool, directly or
// through a getter.
func (pf *poolFuncs) isGetCall(info *types.Info, call *ast.CallExpr) bool {
	if isPoolMethodCall(info, call, "Get") {
		return true
	}
	fn := calleeFunc(info, call)
	return fn != nil && pf.getters[fn]
}

// isPutCall reports whether call returns v to a pool, directly or through a
// putter.
func (pf *poolFuncs) isPutCall(info *types.Info, call *ast.CallExpr, v types.Object) bool {
	if isPoolMethodCall(info, call, "Put") || pf.putters[calleeFunc(info, call)] {
		for _, arg := range call.Args {
			if usesObject(info, arg, v) {
				return true
			}
		}
	}
	return false
}

func runPoolEscape(pass *Pass) {
	info := pass.Pkg.Info
	pf := classifyPoolFuncs(pass)
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if obj, ok := info.Defs[fn.Name].(*types.Func); ok && (pf.getters[obj] || pf.putters[obj]) {
				continue
			}
			checkPoolFunc(pass, pf, fn)
		}
	}
}

// classifyPoolFuncs finds the package's getter and putter wrappers.
func classifyPoolFuncs(pass *Pass) *poolFuncs {
	info := pass.Pkg.Info
	pf := &poolFuncs{getters: make(map[*types.Func]bool), putters: make(map[*types.Func]bool)}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, ok := info.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			if isPutterDecl(info, fn) {
				pf.putters[obj] = true
			}
			if !fn.Name.IsExported() && isGetterDecl(info, fn) {
				pf.getters[obj] = true
			}
		}
	}
	return pf
}

// isPutterDecl reports whether fn calls sync.Pool.Put on one of its own
// parameters.
func isPutterDecl(info *types.Info, fn *ast.FuncDecl) bool {
	params := paramObjects(info, fn)
	if len(params) == 0 {
		return false
	}
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isPoolMethodCall(info, call, "Put") {
			return !found
		}
		for _, arg := range call.Args {
			for _, p := range params {
				if usesObject(info, arg, p) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// isGetterDecl reports whether fn hands a pool-obtained value to its caller:
// some return statement contains either a direct Pool.Get call or a variable
// bound from one, and the function never Puts that variable back.
func isGetterDecl(info *types.Info, fn *ast.FuncDecl) bool {
	if fn.Type.Results == nil || len(fn.Type.Results.List) == 0 {
		return false
	}
	getVars := make(map[types.Object]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call := unwrapGetCall(as.Rhs[0])
		if call == nil || !isPoolMethodCall(info, call, "Get") {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := identObject(info, id); obj != nil {
					getVars[obj] = true
				}
			}
		}
		return true
	})
	returnsPooled := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return !returnsPooled
		}
		for _, res := range ret.Results {
			if call := unwrapGetCall(res); call != nil && isPoolMethodCall(info, call, "Get") {
				returnsPooled = true
			}
			for obj := range getVars {
				if usesObject(info, res, obj) {
					returnsPooled = true
				}
			}
		}
		return !returnsPooled
	})
	if !returnsPooled {
		return false
	}
	// A function that Puts a get-bound variable back is using the pool, not
	// providing from it.
	for obj := range getVars {
		puts, _ := findPuts(info, &poolFuncs{putters: map[*types.Func]bool{}}, fn.Body, obj)
		if len(puts) > 0 {
			return false
		}
	}
	return true
}

// paramObjects resolves fn's parameter objects.
func paramObjects(info *types.Info, fn *ast.FuncDecl) []types.Object {
	var out []types.Object
	if fn.Type.Params == nil {
		return nil
	}
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil {
				out = append(out, obj)
			}
		}
	}
	return out
}

// trackedGet is one pool borrow inside a checked function.
type trackedGet struct {
	obj types.Object
	pos token.Pos
}

// checkPoolFunc verifies the get/put balance and escape rules inside one
// ordinary (non-wrapper) function.
func checkPoolFunc(pass *Pass, pf *poolFuncs, fn *ast.FuncDecl) {
	info := pass.Pkg.Info
	var gets []trackedGet
	walkStack(fn.Body, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || !pf.isGetCall(info, call) {
			return
		}
		// A get must be bound to a local: v := pool.Get().(*T).
		if obj := getBinding(info, call, stack); obj != nil {
			gets = append(gets, trackedGet{obj: obj, pos: call.Pos()})
			return
		}
		if _, ok := enclosingStmt(stack).(*ast.ReturnStmt); ok {
			pass.Reportf(call.Pos(), "pool-obtained value escapes via return: the pool may hand it to another goroutine while the caller still uses it")
			return
		}
		pass.Reportf(call.Pos(), "bind the pool-obtained value to a local and defer its Put; using it inline loses the only handle that can return it")
	})
	for _, g := range gets {
		checkTrackedGet(pass, pf, fn, g)
	}
}

// getBinding returns the object a get call is bound to when its enclosing
// statement is `v := <get>` (through parens/assert/deref), else nil.
func getBinding(info *types.Info, call *ast.CallExpr, stack []ast.Node) types.Object {
	as, ok := enclosingStmt(stack).(*ast.AssignStmt)
	if !ok || len(as.Rhs) != 1 || unwrapGetCall(as.Rhs[0]) != call {
		return nil
	}
	if len(as.Lhs) == 0 {
		return nil
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	return identObject(info, id)
}

// enclosingStmt returns the innermost statement on the stack.
func enclosingStmt(stack []ast.Node) ast.Stmt {
	for i := len(stack) - 1; i >= 0; i-- {
		if st, ok := stack[i].(ast.Stmt); ok {
			return st
		}
	}
	return nil
}

// findPuts locates every put of v inside body, returning their positions
// and the position of the first put or defer-put (the guard position).
func findPuts(info *types.Info, pf *poolFuncs, body *ast.BlockStmt, v types.Object) (puts []token.Pos, guard token.Pos) {
	walkStack(body, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || !pf.isPutCall(info, call, v) {
			return
		}
		pos := call.Pos()
		if _, ok := enclosingStmt(stack).(*ast.DeferStmt); ok {
			// The defer guards from its own statement position onward.
			pos = stack[len(stack)-1].Pos()
		}
		puts = append(puts, pos)
		if guard == token.NoPos || pos < guard {
			guard = pos
		}
	})
	return puts, guard
}

// checkTrackedGet enforces the borrow rules for one get.
func checkTrackedGet(pass *Pass, pf *poolFuncs, fn *ast.FuncDecl, g trackedGet) {
	info := pass.Pkg.Info
	puts, guard := findPuts(info, pf, fn.Body, g.obj)
	if len(puts) == 0 {
		pass.Reportf(g.pos, "%s is obtained from a pool but never returned with Put; the pool refills by allocating and the scratch reuse is lost", g.obj.Name())
	} else {
		// Any return between the get and the first put/defer-put leaks the
		// value on that path.
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			ret, ok := n.(*ast.ReturnStmt)
			if ok && g.pos < ret.Pos() && ret.Pos() < guard {
				pass.Reportf(ret.Pos(), "return path between the Get of %s and its Put skips the Put; defer the Put immediately after the Get", g.obj.Name())
			}
			return true
		})
	}
	// Escapes: returning the value, or parking it in a struct field.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range st.Results {
				if escapeRef(info, res, g.obj) {
					pass.Reportf(res.Pos(), "pool-obtained %s escapes via return; the pool may hand it to another goroutine while the caller still uses it", g.obj.Name())
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				if !escapeRef(info, rhs, g.obj) || i >= len(st.Lhs) {
					continue
				}
				if se := selectorBase(st.Lhs[i]); se != nil {
					if sel := info.Selections[se]; sel != nil && sel.Kind() == types.FieldVal {
						pass.Reportf(rhs.Pos(), "pool-obtained %s is stored in a struct field and outlives the call; pooled scratch must stay call-local", g.obj.Name())
					}
				}
			}
		}
		return true
	})
}

// escapeRef reports whether e is (an address of) exactly the tracked
// object, after peeling parens — the direct hand-off forms `v` and `&v`.
func escapeRef(info *types.Info, e ast.Expr, v types.Object) bool {
	e = unparen(e)
	if ue, ok := e.(*ast.UnaryExpr); ok && ue.Op == token.AND {
		e = unparen(ue.X)
	}
	id, ok := e.(*ast.Ident)
	return ok && info.Uses[id] == v
}
