package analysis

// Call-site summaries: per-function facts computed from a callee's body
// and memoized on the Loader, so flow-sensitive analyzers can answer
// "does this call transitively do X" without whole-program analysis.
// A summary is computed once per *types.Func no matter how many packages
// call it — the Loader already memoizes packages, and the summary cache
// rides on it. Calls that cannot be resolved statically (function
// values, interface methods, packages outside the loaded tree such as
// the standard library) summarize as empty: the analyzers consciously
// under-approximate there, the same trade every linter makes.

import (
	"go/ast"
	"go/types"
	"strings"
)

// A funcSummary records the call-relevant facts of one function body.
type funcSummary struct {
	// poolOps is true when the body itself calls (*par.Pool).Acquire or
	// (*par.Pool).ForEachErr (directly, including inside nested literals
	// — a literal defined here runs with this function's pool discipline
	// unless it is itself a slot callback, which the analyzer checks at
	// its own call site).
	poolOps bool
	// callees are the statically resolved functions the body calls.
	callees []*types.Func
	// callbackParams are indices of this function's own parameters that
	// the body hands to a Pool slot (passed as the fn argument of
	// Pool.ForEachErr, or forwarded into another wrapper's callback
	// parameter): arguments at these positions run under a pool slot.
	callbackParams []int
	// wgFieldDone is true when the body calls Done (possibly deferred)
	// on a sync.WaitGroup that is a struct field: the goroutine's
	// lifecycle is owned by the struct (joined wherever the struct's
	// Wait lives), which goroleak accepts as managed.
	wgFieldDone bool
	// usesContext is true when the body references a context.Context
	// value: the goroutine observes cancellation.
	usesContext bool
}

// summaries is the per-loader memo. A nil entry marks an in-progress
// computation (call cycle): treated as empty, which terminates the
// recursion with an under-approximation.
func (l *Loader) summary(fn *types.Func) *funcSummary {
	if l.sums == nil {
		l.sums = map[*types.Func]*funcSummary{}
	}
	if s, ok := l.sums[fn]; ok {
		if s == nil {
			return &funcSummary{} // cycle: under-approximate
		}
		return s
	}
	l.sums[fn] = nil // in progress
	s := l.computeSummary(fn)
	l.sums[fn] = s
	return s
}

func (l *Loader) computeSummary(fn *types.Func) *funcSummary {
	s := &funcSummary{}
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	if pkgPath == "" {
		return s
	}
	if _, ok := l.resolve(pkgPath); !ok {
		return s // outside the loaded tree (stdlib): empty summary
	}
	pkg, err := l.Load(pkgPath)
	if err != nil {
		return s
	}
	decl := pkg.funcDecl(fn)
	if decl == nil || decl.Body == nil {
		return s
	}
	info := pkg.Info

	// Parameter objects, for callbackParams detection.
	paramIndex := map[types.Object]int{}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil {
		for i := 0; i < sig.Params().Len(); i++ {
			paramIndex[sig.Params().At(i)] = i
		}
	}

	seenCallee := map[*types.Func]bool{}
	markCallbackArg := func(arg ast.Expr) {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
			if i, ok := paramIndex[info.Uses[id]]; ok {
				s.callbackParams = append(s.callbackParams, i)
			}
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			callee := calleeFunc(info, n)
			if callee == nil {
				return true
			}
			if isPoolSlotOp(callee) {
				s.poolOps = true
				if callee.Name() == "ForEachErr" && len(n.Args) == 3 {
					markCallbackArg(n.Args[2])
				}
				return true
			}
			if callee != fn && !seenCallee[callee] {
				seenCallee[callee] = true
				s.callees = append(s.callees, callee)
			}
			// Forwarding a parameter into another wrapper's callback slot.
			for _, ci := range l.summary(callee).callbackParams {
				if ci < len(n.Args) {
					markCallbackArg(n.Args[ci])
				}
			}
			if isWaitGroupDone(info, n) && isFieldSelector(info, n) {
				s.wgFieldDone = true
			}
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil && isContextType(obj.Type()) {
				s.usesContext = true
			}
		}
		return true
	})
	return s
}

// reachesPoolOp reports whether fn, or anything it statically calls,
// performs a Pool slot operation.
func (l *Loader) reachesPoolOp(fn *types.Func) bool {
	return l.reachesPool(fn, map[*types.Func]bool{})
}

func (l *Loader) reachesPool(fn *types.Func, seen map[*types.Func]bool) bool {
	if seen[fn] {
		return false
	}
	seen[fn] = true
	s := l.summary(fn)
	if s.poolOps {
		return true
	}
	for _, c := range s.callees {
		if l.reachesPool(c, seen) {
			return true
		}
	}
	return false
}

// funcDecl finds the FuncDecl declaring fn inside the package's files,
// matched by the declaration position of the function's name.
func (p *Package) funcDecl(fn *types.Func) *ast.FuncDecl {
	for _, file := range p.Files {
		if file.Pos() > fn.Pos() || fn.Pos() > file.End() {
			continue
		}
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Pos() == fn.Pos() {
				return fd
			}
		}
	}
	return nil
}

// isPoolSlotOp reports whether fn is (*par.Pool).Acquire or
// (*par.Pool).ForEachErr — the two ways code waits for slots from the
// shared scheduler. TryAcquire is deliberately not one: it never waits,
// so code under a slot may use it. Matching is structural (method named
// Acquire/ForEachErr on a type named Pool in an internal/par package) so
// fixture modules can impersonate the real pool.
func isPoolSlotOp(fn *types.Func) bool {
	return (fn.Name() == "Acquire" || fn.Name() == "ForEachErr") && isPoolMethod(fn)
}

// isSyncMethod reports whether call invokes the named method of the
// given sync package type (e.g. "WaitGroup", "Done").
func isSyncTypeMethod(info *types.Info, call *ast.CallExpr, typeName, method string) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Name() != method {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == typeName
}

func isWaitGroupDone(info *types.Info, call *ast.CallExpr) bool {
	return isSyncTypeMethod(info, call, "WaitGroup", "Done")
}

func isWaitGroupWait(info *types.Info, call *ast.CallExpr) bool {
	return isSyncTypeMethod(info, call, "WaitGroup", "Wait")
}

// isFieldSelector reports whether the call's receiver expression roots
// in a struct field access (x.f.Method() with f a field), as opposed to
// a plain local/package variable.
func isFieldSelector(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	recv, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if s, ok := info.Selections[recv]; ok {
		return s.Kind() == types.FieldVal
	}
	return false
}

// receiverKey renders a stable intra-function key for the receiver of a
// method call (m.mu.Lock() -> "m.mu") or any expression naming a value.
// Purely textual: within one function body the same spelling names the
// same value for the patterns the analyzers track.
func receiverKey(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := receiverKey(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.IndexExpr:
		base := receiverKey(e.X)
		if base == "" {
			return ""
		}
		return base + "[...]"
	case *ast.StarExpr:
		return receiverKey(e.X)
	case *ast.UnaryExpr:
		if e.Op.String() == "&" {
			return receiverKey(e.X)
		}
	case *ast.CallExpr:
		// Method chains through calls (reg().mu) have no stable name.
		return ""
	}
	return ""
}

// callReceiver returns the receiver expression of a method-style call
// (x.M(...) -> x), or nil.
func callReceiver(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// strippedName strips a package qualifier for diagnostics.
func funcDisplayName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	if fn.Pkg() != nil && !strings.Contains(fn.Name(), ".") {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
