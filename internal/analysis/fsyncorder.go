package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// FsyncOrder enforces the fsync-before-ack rule in the durability
// packages (internal/journal, which owns every fsync of the shared
// journal format, and its callers internal/jobs and internal/ucache): a
// journal write must reach stable storage before the operation reports
// success. Concretely, on every path of a function body, a
// Write/WriteString/WriteAt on an *os.File must be followed by a Sync on
// the same file — either the method itself or a seam function whose name
// contains "sync" taking the file as its first argument (journal.Sync, the
// shared test seam) — before a `return nil` acknowledges the operation.
//
// The check fires only at returns whose final result is the literal nil
// in a function whose last result is an error: error returns (`return
// j.err`, `return fmt.Errorf(...)`) are failure paths where the write is
// moot, and void functions (journal.File.Append, the best-effort append
// the synthesis cache uses, which deliberately skips the sync and is
// re-written on the next compaction) are out of scope by construction.
// Close is NOT a sync: close(2) does not guarantee durability.
var FsyncOrder = &Analyzer{
	Name: "fsyncorder",
	Doc: "in internal/journal, internal/jobs and internal/ucache, every " +
		"journal write must be Synced on all paths before success is " +
		"returned (fsync-before-ack)",
	Run: runFsyncOrder,
}

func runFsyncOrder(pass *Pass) error {
	if !pkgPathWithin(pass.Pkg.Path, "journal", "jobs", "ucache") {
		return nil
	}
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		funcBodies(file, func(_ string, ftype *ast.FuncType, body *ast.BlockStmt) {
			if !lastResultIsError(info, ftype) {
				return
			}
			fsyncOrderBody(pass, info, body)
		})
	}
	return nil
}

func fsyncOrderBody(pass *Pass, info *types.Info, body *ast.BlockStmt) {
	cfg := FuncCFG(info, body)

	// A deferred sync runs before the function's caller can observe the
	// return, which still orders sync before ack.
	deferredSyncs := tokenSet{}
	for _, d := range cfg.Defers {
		if key, ok := syncedFileKey(info, d.Call); ok {
			deferredSyncs[key] = true
		}
		if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if key, ok := syncedFileKey(info, call); ok {
						deferredSyncs[key] = true
					}
				}
				return true
			})
		}
	}

	transfer := func(fact tokenSet, n ast.Node) {
		flowInspect(n, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if key, ok := dirtyFileKey(info, call); ok {
				fact[key] = true
			}
			if key, ok := syncedFileKey(info, call); ok {
				delete(fact, key)
			}
			return true
		})
	}
	flow := runFlow(cfg, transfer)

	flow.visit(func(fact tokenSet, n ast.Node) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || !returnsNil(info, ret) {
			return
		}
		// The return's own expressions run before the return: a
		// `return f.Sync()`-style ack would be clean, but so would a
		// sync buried in the result list — apply the node's transfer
		// before judging.
		at := fact.clone()
		transfer(at, ret)
		for _, key := range at.sorted() {
			if !deferredSyncs[key] {
				pass.Reportf(ret.Pos(), "%s written but not synced on this path before returning success (fsync-before-ack)", key)
			}
		}
	})
}

// dirtyFileKey classifies a call as a write to an *os.File, returning
// the file's receiver key.
func dirtyFileKey(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", false
	}
	switch fn.Name() {
	case "Write", "WriteString", "WriteAt":
	default:
		return "", false
	}
	recv := callReceiver(call)
	if recv == nil || !isOSFileExpr(info, recv) {
		return "", false
	}
	key := receiverKey(recv)
	if key == "" {
		return "", false
	}
	return key, true
}

// syncedFileKey classifies a call as a durability barrier for a file:
// file.Sync(), or seam(file, ...) where the callee object's name
// contains "sync" (the journal.Sync seam variable).
func syncedFileKey(info *types.Info, call *ast.CallExpr) (string, bool) {
	if fn := calleeFunc(info, call); fn != nil && fn.Name() == "Sync" {
		if recv := callReceiver(call); recv != nil && isOSFileExpr(info, recv) {
			if key := receiverKey(recv); key != "" {
				return key, true
			}
		}
	}
	// Seam form: the callee may be a func-typed variable, which
	// calleeFunc does not resolve — classify by the named object.
	var callee types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		callee = info.Uses[fun]
	case *ast.SelectorExpr:
		callee = info.Uses[fun.Sel]
	}
	if callee == nil || !strings.Contains(strings.ToLower(callee.Name()), "sync") {
		return "", false
	}
	if len(call.Args) == 0 || !isOSFileExpr(info, call.Args[0]) {
		return "", false
	}
	if key := receiverKey(call.Args[0]); key != "" {
		return key, true
	}
	return "", false
}

// isOSFileExpr reports whether e's type is *os.File or os.File.
func isOSFileExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "os" && obj.Name() == "File"
}

// lastResultIsError reports whether the function's final result type is
// error.
func lastResultIsError(info *types.Info, ftype *ast.FuncType) bool {
	if ftype.Results == nil || len(ftype.Results.List) == 0 {
		return false
	}
	last := ftype.Results.List[len(ftype.Results.List)-1]
	tv, ok := info.Types[last.Type]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// returnsNil reports whether the return's final result is the untyped
// nil literal — the success acknowledgment the check gates. Bare returns
// and non-nil expressions (err, fmt.Errorf) are failure or indeterminate
// paths and stay unflagged: the analysis under-approximates rather than
// guess a named result's value.
func returnsNil(info *types.Info, ret *ast.ReturnStmt) bool {
	if len(ret.Results) == 0 {
		return false
	}
	last := ast.Unparen(ret.Results[len(ret.Results)-1])
	id, ok := last.(*ast.Ident)
	if !ok || id.Name != "nil" {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}
