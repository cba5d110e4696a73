package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolNoNest enforces par.Pool's no-nesting rule — until now only a
// comment on the Pool type: code running under a pool slot must not
// acquire from the pool again, directly or transitively, or all slots
// can be held by callers blocked on their own children (deadlock). Two
// complementary checks:
//
//  1. Callback reachability: for every call handing a function to a pool
//     slot — Pool.ForEachErr's fn argument, or a wrapper that forwards
//     its own parameter into one (detected by call-site summaries, so
//     pipeline-style runBlocks helpers are seen through) — the callback
//     must not reach Pool.Acquire/ForEachErr through any chain of
//     statically resolvable calls.
//  2. Slot-held regions: between a manual Pool.Acquire or a successful
//     Pool.TryAcquire and its Release, no call may re-enter the pool — a
//     direct ForEachErr, or any callee that transitively reaches a pool
//     operation. (A direct re-Acquire in this region is deliberately not
//     reported: the canonical
//     `if err := p.Acquire(ctx); err != nil { continue }` retry loop
//     makes the may-analysis see the failed acquisition's token at the
//     next attempt; check 1 and the transitive-callee rule still catch
//     every interprocedural nesting.)
//
// TryAcquire is the one pool operation allowed under a slot: it never
// waits, so it can only take a slot that is idle, and cannot deadlock.
// It therefore does not count as re-entering the pool in either check,
// while the region it opens is slot-held like an Acquire's.
//
// Calls through function values and interfaces are not resolvable and
// are not followed — the same consciously-accepted blind spot as every
// static call-graph check.
var PoolNoNest = &Analyzer{
	Name: "poolnonest",
	Doc: "code reachable from a par.Pool slot (ForEachErr callback or " +
		"Acquire/Release region) must not acquire from the pool again",
	Run: runPoolNoNest,
}

func runPoolNoNest(pass *Pass) error {
	info := pass.Pkg.Info
	loader := pass.Pkg.loader
	for _, file := range pass.Pkg.Files {
		poolCallbacks(pass, info, loader, file)
		funcBodies(file, func(_ string, _ *ast.FuncType, body *ast.BlockStmt) {
			poolHeldRegions(pass, info, loader, body)
		})
	}
	return nil
}

// poolCallbacks checks every function handed to a pool slot.
func poolCallbacks(pass *Pass, info *types.Info, loader *Loader, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		var callbacks []ast.Expr
		if isPoolSlotOp(fn) && fn.Name() == "ForEachErr" && len(call.Args) == 3 {
			callbacks = append(callbacks, call.Args[2])
		} else if loader != nil {
			for _, i := range loader.summary(fn).callbackParams {
				if i < len(call.Args) {
					callbacks = append(callbacks, call.Args[i])
				}
			}
		}
		for _, cb := range callbacks {
			checkSlotCallback(pass, info, loader, cb)
		}
		return true
	})
}

func checkSlotCallback(pass *Pass, info *types.Info, loader *Loader, cb ast.Expr) {
	switch cb := ast.Unparen(cb).(type) {
	case *ast.FuncLit:
		ast.Inspect(cb.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(info, call)
			if callee == nil {
				return true
			}
			if isPoolSlotOp(callee) {
				pass.Reportf(call.Pos(), "pool slot callback re-enters the pool via Pool.%s (no-nesting rule: all slots can deadlock on their own children)", callee.Name())
			} else if loader != nil && loader.reachesPoolOp(callee) {
				pass.Reportf(call.Pos(), "pool slot callback calls %s, which transitively acquires from the pool (no-nesting rule)", funcDisplayName(callee))
			}
			return true
		})
	default:
		fn, _ := resolveObj(info, cb).(*types.Func)
		if fn == nil || loader == nil {
			return
		}
		if loader.reachesPoolOp(fn) {
			pass.Reportf(cb.Pos(), "%s runs under a pool slot and transitively acquires from the pool (no-nesting rule)", funcDisplayName(fn))
		}
	}
}

// poolHeldRegions runs the slot-held dataflow over one body.
func poolHeldRegions(pass *Pass, info *types.Info, loader *Loader, body *ast.BlockStmt) {
	if !mentionsAcquire(info, body) {
		return
	}
	cfg := FuncCFG(info, body)
	// `if p.TryAcquire()` / `if !p.TryAcquire()` hold the slot only on
	// the edge where the call succeeded, so such conditions take effect
	// on that edge rather than at the node.
	tryConds := map[ast.Node]tryCond{}
	ast.Inspect(body, func(n ast.Node) bool {
		if s, ok := n.(*ast.IfStmt); ok {
			if tc, ok := tryAcquireCond(info, s.Cond); ok {
				tryConds[s.Cond] = tc
			}
		}
		return true
	})
	transfer := func(fact tokenSet, n ast.Node) {
		if _, ok := tryConds[n]; ok {
			return
		}
		flowInspect(n, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil {
				return true
			}
			if isPoolAcquire(fn) {
				if key := poolKey(call); key != "" {
					fact[key] = true
				}
			}
			if isPoolRelease(fn) {
				if key := poolKey(call); key != "" {
					delete(fact, key)
				}
			}
			return true
		})
	}
	edge := func(fact tokenSet, blk *Block, i int) {
		if len(blk.Nodes) == 0 {
			return
		}
		tc, ok := tryConds[blk.Nodes[len(blk.Nodes)-1]]
		if !ok {
			return
		}
		// Succs[0] is the then edge; the other is else or the merge.
		if (i == 0) != tc.negated {
			fact[tc.key] = true
		}
	}
	flow := runFlowEdges(cfg, transfer, edge)
	reported := map[ast.Node]bool{}
	flow.visit(func(fact tokenSet, n ast.Node) {
		if len(fact) == 0 {
			return
		}
		// Calls made while a slot is held run under the slot, including
		// function literals invoked here (protect-style wrappers run
		// their argument synchronously).
		inspectWithLits(n, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || reported[call] {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil {
				return true
			}
			if isPoolSlotOp(fn) && fn.Name() == "ForEachErr" {
				reported[call] = true
				pass.Reportf(call.Pos(), "Pool.ForEachErr called while a pool slot is held (no-nesting rule)")
			} else if !isPoolSlotOp(fn) && !isPoolRelease(fn) && loader != nil && loader.reachesPoolOp(fn) {
				reported[call] = true
				pass.Reportf(call.Pos(), "%s called while a pool slot is held, and it transitively acquires from the pool (no-nesting rule)", funcDisplayName(fn))
			}
			return true
		})
	})
}

// tryCond is an if condition that is exactly a TryAcquire call or its
// negation; key names the pool.
type tryCond struct {
	key     string
	negated bool
}

func tryAcquireCond(info *types.Info, cond ast.Expr) (tryCond, bool) {
	negated := false
	e := ast.Unparen(cond)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		negated = true
		e = ast.Unparen(u.X)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return tryCond{}, false
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Name() != "TryAcquire" || !isPoolMethod(fn) {
		return tryCond{}, false
	}
	key := poolKey(call)
	return tryCond{key: key, negated: negated}, key != ""
}

// inspectWithLits visits a CFG node's expressions like flowInspect but
// descends into function literals: a literal appearing at a slot-held
// program point is assumed to run under the slot. Deferred calls are
// still skipped — they run at exit, after the region's Release.
func inspectWithLits(n ast.Node, f func(ast.Node) bool) {
	if rng, ok := n.(*ast.RangeStmt); ok {
		ast.Inspect(rng.X, f)
		return
	}
	if _, ok := n.(*ast.DeferStmt); ok {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.DeferStmt); ok {
			return false
		}
		if n == nil {
			return true
		}
		return f(n)
	})
}

func mentionsAcquire(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := calleeFunc(info, call); fn != nil && isPoolAcquire(fn) {
				found = true
			}
		}
		return true
	})
	return found
}

// poolKey names the pool a slot call operates on, by receiver spelling.
func poolKey(call *ast.CallExpr) string {
	recv := callReceiver(call)
	if recv == nil {
		return ""
	}
	key := receiverKey(recv)
	if key == "" {
		return ""
	}
	return "slot|" + key
}

// isPoolAcquire reports whether fn opens a slot-held region:
// (*par.Pool).Acquire or (*par.Pool).TryAcquire.
func isPoolAcquire(fn *types.Func) bool {
	return (fn.Name() == "Acquire" || fn.Name() == "TryAcquire") && isPoolMethod(fn)
}

// isPoolRelease reports whether fn is (*par.Pool).Release.
func isPoolRelease(fn *types.Func) bool {
	return fn.Name() == "Release" && isPoolMethod(fn)
}

// isPoolMethod reports whether fn is a method of a type named Pool in an
// internal/par package (structural, so fixtures can impersonate it).
func isPoolMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Pool" || named.Obj().Pkg() == nil {
		return false
	}
	return pkgPathWithin(named.Obj().Pkg().Path(), "par")
}
