package analysis

// A forward may-union dataflow engine over the CFGs built in cfg.go.
//
// Facts are small sets of string tokens (a held lock, an unsynced file,
// an unjoined goroutine, an acquired pool slot). The join at merge
// points is set union, which makes every client a *may* analysis: a
// token present at a program point means "true on at least one path
// reaching here". The analyzers want exactly that polarity —
//
//   - lockflow: a lock that MAY still be held at a return is a leak on
//     the path that held it;
//   - fsyncorder: a journal write that MAY be unsynced at a success
//     return breaks fsync-before-ack on that path;
//   - goroleak: tracking "unjoined" (token added at the go statement,
//     removed at each join) turns must-join into may-unjoined — a token
//     surviving to Exit names a path that skipped the join;
//   - poolnonest: a slot that MAY be held at a nested acquisition is a
//     deadlock candidate.
//
// The fixpoint is a classic worklist: blocks are re-queued while their
// entry fact grows. Union facts over finite token sets grow
// monotonically, so termination is immediate.

import (
	"go/ast"
	"sort"
)

// A tokenSet is a dataflow fact: a set of string tokens.
type tokenSet map[string]bool

func (s tokenSet) clone() tokenSet {
	out := make(tokenSet, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

// addAll unions other into s and reports whether s grew.
func (s tokenSet) addAll(other tokenSet) bool {
	grew := false
	for k := range other {
		if !s[k] {
			s[k] = true
			grew = true
		}
	}
	return grew
}

// sorted returns the tokens in deterministic order (for reports).
func (s tokenSet) sorted() []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// A flowResult holds the fixpoint of one analysis over one CFG.
type flowResult struct {
	cfg      *CFG
	in       []tokenSet // fact at each block's entry
	transfer func(fact tokenSet, n ast.Node)
}

// runFlow computes the forward may-union fixpoint of transfer over c.
// transfer mutates fact in place to reflect the effect of one node; it
// must be deterministic and must not retain fact.
func runFlow(c *CFG, transfer func(fact tokenSet, n ast.Node)) *flowResult {
	return runFlowEdges(c, transfer, nil)
}

// runFlowEdges is runFlow with a branch-sensitive refinement: when edge
// is non-nil it adjusts (in place) the fact leaving blk for its i-th
// successor, after blk's transfer — e.g. to record an outcome that only
// holds on an if statement's then edge (Succs[0]).
func runFlowEdges(c *CFG, transfer func(fact tokenSet, n ast.Node), edge func(fact tokenSet, blk *Block, i int)) *flowResult {
	r := &flowResult{cfg: c, in: make([]tokenSet, len(c.Blocks)), transfer: transfer}
	for i := range r.in {
		r.in[i] = tokenSet{}
	}
	// Only blocks reachable from the entry participate: statements after
	// an unconditional return are dropped at construction, but control
	// statements there still build (disconnected) subgraphs whose edges
	// into Exit must not pollute the exit fact.
	reach := r.reachable()
	var work []*Block
	inWork := make([]bool, len(c.Blocks))
	for _, blk := range c.Blocks {
		if reach[blk.Index] {
			work = append(work, blk)
			inWork[blk.Index] = true
		}
	}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		inWork[blk.Index] = false
		out := r.in[blk.Index].clone()
		for _, n := range blk.Nodes {
			transfer(out, n)
		}
		for i, succ := range blk.Succs {
			eout := out
			if edge != nil {
				eout = out.clone()
				edge(eout, blk, i)
			}
			if r.in[succ.Index].addAll(eout) && !inWork[succ.Index] {
				work = append(work, succ)
				inWork[succ.Index] = true
			}
		}
	}
	return r
}

// visit replays the transfer over every reachable block, calling f with
// the fact holding immediately BEFORE each node. Facts passed to f are
// live scratch — f must not retain them.
func (r *flowResult) visit(f func(fact tokenSet, n ast.Node)) {
	reach := r.reachable()
	for _, blk := range r.cfg.Blocks {
		if !reach[blk.Index] {
			continue
		}
		fact := r.in[blk.Index].clone()
		for _, n := range blk.Nodes {
			f(fact, n)
			r.transfer(fact, n)
		}
	}
}

// exitFact returns the fact at the synthetic Exit block's entry — the
// union over every path that falls off the end or returns.
func (r *flowResult) exitFact() tokenSet {
	return r.in[r.cfg.Exit.Index]
}

// reachable marks blocks reachable from the entry block.
func (r *flowResult) reachable() []bool {
	seen := make([]bool, len(r.cfg.Blocks))
	var stack []*Block
	if len(r.cfg.Blocks) > 0 {
		stack = append(stack, r.cfg.Blocks[0])
		seen[0] = true
	}
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range blk.Succs {
			if !seen[s.Index] {
				seen[s.Index] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// flowInspect visits the sub-expressions of one CFG node, honoring the
// graph's containment rules: a *ast.RangeStmt node stands for the
// per-iteration fetch, so only its X is visited (Body statements live in
// their own blocks); nested *ast.FuncLit bodies are never entered (each
// literal has its own CFG); *ast.DeferStmt calls are never entered
// either — they run at function exit, not at the defer statement, and
// analyzers model them through CFG.Defers.
func flowInspect(n ast.Node, f func(ast.Node) bool) {
	if rng, ok := n.(*ast.RangeStmt); ok {
		flowInspect(rng.X, f)
		return
	}
	if _, ok := n.(*ast.DeferStmt); ok {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case nil:
			return true
		}
		return f(n)
	})
}

// funcBodies walks a file and yields every function body with its
// declaring node: FuncDecls plus every nested FuncLit (each analyzed as
// its own function, matching the CFG containment rules). fnName is the
// declared name for FuncDecls and "" for literals.
func funcBodies(file *ast.File, f func(fnName string, ftype *ast.FuncType, body *ast.BlockStmt)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				f(n.Name.Name, n.Type, n.Body)
			}
		case *ast.FuncLit:
			f("", n.Type, n.Body)
		}
		return true
	})
}
