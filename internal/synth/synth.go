package synth

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/budget"
	"repro/internal/circuit"
	"repro/internal/faultinject"
	"repro/internal/linalg"
	"repro/internal/opt"
	"repro/internal/par"
)

// Candidate is one synthesized circuit for a target unitary, with its
// Hilbert-Schmidt process distance and CNOT count. Candidates at many
// different CNOT counts are the raw material of QUEST's approximation
// space (Sec. 3.5). Its JSON form is the one the synthesis cache journal
// and questd's synthesis artifacts store.
type Candidate struct {
	// Circuit implements the approximation on local qubits 0..n-1.
	Circuit *circuit.Circuit `json:"circuit"`
	// Distance is the HS process distance to the target.
	Distance float64 `json:"distance"`
	// CNOTs is the circuit's CNOT count.
	CNOTs int `json:"cnots"`
}

// Check validates a decoded candidate for a width-qubit target: it must
// carry a circuit of exactly that width that passes circuit.Check.
func (c Candidate) Check(width int) error {
	if c.Circuit == nil {
		return fmt.Errorf("synth: candidate has no circuit")
	}
	if c.Circuit.NumQubits != width {
		return fmt.Errorf("synth: candidate has %d qubits, target has %d", c.Circuit.NumQubits, width)
	}
	return c.Circuit.Check()
}

// Result is the outcome of a synthesis run.
type Result struct {
	// Best is the candidate with the smallest process distance
	// (ties broken by fewer CNOTs).
	Best Candidate
	// Candidates holds every harvested solution, sorted by (CNOTs,
	// Distance). It always contains Best.
	Candidates []Candidate
	// Evaluations counts objective evaluations across the search.
	Evaluations int
}

// Options configures Synthesize. The zero value gives exact-style
// synthesis with defaults matching the paper's setup.
type Options struct {
	// Threshold is the HS-distance success threshold ε. Once a solution
	// below it is found the tree stops growing (unless HarvestAll).
	// Default 1e-6 ("exact" synthesis).
	Threshold float64
	// MaxCNOTs bounds the tree depth: no candidate will have more CNOTs
	// than this. 0 selects a universal default budget for n qubits; a
	// negative value means "no CNOT layers at all" (rotation-only seed),
	// canonically -1.
	MaxCNOTs int
	// Beam is the number of tree nodes kept per depth. Default 2.
	Beam int
	// ReseedEvery implements LEAP prefix reseeding: every this many
	// layers the beam collapses to its best node. Default 3.
	ReseedEvery int
	// Restarts is the number of extra random-restart optimizations per
	// node beyond the warm start. Default 1.
	Restarts int
	// CouplingPairs restricts CNOT placement to the listed (control,
	// target) pairs. Nil allows every ordered pair with control < target.
	CouplingPairs [][2]int
	// HarvestAll keeps growing the tree to MaxCNOTs even after the
	// threshold is met, collecting approximations at every CNOT count —
	// QUEST's modification of LEAP.
	HarvestAll bool
	// KeepPerDepth is how many candidates are retained per CNOT count
	// (best by distance). Default 4.
	KeepPerDepth int
	// Seed makes the search deterministic. Default 1.
	Seed int64
}

// Canonical returns the options with every default resolved for an
// n-qubit target — the exact configuration SynthesizeCtx runs with.
// Callers that memoize synthesis results (internal/ucache) fingerprint
// this canonical form so that, e.g., Beam:0 and Beam:2 map to the same
// cache entry, and then run it. Canonical is idempotent —
// o.Canonical(n).Canonical(n) == o.Canonical(n) — so running the
// canonical form performs the search the caller asked for. Every
// negative MaxCNOTs canonicalizes to -1; a canonical MaxCNOTs is never 0.
func (o Options) Canonical(n int) Options {
	o.defaults(n)
	return o
}

func (o *Options) defaults(n int) {
	if o.Threshold == 0 {
		o.Threshold = 1e-6
	}
	switch {
	case o.MaxCNOTs == 0:
		// A generous universal budget: 3·(4^n - 3n - 1)/4 CNOTs suffice
		// for any n-qubit unitary; round up a little.
		o.MaxCNOTs = (1<<(2*n))*3/4 + 1
	case o.MaxCNOTs < 0:
		// -1 is the canonical "no CNOT layers": it must not collapse to
		// 0, or a second defaults pass would read it as the universal
		// budget.
		o.MaxCNOTs = -1
	}
	if o.Beam == 0 {
		o.Beam = 2
	}
	if o.ReseedEvery == 0 {
		o.ReseedEvery = 3
	}
	if o.Restarts == 0 {
		o.Restarts = 1
	}
	if o.KeepPerDepth == 0 {
		o.KeepPerDepth = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

type node struct {
	a      *ansatz
	params []float64
	dist   float64
}

// Synthesize searches for circuits implementing the target unitary.
// The target dimension must be a power of two (2^n for n qubits, n ≥ 1).
func Synthesize(target *linalg.Matrix, opts Options) (Result, error) {
	return SynthesizeCtx(context.Background(), target, opts)
}

// SynthesizeCtx is Synthesize under a context. Cancellation is checked
// at every search-tree node and inside the optimizer inner loops; when
// ctx expires the candidates harvested so far are returned together with
// a typed, wrapped budget error (errors.Is ErrDeadline / ErrCancelled),
// so callers can keep partial approximation sets. When nothing was
// harvested yet, only the error is returned.
//
// When ctx comes from a par.Pool slot (par.PoolFrom), each depth's
// optimizer runs are shared with slots of that pool that are idle at the
// time (see optimizeLevel). The Result is bit-identical with or without
// a pool, for every pool size and interleaving.
func SynthesizeCtx(ctx context.Context, target *linalg.Matrix, opts Options) (Result, error) {
	if !target.IsSquare() {
		return Result{}, fmt.Errorf("synth: target is %dx%d, want square", target.Rows, target.Cols)
	}
	n := 0
	for 1<<n < target.Rows {
		n++
	}
	if 1<<n != target.Rows || n < 1 {
		return Result{}, fmt.Errorf("synth: target dimension %d is not 2^n", target.Rows)
	}
	if !target.IsUnitary(1e-8) {
		return Result{}, fmt.Errorf("synth: target is not unitary")
	}
	opts.defaults(n)

	pairs := opts.CouplingPairs
	if pairs == nil {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}

	s := &search{
		ctx:     ctx,
		rng:     rand.New(rand.NewSource(opts.Seed)),
		starts:  1 + opts.Restarts,
		lender:  par.PoolFrom(ctx),
		target:  target,
		h:       &harvester{keep: opts.KeepPerDepth},
		scratch: []*objPool{newObjPool(target)},
	}
	finish := func(stopErr error) (Result, error) {
		res, ok := s.h.result()
		res.Evaluations = s.evals
		if stopErr != nil {
			if !ok {
				return Result{}, fmt.Errorf("synth: %w", stopErr)
			}
			return res, fmt.Errorf("synth: %w", stopErr)
		}
		if !ok {
			return Result{}, fmt.Errorf("synth: no candidates produced")
		}
		return res, nil
	}

	// Depth 0: the rotation-only seed, a one-node level.
	beam, stopErr := s.optimizeLevel([]pending{{a: newSeedAnsatz(n)}})
	if stopErr != nil {
		return finish(stopErr)
	}
	found := beam[0].dist < opts.Threshold

	var level []pending
	for depth := 1; depth <= opts.MaxCNOTs; depth++ {
		if found && !opts.HarvestAll {
			break
		}
		level = level[:0]
		for _, parent := range beam {
			for _, pr := range pairs {
				level = append(level, pending{a: parent.a.withLayer(pr[0], pr[1]), warm: parent.params})
			}
		}
		children, err := s.optimizeLevel(level)
		if err != nil {
			stopErr = err
			break
		}
		for _, nd := range children {
			if nd.dist < opts.Threshold {
				found = true
			}
		}
		sort.Slice(children, func(i, j int) bool { return children[i].dist < children[j].dist })
		width := opts.Beam
		if depth%opts.ReseedEvery == 0 {
			width = 1 // LEAP-style prefix fixing
		}
		if width > len(children) {
			width = len(children)
		}
		beam = children[:width]
	}

	return finish(stopErr)
}

// pending is a tree node awaiting optimization: its template and the
// parent's parameters it warm-starts from (nil for the root).
type pending struct {
	a    *ansatz
	warm []float64
}

// run is one L-BFGS optimization of a depth: one start of one node.
type run struct {
	a  *ansatz
	x0 []float64
}

// runResult is a run's outcome. A *par.PanicError err is a panic
// recovered on a helper.
type runResult struct {
	res opt.Result
	err error
}

// search is the state of one SynthesizeCtx call. Its buffers are reused
// from depth to depth.
type search struct {
	ctx    context.Context
	rng    *rand.Rand
	starts int
	// lender is the pool the caller runs under (nil: no pool). Helpers
	// only ever TryAcquire from it.
	lender *par.Pool
	target *linalg.Matrix
	h      *harvester
	evals  int
	// scratch[0] is the calling goroutine's objective scratch and
	// scratch[w] helper w's, built the first time helper w runs.
	scratch []*objPool
	runs    []run
	results []runResult
	x0      []float64 // backing store of every run's start point
	// Per-depth coordination of runAll's workers.
	next    atomic.Int64 // next run index to claim
	stop    atomic.Bool  // a run failed (or the caller panicked)
	helpers sync.WaitGroup
}

// optimizeLevel optimizes every node of one depth and harvests them. It
// returns the optimized nodes in level order, or the first error in
// node/start order (with the nodes before it harvested, as a sequential
// search would have left them). It works in three steps:
//
//  1. Draw, sequentially and in level order: the per-node budget check
//     and fault site, then every start point from the search RNG. No
//     draw depends on an optimization result, so the RNG stream is the
//     one a node-by-node search consumes.
//  2. Run the depth's independent L-BFGS runs on the calling goroutine
//     plus helpers on idle slots of the lender pool (runAll).
//  3. Fold the run results in node/start order with the best-of-starts
//     rule, summing evaluations and stopping at the first error.
//
// Each run's result depends only on its template, start point and the
// target — never on which goroutine or scratch computed it — and the
// fold reads them in a fixed order, so the harvest, the beam and the
// evaluation count are bit-identical for every pool size and
// interleaving.
func (s *search) optimizeLevel(level []pending) ([]node, error) {
	// 1. Draw.
	size := 0
	for _, p := range level {
		size += s.starts * p.a.nparams
	}
	if cap(s.x0) < size {
		s.x0 = make([]float64, size)
	}
	buf := s.x0[:size]
	s.runs = s.runs[:0]
	var drawErr error
	drawn := 0
	for _, p := range level {
		if drawErr = budget.Check(s.ctx); drawErr == nil {
			drawErr = faultinject.Fire("synth.optimize")
		}
		if drawErr != nil {
			break
		}
		for st := 0; st < s.starts; st++ {
			x0 := buf[:p.a.nparams:p.a.nparams]
			buf = buf[p.a.nparams:]
			if st == 0 && p.warm != nil {
				copy(x0, p.warm)
				// Perturb the fresh (uninitialized) tail slightly so new
				// rotations start near identity but break symmetry.
				for i := len(p.warm); i < len(x0); i++ {
					x0[i] = s.rng.NormFloat64() * 0.1
				}
			} else {
				for i := range x0 {
					x0[i] = s.rng.Float64()*2*math.Pi - math.Pi
				}
			}
			s.runs = append(s.runs, run{a: p.a, x0: x0})
		}
		drawn++
	}

	// 2. Run.
	s.runAll()

	// 3. Fold.
	nodes := make([]node, 0, drawn)
	for i := 0; i < drawn; i++ {
		best := node{a: level[i].a, dist: math.Inf(1)}
		for st := 0; st < s.starts; st++ {
			r := &s.results[i*s.starts+st]
			if pe, ok := r.err.(*par.PanicError); ok {
				panic(pe)
			}
			s.evals += r.res.Evaluations
			if r.res.F < best.dist*best.dist || best.params == nil {
				d := math.Sqrt(math.Max(0, r.res.F))
				if d < best.dist {
					best.dist = d
					best.params = r.res.X
				}
			}
			if r.err != nil {
				s.h.add(best, s.target)
				return nodes, r.err
			}
		}
		s.h.add(best, s.target)
		nodes = append(nodes, best)
	}
	return nodes, drawErr
}

// runAll executes s.runs into s.results. The calling goroutine always
// works; without a lender pool it works alone. With one, up to Size()-1
// helpers join it, each on a slot taken with TryAcquire — only a slot
// that is idle right now, never a wait, so lending cannot deadlock and
// the pool never has more than Size() busy slots. Workers claim runs in
// index order and stop claiming after a failed run; every run before the
// first failure has then been claimed, so the fold never reads an
// unclaimed slot. A helper's panic is recovered into its run's result
// (as a *par.PanicError, re-raised by the fold on the calling
// goroutine); a panic on the calling goroutine stops the helpers and
// waits for them before it propagates, so every borrowed slot is back by
// the time runAll returns or unwinds.
func (s *search) runAll() {
	n := len(s.runs)
	if cap(s.results) < n {
		s.results = make([]runResult, n)
	}
	s.results = s.results[:n]
	clear(s.results)
	s.next.Store(0)
	s.stop.Store(false)

	defer s.helpers.Wait()
	// Also on a panic of the caller's: helpers stop claiming runs.
	defer s.stop.Store(true)
	if s.lender != nil {
		for w := 1; w < n && w < s.lender.Size(); w++ {
			if !s.lender.TryAcquire() {
				break
			}
			if w == len(s.scratch) {
				s.scratch = append(s.scratch, s.scratch[0].sibling())
			}
			s.helpers.Add(1)
			go func(w int, sc *objPool) {
				defer s.helpers.Done()
				defer s.lender.Release()
				s.work(w, sc)
			}(w, s.scratch[w])
		}
	}
	s.work(0, s.scratch[0])
}

// work claims and executes runs until none are left or one has failed.
func (s *search) work(worker int, sc *objPool) {
	for !s.stop.Load() {
		i := int(s.next.Add(1)) - 1
		if i >= len(s.runs) {
			return
		}
		s.results[i] = s.execute(worker, sc, i)
		if s.results[i].err != nil {
			s.stop.Store(true)
		}
	}
}

// execute performs run i on worker's scratch. Helpers (worker > 0) run
// it under the panic isolation of a pool slot and fire the
// "synth.helper.run" fault site first.
func (s *search) execute(worker int, sc *objPool, i int) (r runResult) {
	if worker > 0 {
		defer func() {
			if v := recover(); v != nil {
				r = runResult{err: &par.PanicError{Worker: worker, Index: i, Value: v, Stack: debug.Stack()}}
			}
		}()
		if err := faultinject.Fire("synth.helper.run"); err != nil {
			return runResult{err: err}
		}
	}
	ru := &s.runs[i]
	obj := newObjectiveFrom(sc, ru.a)
	r.res, r.err = opt.LBFGSCtx(s.ctx, obj.valueGrad, ru.x0, opt.LBFGSOptions{MaxIterations: 150})
	return r
}

// harvester retains the best candidates per CNOT count.
type harvester struct {
	keep    int
	byDepth map[int][]Candidate
}

func (h *harvester) add(nd node, target *linalg.Matrix) {
	if nd.params == nil {
		return
	}
	if h.byDepth == nil {
		h.byDepth = map[int][]Candidate{}
	}
	c := Candidate{
		Circuit:  nd.a.toCircuit(nd.params),
		Distance: nd.dist,
		CNOTs:    nd.a.cnotCount(),
	}
	lst := append(h.byDepth[c.CNOTs], c)
	sort.Slice(lst, func(i, j int) bool { return lst[i].Distance < lst[j].Distance })
	if len(lst) > h.keep {
		lst = lst[:h.keep]
	}
	h.byDepth[c.CNOTs] = lst
}

// result assembles the harvested candidates. ok is false when nothing
// was harvested (e.g. the search was cancelled before the first node
// finished optimizing).
func (h *harvester) result() (_ Result, ok bool) {
	var all []Candidate
	for _, lst := range h.byDepth {
		all = append(all, lst...)
	}
	if len(all) == 0 {
		return Result{}, false
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].CNOTs != all[j].CNOTs {
			return all[i].CNOTs < all[j].CNOTs
		}
		return all[i].Distance < all[j].Distance
	})
	best := all[0]
	for _, c := range all[1:] {
		if c.Distance < best.Distance-1e-15 {
			best = c
		}
	}
	return Result{Best: best, Candidates: all}, true
}
