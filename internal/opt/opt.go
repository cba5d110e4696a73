// Package opt implements the numerical minimizers used by the synthesis
// engine and the dual annealing local-search phase: limited-memory BFGS
// with a weak-Wolfe line search, Nelder-Mead simplex search, the Adam
// stochastic-gradient method, and a finite-difference gradient fallback.
//
// Every minimizer has a context-aware form (LBFGSCtx, NelderMeadCtx,
// AdamCtx) that checks cancellation at iteration boundaries and, when cut
// short, returns the best point found so far together with the typed
// budget error — the pipeline's contract for partial results under
// deadlines.
package opt

import (
	"context"
	"math"
	"slices"

	"repro/internal/budget"
	"repro/internal/faultinject"
)

// Objective is a scalar function of a parameter vector.
type Objective func(x []float64) float64

// Gradient evaluates the objective and writes its gradient into grad,
// returning the function value.
type Gradient func(x, grad []float64) float64

// Result reports the outcome of a minimization.
type Result struct {
	// X is the best parameter vector found.
	X []float64
	// F is the objective value at X.
	F float64
	// Iterations is the number of outer iterations performed.
	Iterations int
	// Evaluations counts objective (or objective+gradient) evaluations.
	Evaluations int
	// Converged reports whether a convergence tolerance was met (as
	// opposed to hitting the iteration budget).
	Converged bool
}

// NumericGradient wraps an Objective as a Gradient using central
// differences with step h.
//
// Concurrency contract: perturbed evaluations happen on a private copy of
// x, so the caller's slice is never mutated — not even transiently — and
// the returned Gradient may be shared across goroutines as long as f
// itself is safe for concurrent use (objectives that own scratch buffers,
// like synth's, are not; see internal/synth/objective.go).
func NumericGradient(f Objective, h float64) Gradient {
	return func(x, grad []float64) float64 {
		fx := f(x)
		probe := append([]float64(nil), x...)
		for i := range probe {
			orig := probe[i]
			probe[i] = orig + h
			fp := f(probe)
			probe[i] = orig - h
			fm := f(probe)
			probe[i] = orig
			grad[i] = (fp - fm) / (2 * h)
		}
		return fx
	}
}

// LBFGSOptions configures LBFGS. The zero value selects sensible defaults.
type LBFGSOptions struct {
	// MaxIterations bounds the outer loop (default 200).
	MaxIterations int
	// GradTolerance stops when the gradient inf-norm falls below it
	// (default 1e-9).
	GradTolerance float64
	// FTolerance stops when the relative objective decrease falls below
	// it (default 1e-12).
	FTolerance float64
	// Memory is the number of correction pairs kept (default 8).
	Memory int
}

func (o *LBFGSOptions) defaults() {
	if o.MaxIterations == 0 {
		o.MaxIterations = 200
	}
	if o.GradTolerance == 0 {
		o.GradTolerance = 1e-9
	}
	if o.FTolerance == 0 {
		o.FTolerance = 1e-12
	}
	if o.Memory == 0 {
		o.Memory = 8
	}
}

// LBFGS minimizes g starting from x0 using limited-memory BFGS with a
// weak-Wolfe bisection line search. x0 is not modified.
func LBFGS(g Gradient, x0 []float64, opts LBFGSOptions) Result {
	res, _ := LBFGSCtx(context.Background(), g, x0, opts)
	return res
}

// LBFGSCtx is LBFGS under a context: cancellation is checked at every
// outer iteration and every line-search evaluation. When ctx expires the
// best point found so far is returned together with the typed budget
// error (ErrDeadline or ErrCancelled).
func LBFGSCtx(ctx context.Context, g Gradient, x0 []float64, opts LBFGSOptions) (Result, error) {
	opts.defaults()
	n := len(x0)
	x := append([]float64(nil), x0...)
	grad := make([]float64, n)
	f := g(x, grad)
	evals := 1

	type pair struct {
		s, y []float64
		rho  float64
	}
	var hist []pair
	dir := make([]float64, n)
	xNew := make([]float64, n)
	gradNew := make([]float64, n)
	alphas := make([]float64, 0, opts.Memory+1)
	// Evicted correction pairs are recycled for the next accepted step so
	// the steady-state iteration allocates nothing.
	var spareS, spareY []float64

	res := Result{X: append([]float64(nil), x...), F: f}
	var stopErr error
outer:
	for iter := 0; iter < opts.MaxIterations; iter++ {
		res.Iterations = iter + 1
		if stopErr = budget.Check(ctx); stopErr == nil {
			stopErr = faultinject.Fire("opt.lbfgs")
		}
		if stopErr != nil {
			break
		}
		if infNorm(grad) < opts.GradTolerance {
			res.Converged = true
			break
		}
		// Two-loop recursion computes dir = -H grad.
		copy(dir, grad)
		alphas = alphas[:len(hist)]
		for i := len(hist) - 1; i >= 0; i-- {
			p := hist[i]
			alphas[i] = p.rho * dot(p.s, dir)
			axpy(dir, -alphas[i], p.y)
		}
		if len(hist) > 0 {
			last := hist[len(hist)-1]
			gamma := dot(last.s, last.y) / dot(last.y, last.y)
			scale(dir, gamma)
		}
		for i := 0; i < len(hist); i++ {
			p := hist[i]
			beta := p.rho * dot(p.y, dir)
			axpy(dir, alphas[i]-beta, p.s)
		}
		neg(dir)

		d0 := dot(grad, dir)
		if d0 >= 0 {
			// Not a descent direction; reset to steepest descent.
			copy(dir, grad)
			neg(dir)
			d0 = -dot(grad, grad)
			hist = hist[:0]
		}

		// Weak-Wolfe bisection line search (guarantees s·y > 0 so the
		// curvature pairs are useful).
		const (
			c1 = 1e-4
			c2 = 0.9
		)
		lo, hi := 0.0, math.Inf(1)
		step := 1.0
		var fNew float64
		accepted := false
		for ls := 0; ls < 50; ls++ {
			if stopErr = budget.Check(ctx); stopErr != nil {
				break outer
			}
			for i := range x {
				xNew[i] = x[i] + step*dir[i]
			}
			fNew = g(xNew, gradNew)
			evals++
			if fNew > f+c1*step*d0 || math.IsNaN(fNew) {
				hi = step
				step = (lo + hi) / 2
				continue
			}
			if dot(gradNew, dir) < c2*d0 {
				lo = step
				if math.IsInf(hi, 1) {
					step *= 2
				} else {
					step = (lo + hi) / 2
				}
				continue
			}
			accepted = true
			break
		}
		if !accepted {
			if fNew >= f {
				res.Converged = true // no progress possible along dir
				break
			}
			// Wolfe failed but we still decreased; take the step.
		}

		// Update history.
		s, y := spareS, spareY
		spareS, spareY = nil, nil
		if s == nil {
			s = make([]float64, n)
			y = make([]float64, n)
		}
		for i := range x {
			s[i] = xNew[i] - x[i]
			y[i] = gradNew[i] - grad[i]
		}
		sy := dot(s, y)
		if sy > 1e-12 {
			hist = append(hist, pair{s: s, y: y, rho: 1 / sy})
			if len(hist) > opts.Memory {
				spareS, spareY = hist[0].s, hist[0].y
				hist = hist[1:]
			}
		} else {
			spareS, spareY = s, y
		}
		rel := math.Abs(f-fNew) / math.Max(1, math.Abs(f))
		copy(x, xNew)
		copy(grad, gradNew)
		f = fNew
		if f < res.F {
			res.F = f
			copy(res.X, x)
		}
		if rel < opts.FTolerance {
			res.Converged = true
			break
		}
	}
	if f < res.F {
		res.F = f
		copy(res.X, x)
	}
	res.Evaluations = evals
	return res, stopErr
}

// NelderMeadOptions configures NelderMead. The zero value selects defaults.
type NelderMeadOptions struct {
	// MaxIterations bounds the outer loop (default 400·dim).
	MaxIterations int
	// FTolerance stops when the simplex's objective spread falls below it
	// (default 1e-10).
	FTolerance float64
	// InitialStep is the simplex edge length (default 0.5).
	InitialStep float64
}

// NelderMead minimizes f with the downhill-simplex method starting from
// x0. x0 is not modified.
func NelderMead(f Objective, x0 []float64, opts NelderMeadOptions) Result {
	res, _ := NelderMeadCtx(context.Background(), f, x0, opts)
	return res
}

// NelderMeadCtx is NelderMead under a context: cancellation is checked at
// every outer iteration; when ctx expires the best simplex vertex found
// so far is returned together with the typed budget error.
func NelderMeadCtx(ctx context.Context, f Objective, x0 []float64, opts NelderMeadOptions) (Result, error) {
	n := len(x0)
	if opts.MaxIterations == 0 {
		opts.MaxIterations = 400 * (n + 1)
	}
	if opts.FTolerance == 0 {
		opts.FTolerance = 1e-10
	}
	if opts.InitialStep == 0 {
		opts.InitialStep = 0.5
	}
	if n == 0 {
		return Result{X: nil, F: f(nil), Evaluations: 1, Converged: true}, nil
	}

	type vertex struct {
		x []float64
		f float64
	}
	// byF orders vertices by f. slices.SortFunc only asks whether
	// byF(a, b) < 0, exactly sort.Slice's less(a, b), and runs the same
	// pdqsort, so the permutation matches sort.Slice's without its
	// per-call reflect swapper.
	byF := func(a, b vertex) int {
		switch {
		case a.f < b.f:
			return -1
		case b.f < a.f:
			return 1
		}
		return 0
	}
	evals := 0
	eval := func(x []float64) float64 {
		evals++
		return f(x)
	}

	simplex := make([]vertex, n+1)
	simplex[0] = vertex{x: append([]float64(nil), x0...)}
	simplex[0].f = eval(simplex[0].x)
	for i := 1; i <= n; i++ {
		x := append([]float64(nil), x0...)
		x[i-1] += opts.InitialStep
		simplex[i] = vertex{x: x, f: eval(x)}
	}

	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)
	centroid := make([]float64, n)
	refl := make([]float64, n)
	exp2 := make([]float64, n)
	cont := make([]float64, n)

	var res Result
	var stopErr error
	for iter := 0; iter < opts.MaxIterations; iter++ {
		res.Iterations = iter + 1
		if stopErr = budget.Check(ctx); stopErr != nil {
			break
		}
		slices.SortFunc(simplex, byF)
		if math.Abs(simplex[n].f-simplex[0].f) < opts.FTolerance {
			res.Converged = true
			break
		}
		for i := range centroid {
			centroid[i] = 0
		}
		for _, v := range simplex[:n] {
			for i, xv := range v.x {
				centroid[i] += xv
			}
		}
		for i := range centroid {
			centroid[i] /= float64(n)
		}
		worst := simplex[n]
		for i := range refl {
			refl[i] = centroid[i] + alpha*(centroid[i]-worst.x[i])
		}
		fr := eval(refl)
		switch {
		case fr < simplex[0].f:
			for i := range exp2 {
				exp2[i] = centroid[i] + gamma*(refl[i]-centroid[i])
			}
			fe := eval(exp2)
			if fe < fr {
				copy(simplex[n].x, exp2)
				simplex[n].f = fe
			} else {
				copy(simplex[n].x, refl)
				simplex[n].f = fr
			}
		case fr < simplex[n-1].f:
			copy(simplex[n].x, refl)
			simplex[n].f = fr
		default:
			for i := range cont {
				cont[i] = centroid[i] + rho*(worst.x[i]-centroid[i])
			}
			fc := eval(cont)
			if fc < worst.f {
				copy(simplex[n].x, cont)
				simplex[n].f = fc
			} else {
				// Shrink toward the best vertex.
				for i := 1; i <= n; i++ {
					for j := range simplex[i].x {
						simplex[i].x[j] = simplex[0].x[j] + sigma*(simplex[i].x[j]-simplex[0].x[j])
					}
					simplex[i].f = eval(simplex[i].x)
				}
			}
		}
	}
	slices.SortFunc(simplex, byF)
	res.X = append([]float64(nil), simplex[0].x...)
	res.F = simplex[0].f
	res.Evaluations = evals
	return res, stopErr
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func axpy(dst []float64, a float64, x []float64) {
	for i := range dst {
		dst[i] += a * x[i]
	}
}

func scale(x []float64, a float64) {
	for i := range x {
		x[i] *= a
	}
}

func neg(x []float64) {
	for i := range x {
		x[i] = -x[i]
	}
}

func infNorm(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}
