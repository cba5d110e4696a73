// Package anneal implements the dual annealing global minimizer QUEST uses
// to search the block-approximation selection space (Sec. 3.6): classical
// generalized simulated annealing (GSA) with the Tsallis heavy-tailed
// visiting distribution, a generalized Metropolis acceptance rule, periodic
// reannealing restarts, and an optional Nelder-Mead local-search phase —
// the "dual" in dual annealing.
package anneal

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/budget"
	"repro/internal/opt"
)

// Options configures Minimize. The zero value selects defaults matching
// SciPy's dual_annealing.
type Options struct {
	// MaxIterations is the number of annealing iterations (default 1000).
	MaxIterations int
	// InitialTemp is the starting visiting temperature (default 5230).
	InitialTemp float64
	// RestartTempRatio triggers a reannealing restart when the
	// temperature falls below InitialTemp·ratio (default 2e-5).
	RestartTempRatio float64
	// Visit is the Tsallis visiting parameter q_v in (1, 3] (default 2.62).
	Visit float64
	// Accept is the acceptance parameter q_a (default -5).
	Accept float64
	// Seed makes the search deterministic (default 1).
	Seed int64
	// NoLocalSearch disables the Nelder-Mead refinement phase.
	NoLocalSearch bool
}

func (o *Options) defaults() {
	if o.MaxIterations == 0 {
		o.MaxIterations = 1000
	}
	if o.InitialTemp == 0 {
		o.InitialTemp = 5230
	}
	if o.RestartTempRatio == 0 {
		o.RestartTempRatio = 2e-5
	}
	if o.Visit == 0 {
		o.Visit = 2.62
	}
	if o.Accept == 0 {
		o.Accept = -5.0
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Minimize searches for the global minimum of f over the box
// [lower[i], upper[i]]^d and returns the best point found.
func Minimize(f opt.Objective, lower, upper []float64, o Options) opt.Result {
	res, _ := MinimizeCtx(context.Background(), f, lower, upper, o)
	return res
}

// MinimizeCtx is Minimize under a context: cancellation is checked at
// every annealing iteration and inside the local-search phase. When ctx
// expires the best point found so far is returned together with the
// typed budget error, so callers can still use the partial optimum.
// Malformed bounds panic exactly as in Minimize (programmer error, not
// input error). The slice passed to f is reused between evaluations and
// must not be retained.
func MinimizeCtx(ctx context.Context, f opt.Objective, lower, upper []float64, o Options) (opt.Result, error) {
	if len(lower) != len(upper) {
		panic("anneal: bound length mismatch")
	}
	for i := range lower {
		if lower[i] > upper[i] {
			panic("anneal: lower > upper")
		}
	}
	o.defaults()
	d := len(lower)
	rng := rand.New(rand.NewSource(o.Seed))
	evals := 0
	eval := func(x []float64) float64 {
		evals++
		return f(x)
	}

	randomPoint := func() []float64 {
		x := make([]float64, d)
		for i := range x {
			x[i] = lower[i] + rng.Float64()*(upper[i]-lower[i])
		}
		return x
	}

	cur := randomPoint()
	fCur := eval(cur)
	best := append([]float64(nil), cur...)
	fBest := fCur
	sched := scheduleFor(o.InitialTemp, o.Visit)
	vis := sched.vis
	var steps []step

	cand := make([]float64, d)
	iterations := 0
	sinceRestart := 0
	var stopErr error
	for it := 0; it < o.MaxIterations; it++ {
		if stopErr = budget.Check(ctx); stopErr != nil {
			break
		}
		iterations++
		sinceRestart++
		if sinceRestart >= len(steps) {
			steps = sched.upTo(sinceRestart)
		}
		temp := steps[sinceRestart].temp
		if temp < o.InitialTemp*o.RestartTempRatio {
			// Reannealing restart from a fresh random point.
			cur = randomPoint()
			fCur = eval(cur)
			sinceRestart = 0
			continue
		}

		// Visiting step: perturb every dimension with a Tsallis-
		// distributed jump, wrapped into the bounds (as SciPy does).
		vis.sigmax = steps[sinceRestart].sigmax
		for i := 0; i < d; i++ {
			span := upper[i] - lower[i]
			if span == 0 {
				cand[i] = lower[i]
				continue
			}
			cand[i] = lower[i] + wrap(cur[i]+vis.step(rng)-lower[i], span)
		}
		fCand := eval(cand)

		accept := false
		if fCand <= fCur {
			accept = true
		} else {
			// Generalized Metropolis rule with parameter q_a < 1.
			base := 1 - (1-o.Accept)*(fCand-fCur)/temp
			if base > 0 {
				p := math.Pow(base, 1/(1-o.Accept))
				accept = rng.Float64() < p
			}
		}
		if accept {
			copy(cur, cand)
			fCur = fCand
			if fCur < fBest {
				fBest = fCur
				copy(best, cur)
				if !o.NoLocalSearch {
					// Dual phase: refine the new incumbent locally.
					res, lsErr := localSearch(ctx, eval, best, lower, upper)
					if res.F < fBest {
						fBest = res.F
						copy(best, res.X)
					}
					if lsErr != nil {
						stopErr = lsErr
						break
					}
				}
			}
		}
	}
	if !o.NoLocalSearch && stopErr == nil {
		res, lsErr := localSearch(ctx, eval, best, lower, upper)
		if res.F < fBest {
			fBest = res.F
			copy(best, res.X)
		}
		stopErr = lsErr
	}
	out := opt.Result{X: best, F: fBest, Iterations: iterations, Evaluations: evals, Converged: stopErr == nil}
	return out, stopErr
}

// localSearch runs a bound-clamped Nelder-Mead from x0. The clamp
// buffer is shared by every evaluation: f never retains its argument.
func localSearch(ctx context.Context, f opt.Objective, x0, lower, upper []float64) (opt.Result, error) {
	y := make([]float64, len(x0))
	clamped := func(x []float64) float64 {
		for i := range x {
			y[i] = math.Max(lower[i], math.Min(upper[i], x[i]))
		}
		return f(y)
	}
	res, err := nelderMeadStepScaledCtx(ctx, clamped, x0, lower, upper)
	for i := range res.X {
		res.X[i] = math.Max(lower[i], math.Min(upper[i], res.X[i]))
	}
	return res, err
}

// nelderMeadStepScaledCtx runs Nelder-Mead with the initial simplex
// scaled to a fraction of each dimension's range.
func nelderMeadStepScaledCtx(ctx context.Context, f opt.Objective, x0, lower, upper []float64) (opt.Result, error) {
	span := 0.0
	for i := range lower {
		span += upper[i] - lower[i]
	}
	step := 0.1
	if len(lower) > 0 {
		step = 0.1 * span / float64(len(lower))
	}
	if step <= 0 {
		step = 0.1
	}
	return opt.NelderMeadCtx(ctx, f, x0, opt.NelderMeadOptions{InitialStep: step, MaxIterations: 100 * (len(x0) + 1)})
}

// step is one entry of an annealing schedule: the visiting temperature
// and the visiting scale sigmax at t iterations since the last restart.
type step struct {
	temp, sigmax float64
}

// schedule is the annealing schedule of one (InitialTemp, Visit) pair.
// Both entries of step t depend on nothing else, so every MinimizeCtx
// call with that pair reads one shared table instead of evaluating Pow,
// Exp, Log and Sqrt on every iteration. The table only ever grows: upTo
// publishes a longer copy, and a slice handed out earlier stays valid
// and unchanged.
type schedule struct {
	temp0, qv float64
	vis       visiting // the qv-only factors; sigmax unset
	mu        sync.Mutex
	steps     atomic.Pointer[[]step]
}

// schedules maps a (InitialTemp, Visit) pair, as float bits, to its
// *schedule.
var schedules sync.Map

func scheduleFor(temp0, qv float64) *schedule {
	key := [2]uint64{math.Float64bits(temp0), math.Float64bits(qv)}
	if s, ok := schedules.Load(key); ok {
		return s.(*schedule)
	}
	s, _ := schedules.LoadOrStore(key, &schedule{temp0: temp0, qv: qv, vis: newVisiting(qv)})
	return s.(*schedule)
}

// upTo returns the schedule for t = 0..n at least. Entry t is the
// reference per-iteration formula, evaluated in the reference order:
//
//	temp   = InitialTemp · (2^(qv−1) − 1) / ((t+1)^(qv−1) − 1)
//	sigmax = visiting.sigmaxAt(temp)
//
// so reading it is bit-identical to computing it inside the loop.
func (s *schedule) upTo(n int) []step {
	if p := s.steps.Load(); p != nil && len(*p) > n {
		return *p
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var old []step
	if p := s.steps.Load(); p != nil {
		old = *p
	}
	if len(old) > n {
		return old
	}
	steps := make([]step, max(n+1, 2*len(old), 64))
	copy(steps, old)
	tq := math.Exp2(s.qv-1) - 1 // t-dependence constant
	for t := len(old); t < len(steps); t++ {
		temp := s.temp0 * tq / (math.Pow(float64(t)+1, s.qv-1) - 1)
		steps[t] = step{temp: temp, sigmax: s.vis.sigmaxAt(temp)}
	}
	s.steps.Store(&steps)
	return steps
}

// visiting is the Tsallis visiting distribution for visiting parameter
// qv (Tsallis & Stariolo 1996, as implemented in SciPy's dual_annealing
// VisitingDistribution). The factors that depend only on qv are computed
// once per (InitialTemp, Visit) schedule by newVisiting; sigmax, the
// only temperature-dependent one, once per schedule step by sigmaxAt.
// Every expression is the reference formula evaluated in the reference
// order, so the draws are bit-identical to recomputing all factors for
// every coordinate.
type visiting struct {
	qv1, qv3                  float64 // qv-1 and 3-qv
	factor2, factor3, factor6 float64
	sigmax                    float64
}

func newVisiting(qv float64) visiting {
	factor2 := math.Exp((4 - qv) * math.Log(qv-1))
	factor3 := math.Exp((2 - qv) * math.Ln2 / (qv - 1))
	factor5 := 1/(qv-1) - 0.5
	d1 := 2 - factor5
	lg, _ := math.Lgamma(d1)
	factor6 := math.Pi * (1 - factor5) / math.Sin(math.Pi*(1-factor5)) / math.Exp(lg)
	return visiting{qv1: qv - 1, qv3: 3 - qv, factor2: factor2, factor3: factor3, factor6: factor6}
}

// sigmaxAt returns the visiting scale at temperature temp.
func (v *visiting) sigmaxAt(temp float64) float64 {
	factor1 := math.Exp(math.Log(temp) / v.qv1)
	factor4 := math.Sqrt(math.Pi) * factor1 * v.factor2 / (v.factor3 * v.qv3)
	return math.Exp(-v.qv1 * math.Log(v.factor6/factor4) / v.qv3)
}

// step draws one coordinate of the visiting distribution.
func (v *visiting) step(rng *rand.Rand) float64 {
	x := v.sigmax * rng.NormFloat64()
	y := rng.NormFloat64()
	den := math.Exp(v.qv1 * math.Log(math.Abs(y)) / v.qv3)
	s := x / den
	// Guard against the heavy tail producing non-finite or huge steps.
	const tailLimit = 1e8
	switch {
	case math.IsNaN(s) || math.IsInf(s, 0):
		return tailLimit * (rng.Float64()*2 - 1)
	case s > tailLimit:
		return tailLimit * rng.Float64()
	case s < -tailLimit:
		return -tailLimit * rng.Float64()
	}
	return s
}

// wrap reduces x into [0, span] for span > 0 (x + span can round up to
// span itself, the closed upper bound), bit-identical to
//
//	r := math.Mod(x, span); if r < 0 { r += span }
//
// Each fast path is exact: x already in range is returned as is; x in
// [span, 2·span) gives x − span, exact by Sterbenz's lemma (2·span
// overflowing to +Inf only widens the case, and the lemma still holds);
// x in (−span, 0) is the reference's own x + span (math.Mod returns such
// an x unchanged). The far tail goes through fmod, which like math.Mod
// is exact, so the results agree bit for bit.
func wrap(x, span float64) float64 {
	switch {
	case x >= 0 && x < span:
		return x
	case x >= span && x < 2*span:
		return x - span
	case x < 0 && x > -span:
		return x + span
	}
	r := fmod(x, span)
	if r < 0 {
		r += span
	}
	return r
}

// fmod is math.Mod(x, y) computed on the integer mantissas: with
// x = mx·2^ex and y = my·2^ey (ex >= ey), x mod y = ((mx·2^(ex−ey)) mod my)·2^ey,
// reduced eleven exponent bits per 64-bit remainder so r<<s never
// overflows (r < my < 2^53). math.Mod instead subtracts once per bit of
// exponent difference, which the annealer's 1e8-wide tail makes long.
// Non-finite or subnormal operands, and y <= 0, fall back to math.Mod.
func fmod(x, y float64) float64 {
	const mant = 1<<52 - 1
	bx, by := math.Float64bits(x), math.Float64bits(y)
	ex, ey := int(bx>>52&0x7ff), int(by>>52&0x7ff)
	if y <= 0 || ex == 0 || ey == 0 || ex == 0x7ff || ey == 0x7ff {
		return math.Mod(x, y)
	}
	if ex < ey {
		return x // |x| < y
	}
	my := by&mant | 1<<52
	r := (bx&mant | 1<<52) % my
	for e := ex - ey; e > 0; {
		s := min(e, 11)
		r = (r << s) % my
		e -= s
	}
	return math.Copysign(math.Ldexp(float64(r), ey-1075), x)
}
