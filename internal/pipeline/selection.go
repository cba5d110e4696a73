package pipeline

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"sync"

	"repro/internal/anneal"
	"repro/internal/budget"
	"repro/internal/circuit"
	"repro/internal/faultinject"
	"repro/internal/linalg"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/synth"
)

// blockSimilar implements the paper's similarity criterion for one block:
// two candidates are similar when their mutual distance (pd, the block's
// pair table) does not exceed the larger of their distances to the
// original.
func blockSimilar(cands []synth.Candidate, pd [][]float64, i, j int) bool {
	if i == j {
		return true
	}
	return pd[i][j] <= math.Max(cands[i].Distance, cands[j].Distance)
}

// similarity returns the fraction of blocks on which the two choice
// vectors pick similar candidates (the scalable full-circuit similarity
// of Sec. 3.6); pairs[k] is block k's pair table.
func similarity(blocks []BlockApproximations, pairs [][][]float64, a, b []int) float64 {
	if len(blocks) == 0 {
		return 1
	}
	m := 0
	for k := range blocks {
		if blockSimilar(blocks[k].Candidates, pairs[k], a[k], b[k]) {
			m++
		}
	}
	return float64(m) / float64(len(blocks))
}

// pairTables builds every block's pair table, the pairwise candidate
// distances the similarity rule reads, one block at a time.
func pairTables(blocks []BlockApproximations, parallelism int) [][][]float64 {
	pairs := make([][][]float64, len(blocks))
	for k, ba := range blocks {
		pairs[k] = pairDistances(ba.Candidates, parallelism)
	}
	return pairs
}

// pairDistances computes one block's pair table. Candidate unitaries and
// the upper triangle fan out across workers (each (i, j>i) cell is
// written exactly once); the mirror pass runs after the barrier so it
// only reads completed cells.
func pairDistances(cands []synth.Candidate, parallelism int) [][]float64 {
	us := make([]*linalg.Matrix, len(cands))
	par.ForEach(parallelism, len(us), func(i int) {
		us[i] = sim.Unitary(cands[i].Circuit)
	})
	pd := make([][]float64, len(us))
	for i := range us {
		pd[i] = make([]float64, len(us))
	}
	par.ForEach(parallelism, len(us), func(i int) {
		for j := i + 1; j < len(us); j++ {
			pd[i][j] = linalg.HSDistance(us[i], us[j])
		}
	})
	for i := range us {
		for j := 0; j < i; j++ {
			pd[i][j] = pd[j][i]
		}
	}
	return pd
}

// choiceStats returns the CNOT count and Σε of a choice vector.
func choiceStats(blocks []BlockApproximations, choice []int) (cnots int, epsSum float64) {
	for k, ba := range blocks {
		cand := ba.Candidates[choice[k]]
		cnots += cand.CNOTs
		epsSum += cand.Distance
	}
	return cnots, epsSum
}

// oneQubitGates counts a candidate circuit's one-qubit gates, the third
// aggregate (besides CNOTs and Σε) the pluggable objectives score.
func oneQubitGates(c *circuit.Circuit) int {
	n := 0
	for _, op := range c.Ops {
		if len(op.Qubits) == 1 {
			n++
		}
	}
	return n
}

// selectApproximations runs the dual annealing engine repeatedly,
// implementing Algorithm 1 as the objective, until MaxSamples circuits are
// selected, the engine returns an already-selected circuit, or the ctx
// budget expires. On budget expiry it stops selecting, still guarantees
// at least one (fallback) selection, and returns the typed error so the
// caller can decide whether the partial selection is acceptable.
func selectApproximations(ctx context.Context, sa *SynthesisArtifact, cfg Config) ([]Approximation, error) {
	blocks := sa.Blocks
	threshold := sa.Partition.Threshold
	original := sa.Partition.Original
	nb := len(blocks)
	origCNOTs := original.CNOTCount()
	if origCNOTs == 0 {
		origCNOTs = 1 // avoid division by zero for CNOT-free circuits
	}

	sizes := make([]int, nb)
	g1 := make([][]int, nb)
	for k, ba := range blocks {
		sizes[k] = len(ba.Candidates)
		g1[k] = make([]int, len(ba.Candidates))
		for i, cand := range ba.Candidates {
			g1[k][i] = oneQubitGates(cand.Circuit)
		}
	}

	obj := cfg.Objective
	if obj == nil {
		obj = CNOTObjective()
	}
	info := CircuitInfo{NumQubits: original.NumQubits, OrigCNOTs: origCNOTs}
	stats := func(choice []int) ChoiceStats {
		var st ChoiceStats
		for k, ba := range blocks {
			cand := ba.Candidates[choice[k]]
			st.CNOTs += cand.CNOTs
			st.Gates1Q += g1[k][choice[k]]
			st.EpsSum += cand.Distance
		}
		return st
	}

	var out []Approximation
	var selected [][]int
	// Only the similarity to an already selected sample reads the pair
	// tables, so they are built once the first sample is in, and a run
	// that selects at most one builds none.
	var pairs [][][]float64
	needPairs := func() {
		if pairs == nil {
			pairs = pairTables(blocks, cfg.Parallelism)
		}
	}
	// Algorithm 1: the energy for the next sample given the selected set
	// sel, with the cost term delegated to the pluggable objective. One
	// annealer-friendly refinement over the paper's pseudocode: an
	// infeasible choice scores 1 + (Σε − threshold) instead of a flat
	// 1.0, so the plateau has a slope toward feasibility. Any value > 1
	// is still strictly worse than every feasible choice (objectives
	// score feasible choices in [0,1]), so the selection semantics of
	// Algorithm 1 are unchanged. It reads only sel, pairs and tables
	// fixed before selection starts, so the attempts of one sample may
	// anneal it concurrently.
	energy := func(sel [][]int, pairs [][][]float64, choice []int) float64 {
		st := stats(choice)
		if st.EpsSum > threshold {
			return 1.0 + (st.EpsSum - threshold)
		}
		cost := obj.Cost(st, info)
		if len(sel) == 0 {
			return cost
		}
		m := 0.0
		for _, s := range sel {
			m += similarity(blocks, pairs, choice, s)
		}
		m /= float64(len(sel))
		return (1-cfg.CXWeight)*m + cfg.CXWeight*cost
	}

	// decides is the fold's rule for one attempt's choice: feasible and
	// not already in sel.
	decides := func(sel [][]int, choice []int) bool {
		if _, epsSum := choiceStats(blocks, choice); epsSum > threshold {
			return false // nothing feasible found this attempt
		}
		for _, prev := range sel {
			if slices.Equal(choice, prev) {
				return false
			}
		}
		return true
	}

	helpers := cfg.Scheduler
	if helpers == nil && par.Workers(cfg.Parallelism) > 1 {
		helpers = par.NewPool(par.Workers(cfg.Parallelism) - 1)
	}
	var stopErr error
	for s := 0; s < cfg.MaxSamples; s++ {
		if len(selected) > 0 {
			needPairs()
		}
		// The attempts of sample s read this snapshot only: selected
		// grows after every helper of the sample has been joined.
		sel, pairs := selected[:len(selected):len(selected)], pairs
		var choice []int
		choice, stopErr = selectSample(ctx, helpers, func(ctx context.Context, attempt int) ([]int, error) {
			if faultinject.Enabled() {
				if err := faultinject.Fire(fmt.Sprintf("select.attempt.%d", attempt)); err != nil {
					return nil, err
				}
			}
			r, err := anneal.MinimizeIntsCtx(ctx, func(choice []int) float64 {
				return energy(sel, pairs, choice)
			}, sizes, anneal.Options{
				MaxIterations: cfg.AnnealIterations,
				Seed:          cfg.Seed + int64(s)*104729 + int64(attempt)*1299709,
			})
			return r.X, err
		}, func(choice []int) bool { return decides(sel, choice) })
		if choice == nil {
			// Paper: terminate when the engine keeps returning already
			// selected (or infeasible) circuits.
			break
		}
		selected = append(selected, choice)
		approx, err := assemble(original.NumQubits, blocks, choice)
		if err != nil {
			return out, err
		}
		out = append(out, approx)
	}

	// The annealer terminates when it keeps rediscovering the same
	// choice, which on small circuits can happen after a single sample —
	// leaving no ensemble to average. Greedily augment with the
	// best-scoring feasible single-block deviations so that the output
	// rule has dissimilar samples to work with whenever they exist.
	for stopErr == nil && len(selected) > 0 && len(selected) < cfg.MaxSamples {
		if stopErr = budget.Check(ctx); stopErr != nil {
			break
		}
		needPairs()
		bestScore := math.Inf(1)
		var best []int
		for _, base := range selected {
			for b := range blocks {
				for i := range blocks[b].Candidates {
					if i == base[b] {
						continue
					}
					cand := append([]int(nil), base...)
					cand[b] = i
					if !decides(selected, cand) {
						continue
					}
					if score := energy(selected, pairs, cand); score < bestScore {
						bestScore = score
						best = cand
					}
				}
			}
		}
		if best == nil {
			break // space exhausted
		}
		selected = append(selected, best)
		approx, err := assemble(original.NumQubits, blocks, best)
		if err != nil {
			return out, err
		}
		out = append(out, approx)
	}

	if len(out) == 0 {
		// Fall back to the per-block best candidates so callers always
		// get at least one approximation (equivalent to a very tight
		// exact synthesis result).
		choice := make([]int, nb)
		for k, ba := range blocks {
			best := 0
			for i, cand := range ba.Candidates {
				if cand.Distance < ba.Candidates[best].Distance {
					best = i
				}
			}
			choice[k] = best
		}
		approx, err := assemble(original.NumQubits, blocks, choice)
		if err != nil {
			return out, err
		}
		out = append(out, approx)
	}
	if stopErr != nil {
		return out, fmt.Errorf("pipeline: select: %w", stopErr)
	}
	return out, nil
}

// dupRetries is how many more times a sample is annealed, each time
// from its own fixed seed, after a run returns an infeasible or already
// selected choice.
const dupRetries = 2

// selectSample folds the annealing attempts 0..dupRetries of one sample
// in order: it returns the choice of the first attempt that decides
// accepts, nil when none does, or the error of the first attempt that
// failed before one was accepted. run(ctx, a) must depend only on a, so
// the fold reads the same results in the same order for any number of
// helpers.
//
// While the calling goroutine runs (or waits for) attempt a, attempt a+1
// anneals on a helper goroutine if helpers has a slot idle right now:
// TryAcquire, never a wait, so a caller that itself holds a slot cannot
// deadlock. The caller waits on a helper only for the attempt the fold
// needs next. Once the sample is decided, or the caller unwinds, every
// helper still running is cancelled and joined, so none outlives the
// call. A helper's error or panic belongs to its attempt: it surfaces
// only if the fold reaches that attempt, a panic re-raised on the
// calling goroutine as a *par.PanicError. With helpers nil every attempt
// runs on the caller, which is the sequential fold.
func selectSample(ctx context.Context, helpers *par.Pool, run func(ctx context.Context, attempt int) ([]int, error), decides func(choice []int) bool) ([]int, error) {
	type result struct {
		choice []int
		err    error
	}
	var (
		results [dupRetries + 1]result
		done    [dupRetries + 1]chan struct{} // non-nil: the attempt runs on a helper
		wg      sync.WaitGroup
	)
	hctx, cancel := context.WithCancel(ctx)
	defer wg.Wait()
	defer cancel()
	for a := range results {
		if next := a + 1; next < len(results) && done[next] == nil && helpers != nil && helpers.TryAcquire() {
			done[next] = make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer helpers.Release()
				defer close(done[next])
				defer func() {
					if v := recover(); v != nil {
						results[next] = result{err: &par.PanicError{Worker: 1, Index: next, Value: v, Stack: debug.Stack()}}
					}
				}()
				results[next].choice, results[next].err = run(hctx, next)
			}()
		}
		if done[a] != nil {
			<-done[a]
		} else {
			results[a].choice, results[a].err = run(ctx, a)
		}
		r := results[a]
		if pe, ok := r.err.(*par.PanicError); ok {
			panic(pe)
		}
		if r.err != nil {
			return nil, r.err
		}
		if decides(r.choice) {
			return r.choice, nil
		}
	}
	return nil, nil
}

// Assemble rebuilds a full-circuit approximation from a per-block
// candidate choice (choice[b] indexes blocks[b].Candidates). It is the
// building block for ablation studies that bypass the dual annealing
// selection (for example random sampling of the approximation space).
func Assemble(numQubits int, blocks []BlockApproximations, choice []int) (Approximation, error) {
	return assemble(numQubits, blocks, choice)
}

// assemble rebuilds a full circuit from a per-block candidate choice.
func assemble(numQubits int, blocks []BlockApproximations, choice []int) (Approximation, error) {
	full := circuit.New(numQubits)
	cnots := 0
	epsSum := 0.0
	for k, ba := range blocks {
		cand := ba.Candidates[choice[k]]
		if err := full.AppendCircuit(cand.Circuit, ba.Block.Qubits); err != nil {
			return Approximation{}, fmt.Errorf("pipeline: assemble block %d: %w", k, err)
		}
		cnots += cand.CNOTs
		epsSum += cand.Distance
	}
	return Approximation{
		Choice:     append([]int(nil), choice...),
		Circuit:    full,
		CNOTs:      cnots,
		EpsilonSum: epsSum,
	}, nil
}
