package pipeline

import (
	"context"
	"fmt"
	"math"

	"repro/internal/budget"
	"repro/internal/circuit"
	"repro/internal/faultinject"
	"repro/internal/linalg"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/ucache"
)

// PartitionStage scans the circuit into blocks of at most cfg.BlockSize
// qubits (STEP 1, Sec. 3.3). Pure, fast compute — with AllowDegraded it
// runs even on an expired budget, because producing the (fully degraded)
// exact fallback still requires the block structure.
func PartitionStage(cfg Config) Stage[*circuit.Circuit, *PartitionArtifact] {
	cfg.defaults()
	return NewStage("partition", func(ctx context.Context, c *circuit.Circuit) (*PartitionArtifact, error) {
		elapsed := stageClock()
		if err := budget.Check(ctx); err != nil && !cfg.AllowDegraded {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		blocks, err := partition.Scan(c, cfg.BlockSize)
		if err != nil {
			return nil, fmt.Errorf("pipeline: partition: %w", err)
		}
		return &PartitionArtifact{
			Original:  c,
			Blocks:    blocks,
			Threshold: math.Min(cfg.Epsilon*float64(len(blocks)), cfg.ThresholdCap),
			Key:       cfg.partitionKey(),
			Elapsed:   elapsed(),
		}, nil
	})
}

// SynthesisStage harvests approximate circuits for every block (STEP 2,
// Sec. 3.5), in parallel and deterministically: block i's search is
// seeded from its content and writes only slot i. Retry/quality
// degradation is handled per block; an error out of the stage is either
// the run budget expiring or a worker panic (surfaced as
// *par.PanicError). On budget expiry with AllowDegraded every unfinished
// block degrades to its exact circuit and the stage still succeeds.
func SynthesisStage(cfg Config) Stage[*PartitionArtifact, *SynthesisArtifact] {
	cfg.defaults()
	return NewStage("synthesis", func(ctx context.Context, pa *PartitionArtifact) (*SynthesisArtifact, error) {
		elapsed := stageClock()
		var statsBefore ucache.Stats
		if cfg.SynthCache != nil {
			statsBefore = cfg.SynthCache.Stats()
		}
		art := &SynthesisArtifact{
			Partition: pa,
			Blocks:    make([]BlockApproximations, len(pa.Blocks)),
			Cfg:       cfg,
			Key:       cfg.synthKey(),
		}
		degs := make([]*Degradation, len(pa.Blocks))
		synthErr := forEachBlock(ctx, cfg, len(pa.Blocks), func(bctx context.Context, i int) error {
			ba, deg, err := synthesizeBlock(bctx, i, pa.Blocks[i], cfg, pa.Threshold)
			if err != nil {
				return fmt.Errorf("synthesize block %d: %w", i, err)
			}
			art.Blocks[i] = ba
			degs[i] = deg
			return nil
		})
		if cfg.SynthCache != nil {
			art.CacheStats = cfg.SynthCache.Stats().Sub(statsBefore)
		}
		if synthErr != nil {
			if !budget.Terminated(synthErr) || !cfg.AllowDegraded {
				return nil, fmt.Errorf("pipeline: %w", synthErr)
			}
			// Budget expired with AllowDegraded: every unfinished block
			// degrades to its exact circuit so the result stays valid.
			for i := range art.Blocks {
				if art.Blocks[i].Candidates == nil {
					art.Blocks[i] = exactOnlyBlock(pa.Blocks[i])
					degs[i] = &Degradation{
						Block:    i,
						Qubits:   pa.Blocks[i].Qubits,
						Attempts: 0,
						Reason:   "run budget exhausted: " + synthErr.Error(),
					}
				}
			}
		}
		for _, d := range degs {
			if d != nil {
				art.Degradations = append(art.Degradations, *d)
			}
		}
		art.Elapsed = elapsed()
		return art, nil
	})
}

// SelectionStage runs the dual-annealing Algorithm-1 selection (STEP 3,
// Sec. 3.6) over a SynthesisArtifact. A budget error still leaves the
// selection valid (the loop falls back to the per-block best choice), so
// with AllowDegraded the partial selection is returned as-is.
func SelectionStage(cfg Config) Stage[*SynthesisArtifact, *SelectionArtifact] {
	cfg.defaults()
	return NewStage("selection", func(ctx context.Context, sa *SynthesisArtifact) (*SelectionArtifact, error) {
		elapsed := stageClock()
		art := &SelectionArtifact{Synthesis: sa, Key: cfg.selectKey()}
		selected, err := selectApproximations(ctx, sa, cfg)
		art.Selected = selected
		art.Elapsed = elapsed()
		if err != nil && (!budget.Terminated(err) || !cfg.AllowDegraded) {
			return nil, err
		}
		return art, nil
	})
}

// forEachBlock fans the per-block synthesis loop out over a pool: the
// shared cross-run scheduler when Config.Scheduler is set (one
// machine-wide slot budget across every concurrent compilation),
// otherwise a Parallelism-sized pool of this run's own. Either way each
// block's search can lend its optimizer runs to the pool's idle slots
// (synth.SynthesizeCtx). Both follow the slot-write rule, so the choice
// never changes results.
func forEachBlock(ctx context.Context, cfg Config, n int, fn func(ctx context.Context, i int) error) error {
	pool := cfg.Scheduler
	if pool == nil {
		pool = par.NewPool(cfg.Parallelism)
	}
	return pool.ForEachErr(ctx, n, fn)
}

// exactOnlyBlock builds the degraded approximation set for a block: its
// own (exact, zero-distance) circuit as the only candidate.
func exactOnlyBlock(b partition.Block) BlockApproximations {
	return BlockApproximations{
		Block:   b,
		Unitary: sim.Unitary(b.Circuit),
		Candidates: []synth.Candidate{{
			Circuit:  b.Circuit.Clone(),
			Distance: 0,
			CNOTs:    b.Circuit.CNOTCount(),
		}},
	}
}

// synthesizeBlock harvests approximations for one block, retrying with
// jittered seeds and a widened search on failure, and degrading to the
// exact circuit when every attempt fails. Candidates whose process
// distance already exceeds the FULL circuit threshold can never appear
// in a feasible selection (the bound is a sum of non-negative terms), so
// they are pruned before the annealing stage; the raw harvest is retained
// on the artifact for Reselect.
//
// The returned *Degradation is non-nil when the block degraded. An error
// is returned only when the run's own budget expired (typed, unwrappable
// to budget.ErrDeadline/ErrCancelled) — or when a per-block budget
// expired and Config.AllowDegraded is off.
func synthesizeBlock(ctx context.Context, idx int, b partition.Block, cfg Config, threshold float64) (BlockApproximations, *Degradation, error) {
	u := sim.Unitary(b.Circuit)
	// The search seed is derived from the block's CONTENT (its unitary's
	// phase-invariant hash), not its position: identical blocks — e.g.
	// repeated Trotter steps — run identical searches, which both keeps
	// the pipeline deterministic for any Parallelism and makes their
	// synthesis results shareable through Config.SynthCache.
	seed := cfg.Seed ^ int64(ucache.TargetKey(u)&0x7fffffffffffffff)
	maxCNOTs := b.Circuit.CNOTCount()
	if maxCNOTs == 0 {
		maxCNOTs = -1 // rotation-only block: forbid CNOT layers entirely
	}

	attempts := 1 + cfg.MaxRestarts
	var raw, kept []synth.Candidate
	lastReason := "no candidate within threshold"
	budgetFailure := false
	attempt := 0
	for ; attempt < attempts; attempt++ {
		if err := budget.Check(ctx); err != nil {
			return BlockApproximations{}, nil, err
		}
		// Deterministic fault injection: a hook at core.block.<idx> can
		// force this attempt to fail (e.g. with budget.ErrNoConvergence)
		// to exercise the retry and degradation paths.
		if faultinject.Enabled() {
			if err := faultinject.Fire(fmt.Sprintf("core.block.%d", idx)); err != nil {
				if budget.Terminated(err) {
					return BlockApproximations{}, nil, err
				}
				lastReason = err.Error()
				continue
			}
		}
		actx := ctx
		cancel := context.CancelFunc(func() {})
		if cfg.BlockTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, cfg.BlockTimeout)
		}
		opts := synth.Options{
			Threshold:    math.Max(cfg.Epsilon/4, 1e-6),
			MaxCNOTs:     maxCNOTs,
			Beam:         cfg.SynthBeam + attempt,
			Restarts:     cfg.SynthRestarts + attempt,
			KeepPerDepth: cfg.SynthKeepPerDepth,
			HarvestAll:   true,
			Seed:         seed + int64(attempt)*15485863,
		}
		var sres synth.Result
		var err error
		if cfg.SynthCache != nil {
			sres, _, err = cfg.SynthCache.SynthesizeCtx(actx, u, opts)
		} else {
			sres, err = synth.SynthesizeCtx(actx, u, opts)
		}
		cancel()
		if err != nil {
			if budget.Terminated(err) && ctx.Err() != nil {
				// The run's budget, not the per-block one: abort.
				return BlockApproximations{}, nil, err
			}
			lastReason = err.Error()
			budgetFailure = budgetFailure || budget.Terminated(err)
			continue
		}
		raw = sres.Candidates
		kept = filterByThreshold(raw, threshold)
		if len(kept) > 0 {
			break
		}
		lastReason = "no candidate within threshold"
	}

	if len(kept) == 0 {
		// Every attempt failed: degrade to the exact (transpiled) block.
		// A time-budget failure degrades only when the caller opted in;
		// quality failures always degrade (the exact block is a valid,
		// zero-error stand-in — the pre-retry behavior, now reported).
		if budgetFailure && !cfg.AllowDegraded {
			return BlockApproximations{}, nil, fmt.Errorf("block budget exhausted after %d attempts: %w", attempt, budget.ErrDeadline)
		}
		deg := &Degradation{Block: idx, Qubits: b.Qubits, Attempts: attempt, Reason: lastReason}
		return exactOnlyBlock(b), deg, nil
	}

	ba := finishBlock(b, u, kept)
	ba.all = raw
	return ba, nil, nil
}

// filterByThreshold returns, in order, the candidates whose process
// distance does not exceed the full-circuit threshold. It never aliases
// the input slice's backing array (the raw harvest outlives the filter).
func filterByThreshold(cands []synth.Candidate, threshold float64) []synth.Candidate {
	var kept []synth.Candidate
	for _, cand := range cands {
		if cand.Distance <= threshold {
			kept = append(kept, cand)
		}
	}
	return kept
}

// finishBlock turns a pruned candidate list into a selection-ready
// BlockApproximations by anchoring the exact circuit. The primary
// synthesis path, Reselect's re-filtering path and LoadSynthesis all go
// through this one function, which is what makes a Reselect under an
// unchanged threshold bit-identical to the full run.
func finishBlock(b partition.Block, u *linalg.Matrix, kept []synth.Candidate) BlockApproximations {
	// The block's own circuit is always an exact candidate: it anchors
	// the selection space (QUEST can never do worse than the Baseline)
	// and guarantees an exact option when the synthesis search missed
	// the exact solution at low depth.
	hasExact := false
	for _, cand := range kept {
		if cand.Distance < 1e-7 && cand.CNOTs <= b.Circuit.CNOTCount() {
			hasExact = true
			break
		}
	}
	if !hasExact {
		kept = append(kept, synth.Candidate{
			Circuit:  b.Circuit.Clone(),
			Distance: 0,
			CNOTs:    b.Circuit.CNOTCount(),
		})
	}
	return BlockApproximations{Block: b, Unitary: u, Candidates: kept}
}
