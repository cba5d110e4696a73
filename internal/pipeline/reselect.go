package pipeline

import (
	"context"
	"fmt"
	"math"

	"repro/internal/circuit"
)

// Synthesize runs the partition and synthesis stages only and returns the
// reusable SynthesisArtifact. It is the sweep-side entry point: compute
// the artifact once, then call Reselect for every (ε, M, CXWeight,
// AnnealIterations) point — the dominant synthesis cost (Fig. 12) is paid
// a single time.
func Synthesize(ctx context.Context, c *circuit.Circuit, cfg Config) (*SynthesisArtifact, error) {
	cfg.defaults()
	if c.Size() == 0 {
		return nil, fmt.Errorf("pipeline: empty circuit")
	}
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	return Then(PartitionStage(cfg), SynthesisStage(cfg)).Run(ctx, c)
}

// Reselect re-runs the selection stage only, against a previously
// computed SynthesisArtifact, under a possibly different Config — the
// artifact-reuse contract behind ε/M sweeps (Fig. 16 and the
// ensemble-size ablation).
//
// Semantics:
//
//   - The artifact's block structure is authoritative: cfg.BlockSize must
//     match the artifact's (the blocks cannot be re-derived here).
//   - The full-circuit threshold is recomputed from cfg (Epsilon ×
//     blocks, capped at ThresholdCap) and every block's candidate set is
//     re-filtered from the artifact's raw synthesis harvest, re-anchored
//     with the exact circuit, and re-scored for the similarity rule —
//     through the same finishBlock path the primary pipeline uses. A
//     Reselect whose recomputed threshold equals the artifact's is
//     therefore bit-identical to the full run that produced the artifact.
//   - Under a different ε the candidates are the ones harvested at the
//     artifact's ε, not the ones a fresh run at the new ε would find: the
//     harvest itself is threshold-independent (HarvestAll grows the tree
//     to its CNOT cap regardless), but a fresh run at a tight ε retries
//     blocks with widened beams until a candidate fits its threshold,
//     while a coarse-ε artifact accepted the first attempt. Selection
//     still enforces the new Σε ≤ threshold constraint against true
//     per-candidate distances, so the Sec. 3.8 bound holds exactly at the
//     new ε; only the candidate pool differs. Sweeps therefore synthesize
//     once at the TIGHTEST ε of the sweep — that pool satisfies every
//     wider threshold too.
//   - A block whose reusable candidates all exceed the new threshold
//     degrades to its exact circuit (recorded in Result.Degradations), as
//     a fresh run would after exhausting retries.
//
// The returned Result reports the artifact's partition timing, this
// call's own re-filtering cost as the synthesis timing (the cheap residue
// of the work the reuse skipped), its own annealing time, and the
// artifact's cache stats.
func Reselect(ctx context.Context, art *SynthesisArtifact, cfg Config) (*Result, error) {
	cfg.defaults()
	if cfg.BlockSize != art.Cfg.BlockSize {
		return nil, fmt.Errorf("pipeline: reselect: BlockSize %d does not match artifact's %d (key %q)",
			cfg.BlockSize, art.Cfg.BlockSize, art.Key)
	}
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	view, err := art.refilter(cfg)
	if err != nil {
		return nil, err
	}
	sel, err := SelectionStage(cfg).Run(ctx, view)
	if err != nil {
		return nil, err
	}
	return sel.Result(), nil
}

// refilter derives a SynthesisArtifact view for a new Config: the same
// blocks and raw harvest, with Candidates re-pruned against the new
// threshold. The receiver is not mutated and may be shared across
// sequential Reselect calls.
func (art *SynthesisArtifact) refilter(cfg Config) (*SynthesisArtifact, error) {
	elapsed := stageClock()
	pa := art.Partition
	threshold := math.Min(cfg.Epsilon*float64(len(pa.Blocks)), cfg.ThresholdCap)
	view := &SynthesisArtifact{
		Partition: &PartitionArtifact{
			Original:  pa.Original,
			Blocks:    pa.Blocks,
			Threshold: threshold,
			Key:       pa.Key,
			Elapsed:   pa.Elapsed,
		},
		Blocks:     make([]BlockApproximations, len(art.Blocks)),
		CacheStats: art.CacheStats,
		Cfg:        cfg,
		Key:        cfg.synthKey(),
	}
	view.Degradations = append(view.Degradations, art.Degradations...)
	degraded := make(map[int]bool, len(art.Degradations))
	for _, d := range art.Degradations {
		degraded[d.Block] = true
	}
	for i, ba := range art.Blocks {
		if degraded[i] || ba.all == nil {
			// The block degraded during synthesis (or the artifact was
			// loaded without its raw harvest): its exact-only candidate
			// set is threshold-independent, reuse it as-is.
			view.Blocks[i] = ba
			continue
		}
		kept := filterByThreshold(ba.all, threshold)
		if len(kept) == 0 {
			view.Blocks[i] = exactOnlyBlock(ba.Block)
			view.Degradations = append(view.Degradations, Degradation{
				Block:    i,
				Qubits:   ba.Block.Qubits,
				Attempts: 0,
				Reason:   "no reusable candidate within threshold",
			})
			continue
		}
		nb := finishBlock(ba.Block, ba.Unitary, kept)
		nb.all = ba.all
		view.Blocks[i] = nb
	}
	// The re-filtering cost is attributed to synthesis: it is the
	// (cheap) residue of the synthesis work the reuse skipped.
	view.Elapsed = elapsed()
	return view, nil
}
