// Package pipeline implements the QUEST pipeline (Sec. 3) as a typed
// composition of stages with explicit artifacts:
//
//	*circuit.Circuit
//	   │  PartitionStage       (Sec. 3.3, scan partitioner)
//	   ▼
//	*PartitionArtifact          blocks + full-circuit threshold
//	   │  SynthesisStage       (Sec. 3.5, per-block approximate synthesis)
//	   ▼
//	*SynthesisArtifact          per-block candidate sets (+ raw harvest)
//	   │  SelectionStage       (Sec. 3.6, Algorithm 1 / dual annealing)
//	   ▼
//	*SelectionArtifact          dissimilar approximations → *Result
//
// Run / RunCtx execute the full composition and are bit-identical to the
// historical monolithic core.Run for the same Config (asserted by
// TestGoldenStagedPipelineMatchesSeed). Each stage is also usable on its own,
// which is what makes evaluation sweeps cheap: a SynthesisArtifact is
// computed once and re-selected against many (ε, M, CXWeight) settings
// with Reselect, skipping the dominant synthesis cost (Fig. 12).
//
// The per-block process distances bound the full-circuit process distance
// by the Sec. 3.8 theorem: HS(full) ≤ Σ_k ε_k.
package pipeline

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/circuit"
	"repro/internal/linalg"
	"repro/internal/partition"
	"repro/internal/synth"
	"repro/internal/ucache"
)

// Stage is one typed pipeline step: a named, context-aware transformation
// of an In artifact into an Out artifact. Stages own their budget
// (deadline/cancellation) handling and their degradation policy, so a
// composed pipeline behaves identically to the hand-interleaved loop it
// replaced.
type Stage[In, Out any] struct {
	// Name identifies the stage in errors and instrumentation.
	Name string
	run  func(ctx context.Context, in In) (Out, error)
}

// NewStage wraps a function as a named Stage.
func NewStage[In, Out any](name string, run func(ctx context.Context, in In) (Out, error)) Stage[In, Out] {
	return Stage[In, Out]{Name: name, run: run}
}

// Run executes the stage.
func (s Stage[In, Out]) Run(ctx context.Context, in In) (Out, error) {
	return s.run(ctx, in)
}

// Then composes two stages into one: a's output artifact feeds b. An
// error from a short-circuits b.
func Then[A, B, C any](a Stage[A, B], b Stage[B, C]) Stage[A, C] {
	return Stage[A, C]{
		Name: a.Name + "+" + b.Name,
		run: func(ctx context.Context, in A) (C, error) {
			mid, err := a.Run(ctx, in)
			if err != nil {
				var zero C
				return zero, err
			}
			return b.Run(ctx, mid)
		},
	}
}

// PartitionArtifact is the output of PartitionStage: the block structure
// of one circuit plus the full-circuit distance threshold. It is
// invalidated by a change of circuit or Config.BlockSize; the Threshold
// it carries additionally reflects Epsilon and ThresholdCap (Reselect
// recomputes it for new settings).
type PartitionArtifact struct {
	// Original is the input circuit.
	Original *circuit.Circuit
	// Blocks are the partition blocks in topological order.
	Blocks []partition.Block
	// Threshold is the full-circuit distance threshold
	// min(Epsilon × len(Blocks), ThresholdCap).
	Threshold float64
	// Key fingerprints the Config fields this artifact depends on.
	Key string
	// Elapsed is the stage's wall-clock cost.
	Elapsed time.Duration
}

// SynthesisArtifact is the output of SynthesisStage: every block's
// approximate-candidate set. It is the expensive artifact — synthesis
// dominates pipeline cost (Fig. 12) — and the unit of reuse: selection
// side sweeps (ε, M, CXWeight, AnnealIterations) re-run against it via
// Reselect without resynthesizing.
type SynthesisArtifact struct {
	// Partition is the upstream artifact.
	Partition *PartitionArtifact
	// Blocks holds per-block approximation sets, aligned with
	// Partition.Blocks.
	Blocks []BlockApproximations
	// Degradations lists blocks that fell back to their exact circuit
	// during synthesis, in block order.
	Degradations []Degradation
	// CacheStats is the synthesis-cache activity during the stage (zero
	// when Config.SynthCache is nil).
	CacheStats ucache.Stats
	// Cfg is the resolved Config the artifact was synthesized under;
	// Key fingerprints the fields that invalidate the artifact.
	Cfg Config
	Key string
	// Elapsed is the stage's wall-clock cost.
	Elapsed time.Duration
}

// SelectionArtifact is the output of SelectionStage: the dissimilar
// approximations chosen by Algorithm 1 for one (threshold, M, CXWeight)
// setting over a SynthesisArtifact.
type SelectionArtifact struct {
	// Synthesis is the upstream artifact.
	Synthesis *SynthesisArtifact
	// Selected are the chosen approximations in selection order.
	Selected []Approximation
	// Degradations lists blocks degraded during candidate re-filtering
	// (empty on the primary path; Reselect may add entries when a
	// tighter threshold empties a block's reusable candidate set).
	Degradations []Degradation
	// Key fingerprints the Config fields this artifact depends on.
	Key string
	// Elapsed is the stage's wall-clock cost.
	Elapsed time.Duration
}

// Result assembles the artifact chain into the historical flat pipeline
// result consumed by callers and serializers.
func (sa *SelectionArtifact) Result() *Result {
	syn := sa.Synthesis
	res := &Result{
		Original:  syn.Partition.Original,
		Blocks:    syn.Blocks,
		Selected:  sa.Selected,
		Threshold: syn.Partition.Threshold,
		Timing: Timing{
			Partition: syn.Partition.Elapsed,
			Synthesis: syn.Elapsed,
			Annealing: sa.Elapsed,
		},
		CacheStats: syn.CacheStats,
	}
	res.Degradations = append(res.Degradations, syn.Degradations...)
	res.Degradations = append(res.Degradations, sa.Degradations...)
	if len(res.Degradations) == 0 {
		res.Degradations = nil
	}
	return res
}

// BlockApproximations holds one partition block with its harvested
// approximate circuits.
type BlockApproximations struct {
	// Block is the partition block (global qubits + local circuit).
	Block partition.Block
	// Unitary is the block's original unitary.
	Unitary *linalg.Matrix
	// Candidates are the approximate circuits, sorted by (CNOTs,
	// Distance); Candidates[i].Circuit acts on block-local qubits.
	Candidates []synth.Candidate
	// all is the raw candidate harvest of the successful synthesis
	// attempt, before threshold pruning and exact-anchor insertion. It
	// is what Reselect re-filters under a different threshold; nil for
	// degraded blocks (their only candidate is the exact circuit).
	all []synth.Candidate
	// pairDist[i][j] is the HS distance between candidates i and j,
	// used by the Algorithm-1 similarity rule.
	pairDist [][]float64
}

// Approximation is one selected full-circuit approximation.
type Approximation struct {
	// Choice[b] is the candidate index used for block b.
	Choice []int
	// Circuit is the reassembled full circuit.
	Circuit *circuit.Circuit
	// CNOTs is the full circuit's CNOT count.
	CNOTs int
	// EpsilonSum is Σ_k ε_k over the chosen block candidates: by the
	// Sec. 3.8 theorem an upper bound on the full-circuit HS distance.
	EpsilonSum float64
}

// Timing records where pipeline time went (Fig. 12).
type Timing struct {
	Partition time.Duration
	Synthesis time.Duration
	Annealing time.Duration
}

// Total returns the summed pipeline time.
func (t Timing) Total() time.Duration { return t.Partition + t.Synthesis + t.Annealing }

// Degradation records one block that fell back to its exact (transpiled)
// circuit because synthesis failed to produce a usable approximation
// within its retry and time budgets. A degraded block contributes zero
// process distance, so the assembled circuits stay valid — the pipeline
// just loses CNOT savings on that block.
type Degradation struct {
	// Block is the index into Result.Blocks.
	Block int
	// Qubits are the block's global qubit indices.
	Qubits []int
	// Attempts is the number of synthesis attempts made.
	Attempts int
	// Reason describes the final failure (e.g. "no candidate within
	// threshold" or the last attempt's error text).
	Reason string
}

// Result is the pipeline output.
type Result struct {
	// Original is the input circuit.
	Original *circuit.Circuit
	// Blocks holds per-block approximation sets.
	Blocks []BlockApproximations
	// Selected are the chosen dissimilar approximations, in selection
	// order (the first has the lowest CNOT count).
	Selected []Approximation
	// Threshold is the full-circuit distance threshold used
	// (Epsilon × number of blocks).
	Threshold float64
	// Timing is the per-stage cost breakdown.
	Timing Timing
	// Degradations lists blocks that fell back to their exact circuit,
	// in block order. Empty on a fully approximated run.
	Degradations []Degradation
	// CacheStats is the synthesis-cache activity during this run
	// (zero when Config.SynthCache is nil). With a cache shared across
	// concurrent runs the numbers include the other runs' activity.
	CacheStats ucache.Stats
}

// BestCNOTs returns the smallest CNOT count among selected approximations.
func (r *Result) BestCNOTs() int {
	best := math.MaxInt
	for _, a := range r.Selected {
		if a.CNOTs < best {
			best = a.CNOTs
		}
	}
	return best
}

// UpperBound is the Sec. 3.8 theorem: the process distance of a circuit
// assembled from approximate blocks is at most the sum of the blocks'
// process distances.
func UpperBound(blockDistances []float64) float64 {
	var s float64
	for _, d := range blockDistances {
		s += d
	}
	return s
}

// Run executes the QUEST pipeline on a circuit.
func Run(c *circuit.Circuit, cfg Config) (*Result, error) {
	return RunCtx(context.Background(), c, cfg)
}

// RunCtx executes the QUEST pipeline under a context: the composition
// PartitionStage → SynthesisStage → SelectionStage. Config.Timeout (if
// set) is layered on top of ctx's own deadline. Cancellation is checked
// at every stage boundary and inside every stage's inner loops; when the
// budget expires the run fails with a typed, wrapped error
// (errors.Is(err, budget.ErrDeadline) or budget.ErrCancelled) — unless
// Config.AllowDegraded is set, in which case unfinished blocks fall back
// to their exact circuits (recorded in Result.Degradations) and a valid,
// degraded result is returned with a nil error.
func RunCtx(ctx context.Context, c *circuit.Circuit, cfg Config) (*Result, error) {
	cfg.defaults()
	if c.Size() == 0 {
		return nil, fmt.Errorf("pipeline: empty circuit")
	}
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	sel, err := Stages(cfg).Run(ctx, c)
	if err != nil {
		return nil, err
	}
	return sel.Result(), nil
}

// Stages returns the full pipeline as one composed stage. The Config is
// resolved once so every stage sees identical defaults.
func Stages(cfg Config) Stage[*circuit.Circuit, *SelectionArtifact] {
	cfg.defaults()
	return Then(Then(PartitionStage(cfg), SynthesisStage(cfg)), SelectionStage(cfg))
}
