package pipeline

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/par"
	"repro/internal/ucache"
)

// Config controls the pipeline. The zero value selects the paper-like
// defaults (documented per field).
//
// Zero-value convention: a field whose zero value is also a legitimate
// setting must be paired with an explicit ...Set sentinel bool that
// defaults() consults before substituting the default (see CXWeightSet).
// Fields whose zero value is never meaningful (sizes, budgets, seeds) may
// keep the bare "0 means default" rule.
type Config struct {
	// BlockSize is the maximum partition block size in qubits. The paper
	// uses 4; the default here is 3, which synthesizes much faster in
	// pure Go while exercising the identical code path (see DESIGN.md).
	BlockSize int
	// Epsilon is the per-block process-distance budget. The full-circuit
	// threshold is Epsilon × (number of blocks), i.e. proportional to
	// the block count exactly as in Sec. 4.1, but capped at ThresholdCap
	// so deep circuits cannot accumulate unboundedly coarse
	// approximations. Default 0.05.
	Epsilon float64
	// ThresholdCap bounds the full-circuit distance threshold from
	// above (default 0.5; HS distances approach 1 for unrelated
	// unitaries, so budgets beyond ~0.5 admit junk).
	ThresholdCap float64
	// MaxSamples is M, the maximum number of dissimilar approximations
	// selected (default 16).
	MaxSamples int
	// CXWeight is the objective weight on normalized CNOT count; the
	// dissimilarity weight is 1-CXWeight. Default 0.5 (balanced). The
	// pure-dissimilarity objective CXWeight = 0 is a legitimate
	// Algorithm-1 setting; because it coincides with the zero value it
	// must be requested explicitly by also setting CXWeightSet.
	CXWeight float64
	// CXWeightSet marks CXWeight as explicitly chosen, so CXWeight = 0
	// means "pure dissimilarity" instead of "use the 0.5 default".
	// Leaving it false preserves the historical zero-value behavior.
	CXWeightSet bool
	// Objective scores feasible choice vectors during annealing selection
	// (lower is better); its Spec() enters selectKey and therefore every
	// selection-artifact fingerprint. Nil selects CNOTObjective(), the
	// paper's normalized-CNOT-count objective, whose scoring is pinned
	// bit-identical to the pre-plugin pipeline by the golden tests. See
	// FidelityObjective and HybridObjective for the noise-aware
	// alternatives (resolve spec strings with backend.Objective).
	Objective Objective
	// SynthBeam, SynthRestarts and SynthKeepPerDepth tune the per-block
	// synthesis search (defaults 2, 1, 4).
	SynthBeam         int
	SynthRestarts     int
	SynthKeepPerDepth int
	// AnnealIterations is the dual annealing budget per selected sample
	// (default 400).
	AnnealIterations int
	// Parallelism is the number of blocks synthesized concurrently
	// (default runtime.NumCPU()); results are deterministic regardless.
	Parallelism int
	// Seed makes the whole pipeline deterministic (default 1).
	Seed int64
	// Timeout bounds the whole pipeline run; 0 means no limit. When it
	// expires RunCtx fails with an ErrDeadline-wrapped error — or, with
	// AllowDegraded, finishes immediately with a degraded result.
	Timeout time.Duration
	// BlockTimeout bounds each per-block synthesis attempt; 0 means no
	// limit. An attempt that hits it counts as a failed attempt and is
	// retried (see MaxRestarts).
	BlockTimeout time.Duration
	// MaxRestarts is how many extra synthesis attempts a failing block
	// gets, each with a jittered seed and a widened search (one extra
	// beam slot and restart per attempt). Default 2; negative disables
	// retries.
	MaxRestarts int
	// AllowDegraded lets the pipeline substitute a block's exact
	// (transpiled) circuit when the run or block time budget expires,
	// instead of failing the run; degraded blocks are recorded in
	// Result.Degradations. Quality failures (no candidate within the
	// threshold after all retries) always degrade this way — the exact
	// block is a valid, zero-error stand-in — regardless of this flag,
	// which only governs budget-driven degradation.
	AllowDegraded bool
	// SynthCache, when non-nil, memoizes per-block synthesis results by
	// target unitary (see internal/ucache). Blocks with identical
	// unitaries — Trotter steps, repeated subcircuits — then synthesize
	// once per run (or once across runs when the cache is shared).
	// Nil disables caching, so every block synthesis actually runs; the
	// timeout/retry/degradation machinery assumes that in its tests.
	SynthCache *ucache.Cache
	// Scheduler, when non-nil, is a shared cross-run worker pool: block
	// synthesis draws per-block slots from it instead of spawning
	// Parallelism private workers, so N concurrent compilations (a
	// corpus run, questd's worker fleet) keep exactly Scheduler.Size()
	// blocks in flight machine-wide — small circuits stop
	// undersubscribing and concurrent runs stop oversubscribing. Results
	// are bit-identical with or without it, for any pool size (the
	// slot-write determinism rule; asserted by tests). Nil keeps the
	// historical per-run pool. Scheduler never enters artifact keys.
	Scheduler *par.Pool
}

func (c *Config) defaults() {
	if c.BlockSize == 0 {
		c.BlockSize = 3
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.05
	}
	if c.ThresholdCap == 0 {
		c.ThresholdCap = 0.5
	}
	if c.MaxSamples == 0 {
		c.MaxSamples = 16
	}
	if !c.CXWeightSet && c.CXWeight == 0 {
		c.CXWeight = 0.5
	}
	c.CXWeightSet = true
	if c.SynthBeam == 0 {
		c.SynthBeam = 2
	}
	if c.SynthRestarts == 0 {
		c.SynthRestarts = 1
	}
	if c.SynthKeepPerDepth == 0 {
		c.SynthKeepPerDepth = 4
	}
	if c.AnnealIterations == 0 {
		c.AnnealIterations = 400
	}
	if c.Objective == nil {
		c.Objective = CNOTObjective()
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.NumCPU()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	switch {
	case c.MaxRestarts == 0:
		c.MaxRestarts = 2
	case c.MaxRestarts < 0:
		c.MaxRestarts = 0
	}
}

// Resolved returns the Config with every default filled in, exactly as
// the pipeline stages resolve it before running. External fingerprints
// of a run's configuration (the questd artifact store's content keys)
// must hash the resolved Config, not the sparse input — two sparse
// Configs that resolve identically must address the same artifact.
func (c Config) Resolved() Config {
	c.defaults()
	return c
}

// Artifact-invalidation contract (see DESIGN.md "Pipeline architecture"):
// each stage's output is valid for exactly the Config fields in its key.
// A sweep may reuse an upstream artifact whenever the fields it varies
// appear only in downstream keys — ε and M sweeps vary selection-side
// fields, so a SynthesisArtifact computed once serves every point.

// partitionKey fingerprints the Config fields that invalidate a
// PartitionArtifact: the block structure depends only on BlockSize (the
// threshold it carries additionally depends on Epsilon and ThresholdCap,
// but Reselect recomputes it, so it does not enter the key).
func (c Config) partitionKey() string {
	return fmt.Sprintf("bs=%d", c.BlockSize)
}

// synthKey fingerprints the Config fields that invalidate a
// SynthesisArtifact: everything the per-block candidate harvest depends
// on. Epsilon appears because it sets the per-block search target ε/4;
// a sweep that reuses one artifact across ε points trades that coupling
// away explicitly (see Reselect).
func (c Config) synthKey() string {
	return fmt.Sprintf("%s,eps=%x,beam=%d,restarts=%d,keep=%d,seed=%d,maxrestarts=%d",
		c.partitionKey(), c.Epsilon, c.SynthBeam, c.SynthRestarts,
		c.SynthKeepPerDepth, c.Seed, c.MaxRestarts)
}

// selectKey fingerprints the Config fields that invalidate a
// SelectionArtifact beyond its input SynthesisArtifact. The objective
// spec is part of the key — switching objectives must re-run selection —
// but deliberately not part of synthKey: the candidate harvest is
// objective-independent, so an objective switch is a cheap Reselect over
// the same SynthesisArtifact (and the jobs artifact store keys only the
// synthesis side).
func (c Config) selectKey() string {
	return fmt.Sprintf("%s,thr=%x/%x,m=%d,cx=%x,iters=%d,obj=%s",
		c.synthKey(), c.Epsilon, c.ThresholdCap, c.MaxSamples, c.CXWeight,
		c.AnnealIterations, c.objectiveSpec())
}

// objectiveSpec returns the canonical spec of the configured objective,
// tolerating an unresolved (nil) Objective so key derivation never
// depends on defaults() having run.
func (c Config) objectiveSpec() string {
	if c.Objective == nil {
		return CNOTObjective().Spec()
	}
	return c.Objective.Spec()
}
