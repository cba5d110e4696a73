package experiments

import (
	"context"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/pipeline"
)

// This file is the shared sweep driver behind the figures. Two patterns
// recur across the evaluation:
//
//  1. Per-workload preparation — run the pipeline once per benchmark and
//     evaluate the result many ways (Figs. 7, 8, 9, 10, 11, 12). Every
//     figure used to carry its own copy of the workloads/questRun/error-
//     wrap loop; preparedWorkloads is that loop, written once.
//  2. Selection-only sweeps — evaluate many configurations that differ
//     only in selection-stage parameters (ε, M, CXWeight). The synthesis
//     stage dominates the cost (Fig. 12) and does not depend on those
//     parameters, so reselectSweep computes one pipeline.SynthesisArtifact
//     and re-runs selection per point (Fig. 16, the ensemble-size
//     ablation). BenchmarkEpsilonSweepFull/Reselect in internal/pipeline
//     measure the resulting speedup.

// prepared pairs a workload with its pipeline result.
type prepared struct {
	w   workload
	res *pipeline.Result
}

// sweepOpts filters and adjusts a per-workload preparation pass.
type sweepOpts struct {
	// maxQubits skips workloads above this size (0 = no cap).
	maxQubits int
	// filter, when non-nil, additionally restricts the workload set.
	filter func(w workload) bool
	// mutate, when non-nil, adjusts the pipeline config before the runs.
	mutate func(pc *pipeline.Config)
}

// preparedWorkloads runs the QUEST pipeline once over every eligible
// benchmark workload. Errors are wrapped with the figure label so the
// caller can return them unadorned.
func preparedWorkloads(cfg Config, fig string, opt sweepOpts) ([]prepared, error) {
	ws, err := workloads(cfg)
	if err != nil {
		return nil, err
	}
	pc := pipelineConfig(cfg)
	if opt.mutate != nil {
		opt.mutate(&pc)
	}
	var out []prepared
	for _, w := range ws {
		if opt.maxQubits > 0 && w.circuit.NumQubits > opt.maxQubits {
			continue
		}
		if opt.filter != nil && !opt.filter(w) {
			continue
		}
		res, err := pipeline.Run(w.circuit, pc)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", fig, w.label(), err)
		}
		if len(res.Degradations) > 0 {
			cfg.printf("  [%s: %d of %d blocks degraded to exact sub-circuits under the time budget]\n",
				w.label(), len(res.Degradations), len(res.Blocks))
		}
		out = append(out, prepared{w, res})
	}
	return out, nil
}

// reselectSweep synthesizes a circuit once under base and re-runs the
// selection stage for each variant config, invoking fn with every result
// in order. Variants may change any selection-stage parameter (Epsilon,
// MaxSamples, CXWeight, AnnealIterations, ...) but must keep base's
// BlockSize. For ε sweeps, base should carry the tightest ε of the sweep:
// the tight threshold drives the most per-block retry widening, so the
// shared harvest satisfies every wider point too (see pipeline.Reselect
// for the reuse contract). M/weight sweeps at base's own ε are
// bit-identical to full per-point runs.
func reselectSweep(c *circuit.Circuit, base pipeline.Config, variants []pipeline.Config, fn func(i int, res *pipeline.Result) error) error {
	ctx := context.Background()
	art, err := pipeline.Synthesize(ctx, c, base)
	if err != nil {
		return fmt.Errorf("sweep synthesis: %w", err)
	}
	for i, v := range variants {
		res, err := pipeline.Reselect(ctx, art, v)
		if err != nil {
			return fmt.Errorf("sweep point %d: %w", i, err)
		}
		if err := fn(i, res); err != nil {
			return err
		}
	}
	return nil
}
