package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/noise"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// Fig16ThresholdSweep reproduces Fig. 16: sweeping the dual annealing
// engine's process-distance threshold. Small-to-moderate thresholds give
// good output over a wide range; a threshold that is too large admits
// coarse approximations and the output error spikes.
//
// The sweep synthesizes each circuit ONCE at the tightest ε of the sweep
// (the synthesis stage dominates the pipeline cost, Fig. 12) and re-runs
// only the selection stage per ε-point over the shared
// pipeline.SynthesisArtifact. The tightest point drives the most retry
// widening per block, so its harvest satisfies every wider threshold too
// (see pipeline.Reselect for the contract); absolute numbers can differ
// slightly from per-point full runs, the Σε ≤ threshold bound still holds
// exactly at every point, and the comparative shape — the reproduction
// target — is unchanged.
func Fig16ThresholdSweep(cfg Config) error {
	cfg.defaults()
	epsilons := []float64{0.01, 0.03, 0.05, 0.1, 0.2, 0.4, 0.8}
	steps := 3
	if !cfg.Quick {
		steps = 8
	}
	m := noise.Uniform(0.01)

	for _, cs := range caseStudyAlgos() {
		c := cs.build(steps)
		ideal := sim.Probabilities(c)
		truth := cs.observable(ideal, c.NumQubits)

		cfg.section(fmt.Sprintf("Fig 16: %s-4 output vs process-distance threshold", cs.name))
		cfg.printf("%12s %10s %10s %12s %14s\n",
			"eps/block", "samples", "meanCNOTs", "ideal TVD", "noisy obs |Δ|")

		base := pipelineConfig(cfg)
		base.Epsilon = epsilons[0]
		// The sweep studies the raw proportional threshold; lift the
		// safety cap so large ε values are actually exercised.
		base.ThresholdCap = 1e9
		variants := make([]pipeline.Config, len(epsilons))
		for i, eps := range epsilons {
			variants[i] = base
			variants[i].Epsilon = eps
		}
		err := reselectSweep(c, base, variants, func(i int, res *pipeline.Result) error {
			ens, err := res.EnsembleProbabilities(idealProbabilities)
			if err != nil {
				return err
			}
			noisyEns, err := res.EnsembleProbabilities(noisyRunner(m, 8192, cfg.Seed+5, true))
			if err != nil {
				return err
			}
			obs := cs.observable(noisyEns, c.NumQubits)
			cfg.printf("%12.2f %10d %10.1f %12.4f %14.4f\n",
				epsilons[i], len(res.Selected), meanCNOTs(res, false),
				metrics.TVD(ideal, ens), abs(truth-obs))
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
