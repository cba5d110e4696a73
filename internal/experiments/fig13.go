package experiments

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/noise"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/transpile"
)

// Fig13CaseStudy reproduces Fig. 13: the TFIM and Heisenberg time
// evolutions on the Manila-class device. Every timestep is a separate
// circuit compiled separately with QUEST, exactly as in the paper. The
// QUEST + Qiskit curve should track the ground truth much more closely
// than the Qiskit-only curve.
func Fig13CaseStudy(cfg Config) error {
	cfg.defaults()
	dev := noise.Manila()
	const shots = 8192

	run := func(c *circuit.Circuit, seed int64) ([]float64, error) {
		return dev.Run(transpile.Optimize(c), noise.Options{Shots: shots, Seed: seed})
	}
	return caseStudy(cfg, "Fig 13 (Manila-class device)", run)
}

// caseStudy renders a ground-truth / Qiskit / QUEST+Qiskit observable
// table over the time evolution for both case-study algorithms, using the
// provided noisy runner.
func caseStudy(cfg Config, title string, run func(*circuit.Circuit, int64) ([]float64, error)) error {
	for _, cs := range caseStudyAlgos() {
		cfg.section(fmt.Sprintf("%s: %s-4 %s", title, cs.name, cs.obsName))
		cfg.printf("%6s %10s %10s %14s %10s %10s\n",
			"step", "truth", "qiskit", "quest+qiskit", "qiskit|Δ|", "quest|Δ|")

		for _, steps := range caseStudySteps(cfg) {
			c := cs.build(steps)
			n := c.NumQubits
			truth := cs.observable(sim.Probabilities(c), n)

			qp, err := run(c, cfg.Seed+int64(steps))
			if err != nil {
				return err
			}
			qiskitObs := cs.observable(qp, n)

			res, err := pipeline.Run(c, pipelineConfig(cfg))
			if err != nil {
				return fmt.Errorf("case study %s step %d: %w", cs.name, steps, err)
			}
			ens, err := res.EnsembleProbabilities(func(a *circuit.Circuit) ([]float64, error) {
				return run(a, cfg.Seed+int64(steps)+101)
			})
			if err != nil {
				return err
			}
			questObs := cs.observable(ens, n)

			cfg.printf("%6d %10.4f %10.4f %14.4f %10.4f %10.4f\n",
				steps, truth, qiskitObs, questObs,
				abs(truth-qiskitObs), abs(truth-questObs))
		}
	}
	return nil
}
