package experiments

import (
	"fmt"

	"repro/internal/pipeline"
	"repro/internal/transpile"
)

// Fig15CircuitIllustration reproduces Fig. 15: the CNOT count of the
// Baseline circuit structure vs one QUEST approximation, for a deep TFIM
// timestep and a deep Heisenberg timestep. The paper's example reduces a
// 900-CNOT Heisenberg circuit to 11 CNOTs.
func Fig15CircuitIllustration(cfg Config) error {
	cfg.defaults()
	deepSteps := 6
	if !cfg.Quick {
		deepSteps = 25
	}
	for _, cs := range caseStudyAlgos() {
		c := cs.build(deepSteps)
		cfg.section(fmt.Sprintf("Fig 15: %s-4 at timestep %d", cs.name, deepSteps))
		cfg.printf("baseline: %d ops, %d CNOTs, depth %d\n",
			c.Size(), c.CNOTCount(), c.Depth())

		res, err := pipeline.Run(c, pipelineConfig(cfg))
		if err != nil {
			return err
		}
		best := res.Selected[0]
		for _, a := range res.Selected {
			if a.CNOTs < best.CNOTs {
				best = a
			}
		}
		opt := transpile.Optimize(best.Circuit)
		cfg.printf("QUEST approximation: %d ops, %d CNOTs, depth %d (bound Σε = %.4f)\n",
			best.Circuit.Size(), best.CNOTs, best.Circuit.Depth(), best.EpsilonSum)
		cfg.printf("QUEST + Qiskit:      %d ops, %d CNOTs, depth %d\n",
			opt.Size(), opt.CNOTCount(), opt.Depth())
		cfg.printf("reduction: %.1f%%\n", reductionPct(float64(c.CNOTCount()), float64(opt.CNOTCount())))
	}
	return nil
}
