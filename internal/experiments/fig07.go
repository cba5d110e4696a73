package experiments

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// Fig07BoundVsActual reproduces Fig. 7: the Sec. 3.8 theoretical upper
// bound Σ_k ε_k always dominates — and reasonably tracks — the actual
// process distance of the assembled full-circuit approximation.
func Fig07BoundVsActual(cfg Config) error {
	cfg.defaults()
	// A representative subset keeps the full-unitary comparison cheap;
	// the bound is additionally property-tested in internal/pipeline.
	subset := map[string]bool{"tfim": true, "xy": true, "qft": true, "adder": true}
	prep, err := preparedWorkloads(cfg, "fig7", sweepOpts{
		maxQubits: 6,
		filter:    func(w workload) bool { return subset[w.name] },
	})
	if err != nil {
		return err
	}
	cfg.section("Fig 7: theoretical upper bound vs actual full-circuit process distance")
	cfg.printf("%16s %8s %12s %12s %8s\n", "algorithm", "sample", "bound Σε", "actual HS", "ok")

	violations := 0
	checked := 0
	for _, pr := range prep {
		w, res := pr.w, pr.res
		orig := sim.Unitary(w.circuit)
		for i, a := range res.Selected {
			actual := linalg.HSDistance(orig, sim.Unitary(a.Circuit))
			bound := a.EpsilonSum
			// 1e-6 tolerance: HS distances near zero amplify float
			// round-off through the square root.
			ok := actual <= bound+1e-6
			checked++
			if !ok {
				violations++
			}
			cfg.printf("%16s %8d %12.5f %12.5f %8v\n", w.label(), i, bound, actual, ok)
		}
	}
	cfg.printf("bound respected in %d/%d samples\n", checked-violations, checked)
	if violations > 0 {
		return fmt.Errorf("fig7: bound violated on %d samples", violations)
	}
	_ = pipeline.UpperBound // the bound helper under test
	return nil
}
