package experiments

import (
	"fmt"

	"repro/internal/pipeline"

	"repro/internal/circuit"
	"repro/internal/metrics"
	"repro/internal/noise"
	"repro/internal/sim"
	"repro/internal/transpile"
)

// Fig10Manila reproduces Fig. 10: TVD from ground truth on the (synthetic)
// IBMQ Manila device for Qiskit-only vs QUEST + Qiskit, on the benchmarks
// that fit the 5-qubit machine. QUEST + Qiskit should reduce the TVD, in
// some cases by tens of percentage points.
func Fig10Manila(cfg Config) error {
	cfg.defaults()
	// Device runs use a per-block budget of 0.1, the noisy-execution
	// optimum identified by the Fig. 16 threshold study (the paper
	// likewise selects its threshold constant from that sweep).
	prep, err := preparedWorkloads(cfg, "fig10", sweepOpts{
		maxQubits: 5,
		mutate:    func(pc *pipeline.Config) { pc.Epsilon = 0.1 },
	})
	if err != nil {
		return err
	}
	dev := noise.Manila()
	const shots = 8192
	const trajectories = 300 // stabilize the trajectory average

	// Standalone runs parallelize across trajectories; ensemble runs keep
	// trajectories serial because the ensemble itself fans out.
	deviceRun := func(c *circuit.Circuit, seed int64, workers int) ([]float64, error) {
		opt := transpile.Optimize(c)
		return dev.Run(opt, noise.Options{
			Shots: shots, Trajectories: trajectories, Seed: seed, Parallelism: workers,
		})
	}

	cfg.section("Fig 10: TVD on the Manila-class device (Qiskit vs QUEST+Qiskit)")
	cfg.printf("%16s %12s %16s %12s\n", "algorithm", "qiskit TVD", "quest+qiskit TVD", "Δ (pts)")

	for _, pr := range prep {
		w, res := pr.w, pr.res
		ideal := sim.Probabilities(w.circuit)

		qp, err := deviceRun(w.circuit, cfg.Seed, cfg.Parallelism)
		if err != nil {
			return fmt.Errorf("fig10 %s qiskit: %w", w.label(), err)
		}
		qiskitTVD := metrics.TVD(ideal, qp)

		ens, err := res.EnsembleProbabilitiesWorkers(func(c *circuit.Circuit) ([]float64, error) {
			return deviceRun(c, cfg.Seed, 1)
		}, cfg.Parallelism)
		if err != nil {
			return err
		}
		questTVD := metrics.TVD(ideal, ens)
		cfg.printf("%16s %12.4f %16.4f %12.4f\n", w.label(), qiskitTVD, questTVD, qiskitTVD-questTVD)
	}
	return nil
}
