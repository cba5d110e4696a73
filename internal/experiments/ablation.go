package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/algos"
	"repro/internal/metrics"
	"repro/internal/noise"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// Ablations lists the ablation studies available through RunAblation.
// Each targets one of the design choices DESIGN.md calls out:
//
//   - "selection":     dissimilar dual-annealing selection vs random
//     sampling of the approximation space (Sec. 3.6's motivating claim).
//   - "ensemble-size": output quality as the number of averaged samples M
//     grows (the Fig. 6 intuition).
//   - "weight":        the CNOT-vs-dissimilarity objective weight (the
//     paper fixes it at ½/½).
//   - "blocksize":     partition block size (the paper uses 4; this
//     reproduction defaults to 3).
func Ablations() []string {
	return []string{"selection", "ensemble-size", "weight", "blocksize"}
}

// RunAblation runs one named ablation study.
func RunAblation(which string, cfg Config) error {
	cfg.defaults()
	if err := cfg.resolveObjective(); err != nil {
		return err
	}
	switch which {
	case "selection":
		return ablateSelection(cfg)
	case "ensemble-size":
		return ablateEnsembleSize(cfg)
	case "weight":
		return ablateWeight(cfg)
	case "blocksize":
		return ablateBlockSize(cfg)
	}
	return fmt.Errorf("experiments: unknown ablation %q (have %v)", which, Ablations())
}

// ablationCircuit returns the study workload: the TFIM-4 evolution.
func ablationCircuit(cfg Config) *workload {
	steps := 3
	if !cfg.Quick {
		steps = 6
	}
	c := algos.TFIM(4, steps, 0.05, 1, 1)
	return &workload{name: "tfim", qubits: 4, circuit: c}
}

// randomFeasibleChoice draws a uniform random choice vector whose summed
// block distance respects the threshold (up to maxTries attempts; returns
// ok=false if none found).
func randomFeasibleChoice(blocks []pipeline.BlockApproximations, threshold float64, rng *rand.Rand, enforce bool) ([]int, bool) {
	const maxTries = 2000
	for try := 0; try < maxTries; try++ {
		choice := make([]int, len(blocks))
		var epsSum float64
		for b, ba := range blocks {
			i := rng.Intn(len(ba.Candidates))
			choice[b] = i
			epsSum += ba.Candidates[i].Distance
		}
		if !enforce || epsSum <= threshold {
			return choice, true
		}
	}
	return nil, false
}

// ablateSelection compares QUEST's apriori-controlled dissimilar
// selection with naive random sampling of the full approximation space —
// the paper's claim (Sec. 3.6) is that random sampling produces poor
// outputs (> 0.1 TVD) because the space mixes approximations of very
// different fidelities and CNOT counts.
func ablateSelection(cfg Config) error {
	w := ablationCircuit(cfg)
	ideal := sim.Probabilities(w.circuit)

	// QUEST at its normal threshold.
	res, err := questRun(*w, cfg)
	if err != nil {
		return err
	}
	m := len(res.Selected)
	if m < 2 {
		m = 2
	}
	questEns, err := res.EnsembleProbabilities(idealProbabilities)
	if err != nil {
		return err
	}

	// The raw approximation space: a pipeline run with a very permissive
	// per-block budget, so coarse approximations stay available — this is
	// what naive random sampling would draw from.
	widePC := pipelineConfig(cfg)
	widePC.Epsilon = 0.4
	widePC.ThresholdCap = 1e9 // raw space: no safety cap, no pruning
	widePC.MaxSamples = 1     // selection result unused; we only need Blocks
	wide, err := pipeline.Run(w.circuit, widePC)
	if err != nil {
		return err
	}

	cfg.section("Ablation: dissimilar selection vs random sampling (TFIM-4, ideal sim)")
	cfg.printf("%34s %10s %10s\n", "strategy", "samples", "TVD")
	cfg.printf("%34s %10d %10.4f\n", "QUEST (dissimilar, Σε bounded)", len(res.Selected), metrics.TVD(ideal, questEns))

	rng := rand.New(rand.NewSource(cfg.Seed + 41))
	for _, mode := range []struct {
		name      string
		blocks    []pipeline.BlockApproximations
		threshold float64
		enforce   bool
	}{
		{"random (within QUEST threshold)", res.Blocks, res.Threshold, true},
		{"random (full approx. space)", wide.Blocks, 0, false},
	} {
		const repeats = 5
		var worst, sum float64
		for r := 0; r < repeats; r++ {
			var dists [][]float64
			for s := 0; s < m; s++ {
				choice, ok := randomFeasibleChoice(mode.blocks, mode.threshold, rng, mode.enforce)
				if !ok {
					return fmt.Errorf("ablation: no feasible random choice found")
				}
				a, err := pipeline.Assemble(w.circuit.NumQubits, mode.blocks, choice)
				if err != nil {
					return err
				}
				dists = append(dists, sim.Probabilities(a.Circuit))
			}
			tvd := metrics.TVD(ideal, metrics.AverageDistributions(dists...))
			sum += tvd
			if tvd > worst {
				worst = tvd
			}
		}
		cfg.printf("%34s %10d %10.4f (worst %.4f over %d trials)\n",
			mode.name, m, sum/repeats, worst, repeats)
	}
	return nil
}

// ablateEnsembleSize sweeps the maximum ensemble size M.
func ablateEnsembleSize(cfg Config) error {
	w := ablationCircuit(cfg)
	ideal := sim.Probabilities(w.circuit)
	nm := noise.Uniform(0.01)

	// Heisenberg approximations deviate individually (unlike TFIM's,
	// which are individually accurate), so the Fig. 6 averaging effect
	// is visible here.
	steps := 3
	if !cfg.Quick {
		steps = 6
	}
	hc := algos.HeisenbergNeel(4, steps, 0.05, 1, 0.5)
	w = &workload{name: "heisenberg", qubits: 4, circuit: hc}
	ideal = sim.Probabilities(w.circuit)

	cfg.section("Ablation: ensemble size M (Heisenberg-4)")
	cfg.printf("%6s %10s %12s %12s\n", "M", "selected", "ideal TVD", "noisy TVD")
	// MaxSamples is a selection-stage parameter: synthesize once and
	// re-select per M. Each point is bit-identical to a full run at that
	// M (asserted by TestReselectAcrossMaxSamplesMatchesFullRuns).
	sizes := []int{1, 2, 4, 8}
	base := pipelineConfig(cfg)
	variants := make([]pipeline.Config, len(sizes))
	for i, m := range sizes {
		variants[i] = base
		variants[i].MaxSamples = m
	}
	return reselectSweep(w.circuit, base, variants, func(i int, res *pipeline.Result) error {
		ens, err := res.EnsembleProbabilities(idealProbabilities)
		if err != nil {
			return err
		}
		noisy, err := res.EnsembleProbabilities(noisyRunner(nm, 8192, cfg.Seed+5, true))
		if err != nil {
			return err
		}
		cfg.printf("%6d %10d %12.4f %12.4f\n",
			sizes[i], len(res.Selected), metrics.TVD(ideal, ens), metrics.TVD(ideal, noisy))
		return nil
	})
}

// ablateWeight sweeps the objective weight between CNOT count and
// dissimilarity.
func ablateWeight(cfg Config) error {
	w := ablationCircuit(cfg)
	ideal := sim.Probabilities(w.circuit)

	cfg.section("Ablation: CNOT-count weight in the Algorithm-1 objective (TFIM-4)")
	cfg.printf("%10s %10s %12s %12s\n", "cx weight", "samples", "mean CNOTs", "ideal TVD")
	for _, weight := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		pc := pipelineConfig(cfg)
		pc.CXWeight = weight
		res, err := pipeline.Run(w.circuit, pc)
		if err != nil {
			return err
		}
		ens, err := res.EnsembleProbabilities(idealProbabilities)
		if err != nil {
			return err
		}
		cfg.printf("%10.2f %10d %12.1f %12.4f\n",
			weight, len(res.Selected), meanCNOTs(res, false), metrics.TVD(ideal, ens))
	}
	return nil
}

// ablateBlockSize compares partition block sizes.
func ablateBlockSize(cfg Config) error {
	w := ablationCircuit(cfg)
	ideal := sim.Probabilities(w.circuit)
	base := float64(w.circuit.CNOTCount())

	sizes := []int{2, 3}
	if !cfg.Quick {
		sizes = []int{2, 3, 4}
	}
	cfg.section("Ablation: partition block size (TFIM-4)")
	cfg.printf("%6s %8s %12s %12s %12s\n", "size", "blocks", "quest red%", "ideal TVD", "time")
	for _, size := range sizes {
		pc := pipelineConfig(cfg)
		pc.BlockSize = size
		res, err := pipeline.Run(w.circuit, pc)
		if err != nil {
			return err
		}
		ens, err := res.EnsembleProbabilities(idealProbabilities)
		if err != nil {
			return err
		}
		cfg.printf("%6d %8d %12.1f %12.4f %12s\n",
			size, len(res.Blocks),
			reductionPct(base, meanCNOTs(res, false)),
			metrics.TVD(ideal, ens),
			res.Timing.Total().Round(1e6))
	}
	return nil
}
