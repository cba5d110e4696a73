// Package experiments regenerates every figure of the QUEST evaluation
// (Sec. 4) as a text table: the motivation study (Fig. 1), the exact-
// synthesis scatter (Fig. 4), the bound validation (Fig. 7), CNOT
// reduction (Fig. 8), ideal output distance (Fig. 9), the Manila hardware
// comparison (Fig. 10), the noise sweep (Fig. 11), pipeline overhead
// (Fig. 12), the TFIM/Heisenberg case studies (Fig. 13-15) and the
// threshold sensitivity study (Fig. 16).
//
// Each figure has a Quick variant (small circuits, small search budgets)
// used by the bench harness, and a full variant closer to the paper's
// parameters. Absolute numbers differ from the paper (different hardware,
// simulated devices — see DESIGN.md); the comparative shapes are the
// reproduction target and are recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/algos"
	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/noise"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/transpile"
	"repro/internal/ucache"
)

// Config selects the experiment scale and output sink.
type Config struct {
	// Quick selects reduced workload sizes and search budgets.
	Quick bool
	// Seed seeds every stochastic component (default 1).
	Seed int64
	// Parallelism bounds the worker goroutines used by the pipeline and
	// the noisy simulator (0 or negative selects runtime.NumCPU()).
	// Results are identical for every value.
	Parallelism int
	// Timeout bounds each pipeline run within a figure (0 = none). Runs
	// that exhaust it degrade unfinished blocks to their exact
	// sub-circuits rather than failing the figure, so a bounded sweep
	// always completes — degraded points are just closer to the baseline.
	Timeout time.Duration
	// BlockTimeout bounds each per-block synthesis attempt (0 = none).
	BlockTimeout time.Duration
	// MaxRestarts caps the synthesis retries per block (0 = pipeline
	// default, negative = no retries).
	MaxRestarts int
	// SynthCache, when non-nil, memoizes block synthesis across every
	// pipeline run of a figure (see internal/ucache): sweeps that revisit
	// the same circuit at many ε-points or noise levels synthesize each
	// distinct block once. A strict-mode cache leaves every figure's
	// numbers bit-identical; it only changes how fast they appear.
	SynthCache *ucache.Cache
	// Objective names the selection objective ("cnot",
	// "fidelity[:<backend>]", "hybrid:<w>[:<backend>]"); empty keeps the
	// paper's cnot objective. Figures that compare objectives internally
	// (Fig. 17) ignore it.
	Objective string
	// Out receives the result tables; nil means io.Discard. Callers that
	// want them printed typically set os.Stdout.
	Out io.Writer

	// objective is the resolved Objective spec (see resolveObjective).
	objective pipeline.Objective
}

func (c *Config) defaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
}

// resolveObjective turns the Objective spec into the pipeline objective
// pipelineConfig installs; the empty spec resolves to the cnot default.
func (c *Config) resolveObjective() error {
	if c.Objective == "" {
		c.objective = nil
		return nil
	}
	obj, err := backend.Objective(c.Objective)
	if err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	c.objective = obj
	return nil
}

func (c *Config) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}

func (c *Config) section(title string) {
	fmt.Fprintf(c.Out, "\n== %s ==\n", title)
}

// Figures lists the figure numbers Run accepts.
func Figures() []int { return []int{1, 4, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17} }

// Run regenerates one figure of the paper.
func Run(fig int, cfg Config) error {
	cfg.defaults()
	if err := cfg.resolveObjective(); err != nil {
		return err
	}
	switch fig {
	case 1:
		return Fig01Motivation(cfg)
	case 4:
		return Fig04ExactSynthScatter(cfg)
	case 7:
		return Fig07BoundVsActual(cfg)
	case 8:
		return Fig08CNOTReduction(cfg)
	case 9:
		return Fig09IdealOutputDistance(cfg)
	case 10:
		return Fig10Manila(cfg)
	case 11:
		return Fig11NoiseSweep(cfg)
	case 12:
		return Fig12Overhead(cfg)
	case 13:
		return Fig13CaseStudy(cfg)
	case 14:
		return Fig14CaseStudyNoise(cfg)
	case 15:
		return Fig15CircuitIllustration(cfg)
	case 16:
		return Fig16ThresholdSweep(cfg)
	case 17:
		return Fig17ObjectiveComparison(cfg)
	}
	return fmt.Errorf("experiments: no figure %d (have %v)", fig, Figures())
}

// workload is one (algorithm, size) evaluation point.
type workload struct {
	name    string
	qubits  int
	circuit *circuit.Circuit
}

func (w workload) label() string { return fmt.Sprintf("%s-%d", w.name, w.circuit.NumQubits) }

// workloads returns the Fig. 8/9/11/12 benchmark set. Quick mode uses the
// 4-qubit instances; full mode adds larger ones (output-distance figures
// cap themselves at what the simulator can hold).
func workloads(cfg Config) ([]workload, error) {
	sizes := []int{4}
	if !cfg.Quick {
		sizes = []int{4, 5, 6}
	}
	var out []workload
	for _, name := range algos.Names() {
		for _, n := range sizes {
			c, err := algos.Generate(name, n)
			if err != nil {
				return nil, err
			}
			// Generate may round sizes (adder/multiplier); skip dups.
			dup := false
			for _, w := range out {
				if w.name == name && w.circuit.NumQubits == c.NumQubits {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			out = append(out, workload{name: name, qubits: n, circuit: c})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].circuit.NumQubits < out[j].circuit.NumQubits
	})
	return out, nil
}

// pipelineConfig returns the pipeline.Config used by the experiments.
func pipelineConfig(cfg Config) pipeline.Config {
	pc := pipeline.Config{
		BlockSize:        3,
		Epsilon:          0.05,
		MaxSamples:       8,
		AnnealIterations: 250,
		Parallelism:      cfg.Parallelism,
		Seed:             cfg.Seed,
		Timeout:          cfg.Timeout,
		BlockTimeout:     cfg.BlockTimeout,
		MaxRestarts:      cfg.MaxRestarts,
		SynthCache:       cfg.SynthCache,
		Objective:        cfg.objective,
		// A figure with a time budget should still complete: degraded
		// blocks fall back to the exact sub-circuit (= baseline quality).
		AllowDegraded: cfg.Timeout > 0 || cfg.BlockTimeout > 0,
	}
	if cfg.Quick {
		pc.MaxSamples = 6
		pc.AnnealIterations = 200
		pc.SynthKeepPerDepth = 3
	} else {
		pc.MaxSamples = 16
		pc.AnnealIterations = 500
		pc.SynthRestarts = 2
	}
	return pc
}

// questRun runs the QUEST pipeline on a workload. Runs bounded by
// cfg.Timeout/cfg.BlockTimeout may degrade blocks to their exact
// sub-circuits instead of failing; any substitutions are noted in the
// figure output so a degraded data point is never silent.
func questRun(w workload, cfg Config) (*pipeline.Result, error) {
	res, err := pipeline.Run(w.circuit, pipelineConfig(cfg))
	if err == nil && len(res.Degradations) > 0 {
		cfg.printf("  [%s: %d of %d blocks degraded to exact sub-circuits under the time budget]\n",
			w.label(), len(res.Degradations), len(res.Blocks))
	}
	return res, err
}

// meanCNOTs returns the mean CNOT count of the selected approximations,
// optionally after applying the Qiskit-style optimizer to each.
func meanCNOTs(res *pipeline.Result, withQiskit bool) float64 {
	var s float64
	for _, a := range res.Selected {
		c := a.Circuit
		if withQiskit {
			c = transpile.Optimize(c)
		}
		s += float64(c.CNOTCount())
	}
	return s / float64(len(res.Selected))
}

// reductionPct returns the percent reduction from base to v.
func reductionPct(base, v float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (base - v) / base
}

// idealProbabilities is the ground truth runner.
func idealProbabilities(c *circuit.Circuit) ([]float64, error) {
	return sim.Probabilities(c), nil
}

// noisyRunner returns a pipeline.Runner for a uniform Pauli model, optionally
// applying the Qiskit-style optimizer before execution (the paper's
// "QUEST + Qiskit" configuration). The ensemble already fans out across
// approximations, so each run keeps its trajectories serial
// (Parallelism 1) rather than oversubscribing the worker budget.
func noisyRunner(m noise.Model, shots int, seed int64, qiskit bool) pipeline.Runner {
	return func(c *circuit.Circuit) ([]float64, error) {
		if qiskit {
			c = transpile.Optimize(c)
		}
		return m.Run(c, noise.Options{Shots: shots, Seed: seed, Parallelism: 1}), nil
	}
}
