// Package quest is the public API of this repository: a from-scratch Go
// reproduction of QUEST (Patel et al., ASPLOS 2022), a procedure that
// systematically approximates quantum circuits to reduce their CNOT gate
// count and thereby increase output fidelity on noisy quantum hardware.
//
// The pipeline (see DESIGN.md for the full architecture):
//
//  1. Partition the circuit into blocks of at most Config.BlockSize qubits
//     with a single-scan partitioner.
//  2. Approximately synthesize every block with a LEAP-style bottom-up
//     compiler, harvesting many candidate circuits across CNOT counts.
//  3. Select up to Config.MaxSamples mathematically "dissimilar" low-CNOT
//     full-circuit approximations with a dual annealing engine driven by
//     the paper's Algorithm 1; the per-block process distances bound the
//     full-circuit Hilbert-Schmidt distance (Sec. 3.8 theorem).
//  4. Average the output distributions of the selected approximations.
//
// Quick start:
//
//	c, _ := quest.GenerateBenchmark("tfim", 4)
//	res, _ := quest.Approximate(c, quest.Config{})
//	fmt.Println("CNOTs:", c.CNOTCount(), "->", res.BestCNOTs())
//	out, _ := res.EnsembleProbabilities(quest.IdealRunner())
package quest

import (
	"context"

	"repro/internal/algos"
	"repro/internal/backend"
	"repro/internal/budget"
	"repro/internal/circuit"
	"repro/internal/metrics"
	"repro/internal/noise"
	"repro/internal/pipeline"
	"repro/internal/qasm"
	"repro/internal/sim"
	"repro/internal/transpile"
)

// Typed pipeline-termination errors. Every error returned by ApproximateCtx
// (and the other *Ctx entry points) because a budget ran out wraps one of
// these, so callers can classify failures with errors.Is:
//
//	res, err := quest.ApproximateCtx(ctx, c, cfg)
//	if errors.Is(err, quest.ErrDeadline) { ... } // timed out
var (
	// ErrDeadline marks work aborted because a deadline or per-stage time
	// budget expired.
	ErrDeadline = budget.ErrDeadline
	// ErrCancelled marks work aborted because the context was cancelled.
	ErrCancelled = budget.ErrCancelled
	// ErrNoConvergence marks an optimizer or synthesis attempt that
	// exhausted its iteration budget without reaching its target. It is
	// retryable: the pipeline re-seeds and widens the search before
	// degrading the block.
	ErrNoConvergence = budget.ErrNoConvergence
)

// Circuit is the quantum circuit IR: an ordered list of gate operations.
// Build circuits with New plus the gate methods (H, CX, RZ, ...), or parse
// OpenQASM 2.0 with ParseQASM.
type Circuit = circuit.Circuit

// Config controls the QUEST pipeline; the zero value selects paper-like
// defaults. See the field documentation in internal/pipeline.
type Config = pipeline.Config

// Result is the pipeline outcome: the per-block approximation sets, the
// selected dissimilar approximations and the stage timing breakdown.
type Result = pipeline.Result

// Approximation is one selected full-circuit approximation.
type Approximation = pipeline.Approximation

// Degradation records a block that fell back to its exact (transpiled)
// sub-circuit after synthesis retries were exhausted or a budget expired.
// Degraded runs still produce a valid Result; Result.Degradations lists
// every substitution.
type Degradation = pipeline.Degradation

// Runner executes a circuit and returns an output distribution.
type Runner = pipeline.Runner

// RunnerCtx is a context-aware Runner; see Result.EnsembleProbabilitiesCtx.
type RunnerCtx = pipeline.RunnerCtx

// NoiseModel is a stochastic Pauli gate-error model.
type NoiseModel = noise.Model

// Device models a NISQ machine (error model + coupling constraints).
type Device = noise.Device

// New returns an empty circuit on n qubits.
func New(n int) *Circuit { return circuit.New(n) }

// ParseQASM parses an OpenQASM 2.0 program.
func ParseQASM(src string) (*Circuit, error) { return qasm.Parse(src) }

// WriteQASM renders a circuit as an OpenQASM 2.0 program.
func WriteQASM(c *Circuit) string { return qasm.Write(c) }

// Approximate runs the full QUEST pipeline on a circuit.
func Approximate(c *Circuit, cfg Config) (*Result, error) { return pipeline.Run(c, cfg) }

// ApproximateCtx runs the full QUEST pipeline under a context. The run
// stops at the earliest of ctx's deadline/cancellation and cfg.Timeout;
// per-block synthesis is additionally bounded by cfg.BlockTimeout and
// retried up to cfg.MaxRestarts times. On budget exhaustion the error
// wraps ErrDeadline or ErrCancelled — unless cfg.AllowDegraded is set, in
// which case unfinished blocks degrade to their exact sub-circuits and a
// valid Result is returned with the substitutions in Result.Degradations.
func ApproximateCtx(ctx context.Context, c *Circuit, cfg Config) (*Result, error) {
	return pipeline.RunCtx(ctx, c, cfg)
}

// GenerateBenchmark builds one of the paper's Table-1 benchmark circuits
// ("adder", "heisenberg", "hlf", "qft", "qaoa", "multiplier", "tfim",
// "vqe", "xy") on approximately n qubits.
func GenerateBenchmark(name string, n int) (*Circuit, error) { return algos.Generate(name, n) }

// Benchmarks lists the benchmark names accepted by GenerateBenchmark.
func Benchmarks() []string { return algos.Names() }

// Simulate returns the ideal output distribution of the circuit from
// |0...0>.
func Simulate(c *Circuit) []float64 { return sim.Probabilities(c) }

// UniformNoise returns the paper's Pauli noise model at level p (two-qubit
// error p, one-qubit error p/10, readout error p).
func UniformNoise(p float64) NoiseModel { return noise.Uniform(p) }

// SimOptions configures a noisy run: shots, trajectory budget, seed, and
// the worker-goroutine cap (alias of noise.Options; see the field docs
// there). Output is deterministic in (Shots, Trajectories, Seed) and
// bit-identical for every Parallelism value.
type SimOptions = noise.Options

// SimulateNoisy runs the circuit under a noise model with the given number
// of measurement shots (0 for exact trajectory-averaged probabilities) and
// seed, and returns the output distribution.
func SimulateNoisy(c *Circuit, m NoiseModel, shots int, seed int64) []float64 {
	return m.Run(c, noise.Options{Shots: shots, Seed: seed})
}

// SimulateNoisyOpts is SimulateNoisy with full control over the trajectory
// budget and the parallel fan-out.
func SimulateNoisyOpts(c *Circuit, m NoiseModel, opts SimOptions) []float64 {
	return m.Run(c, opts)
}

// SimulateNoisyCtx is SimulateNoisyOpts under a context: the trajectory
// loop aborts on cancellation or deadline with an error wrapping
// ErrCancelled or ErrDeadline.
func SimulateNoisyCtx(ctx context.Context, c *Circuit, m NoiseModel, opts SimOptions) ([]float64, error) {
	return m.RunCtx(ctx, c, opts)
}

// Manila returns the synthetic IBMQ-Manila-class 5-qubit device model used
// by the hardware experiments.
func Manila() *Device { return noise.Manila() }

// RunOnDevice routes the circuit onto the device and simulates it under
// the device noise model, returning the distribution in logical qubit
// order.
func RunOnDevice(d *Device, c *Circuit, shots int, seed int64) ([]float64, error) {
	return d.Run(c, noise.Options{Shots: shots, Seed: seed})
}

// RunOnDeviceOpts is RunOnDevice with full control over the trajectory
// budget and the parallel fan-out.
func RunOnDeviceOpts(d *Device, c *Circuit, opts SimOptions) ([]float64, error) {
	return d.Run(c, opts)
}

// RunOnDeviceCtx is RunOnDeviceOpts under a context: routing happens
// up front and the trajectory loop aborts on cancellation or deadline
// with an error wrapping ErrCancelled or ErrDeadline.
func RunOnDeviceCtx(ctx context.Context, d *Device, c *Circuit, opts SimOptions) ([]float64, error) {
	return d.RunCtx(ctx, c, opts)
}

// OptimizeQiskitStyle applies the Qiskit-like transpiler baseline (lower
// to {u3, cx}, fuse, cancel) used as the comparison point in the paper.
func OptimizeQiskitStyle(c *Circuit) *Circuit { return transpile.Optimize(c) }

// LowerToBasis rewrites the circuit into the {u3, cx} basis without
// further optimization; the paper's Baseline CNOT counts are defined on
// this form.
func LowerToBasis(c *Circuit) *Circuit { return transpile.Lower(c) }

// TVD returns the total variation distance between two distributions.
func TVD(p, q []float64) float64 { return metrics.TVD(p, q) }

// JSD returns the Jensen-Shannon distance between two distributions.
func JSD(p, q []float64) float64 { return metrics.JSD(p, q) }

// IdealRunner returns a Runner backed by the ideal simulator backend.
func IdealRunner() Runner {
	return backend.AsRunner(backend.Ideal(), 0, 0)
}

// NoisyRunner returns a Runner backed by the noisy simulator backend.
func NoisyRunner(m NoiseModel, shots int, seed int64) Runner {
	return backend.AsRunner(backend.FromModel("noisy", m), shots, seed)
}

// DeviceRunner returns a Runner that routes onto and runs a device model
// backend.
func DeviceRunner(d *Device, shots int, seed int64) Runner {
	return backend.AsRunner(backend.FromDevice(d), shots, seed)
}
