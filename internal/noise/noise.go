// Package noise implements the noisy execution substrate that stands in
// for the paper's IBMQ QASM simulator and IBMQ Manila hardware runs: a
// Monte-Carlo Pauli-trajectory statevector simulator with configurable
// per-gate error rates, analytic readout bit-flip errors, finite-shot
// sampling, and a synthetic Manila-class 5-qubit linear device.
//
// Substitution note (documented in DESIGN.md): real-hardware runs are
// replaced by this model. It preserves what matters for QUEST's claims —
// two-qubit errors dominate one-qubit errors by roughly an order of
// magnitude, and error compounds with gate count — so the comparative
// shapes of the paper's fidelity results are exercised end to end.
package noise

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/budget"
	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/linalg"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/transpile"
)

// Model is a stochastic Pauli error model with optional amplitude
// damping.
type Model struct {
	// OneQubitError is the probability that each qubit touched by a
	// one-qubit gate suffers a random Pauli afterwards.
	OneQubitError float64
	// TwoQubitError is the same probability for two-qubit gates (applied
	// independently to each involved qubit).
	TwoQubitError float64
	// ReadoutError is the per-qubit measurement bit-flip probability.
	ReadoutError float64
	// DampingError is the per-qubit amplitude-damping (T1 relaxation)
	// probability applied after every gate to each involved qubit,
	// simulated with the quantum-jump method.
	DampingError float64
}

// Uniform returns the paper's p_gate Pauli model at level p: two-qubit
// error p, one-qubit error p/10 (the paper notes CNOT error is an order
// of magnitude above one-qubit error), readout error p.
func Uniform(p float64) Model {
	return Model{OneQubitError: p / 10, TwoQubitError: p, ReadoutError: p}
}

// IsZero reports whether the model introduces no errors.
func (m Model) IsZero() bool {
	return m.OneQubitError == 0 && m.TwoQubitError == 0 && m.ReadoutError == 0 &&
		m.DampingError == 0
}

var paulis = [3]*linalg.Matrix{gate.PauliX, gate.PauliY, gate.PauliZ}

// Trajectory runs one Monte-Carlo noise trajectory of the circuit from
// |0...0> and returns the final statevector.
func (m Model) Trajectory(c *circuit.Circuit, rng *rand.Rand) linalg.Vector {
	state := make(linalg.Vector, 1<<c.NumQubits)
	m.trajectory(c, opMatrices(c), state, rng)
	return state
}

// opMatrices builds the gate matrix of every op of c, in op order. A run
// builds them once and shares them, read-only, across its trajectories.
func opMatrices(c *circuit.Circuit) []*linalg.Matrix {
	mats := make([]*linalg.Matrix, len(c.Ops))
	for i, op := range c.Ops {
		mats[i] = op.Spec().Build(op.Params)
	}
	return mats
}

// trajectory is Trajectory with the op matrices prebuilt by opMatrices,
// run in the caller's state buffer: state is reset to |0...0> first, so
// one buffer serves many trajectories.
func (m Model) trajectory(c *circuit.Circuit, mats []*linalg.Matrix, state linalg.Vector, rng *rand.Rand) {
	clear(state)
	state[0] = 1
	m.trajectoryFrom(c, mats, state, 0, rng)
}

// trajectoryFrom runs ops from, from+1, ... of one trajectory on state,
// which must hold the trajectory's state before op from.
func (m Model) trajectoryFrom(c *circuit.Circuit, mats []*linalg.Matrix, state linalg.Vector, from int, rng *rand.Rand) {
	for i := from; i < len(c.Ops); i++ {
		op := c.Ops[i]
		sim.ApplyMatrixOp(state, c.NumQubits, mats[i], op.Qubits)
		p := m.errorRate(op)
		for j, q := range op.Qubits {
			if p > 0 && rng.Float64() < p {
				sim.ApplyMatrixOp(state, c.NumQubits, paulis[rng.Intn(3)], op.Qubits[j:j+1])
			}
			if m.DampingError > 0 {
				amplitudeDampingJump(state, c.NumQubits, q, m.DampingError, rng)
			}
		}
	}
}

// errorRate is the Pauli error probability of each qubit op touches.
func (m Model) errorRate(op circuit.Op) float64 {
	if len(op.Qubits) >= 2 {
		return m.TwoQubitError
	}
	return m.OneQubitError
}

// amplitudeDampingJump applies one quantum-jump step of the amplitude
// damping channel with decay probability gamma to qubit q: with
// probability gamma·P(q=1) the qubit decays to |0> (jump), otherwise the
// no-jump Kraus operator diag(1, sqrt(1-gamma)) is applied; both branches
// are renormalized. Averaged over trajectories this reproduces the exact
// channel (validated against package density in the tests).
func amplitudeDampingJump(state linalg.Vector, n, q int, gamma float64, rng *rand.Rand) {
	p1 := excitedPopulation(state, q)
	if p1 == 0 {
		return
	}
	pJump := gamma * p1
	if rng.Float64() < pJump {
		// Jump: K1 = sqrt(γ)|0><1| moves every q=1 amplitude onto its
		// q=0 partner and annihilates the rest; renormalize by sqrt(p1).
		bit := 1 << q
		inv := complex(1/math.Sqrt(p1), 0)
		for i := range state {
			if i&bit == 0 {
				state[i] = state[i|bit] * inv
			}
		}
		for i := range state {
			if i&bit != 0 {
				state[i] = 0
			}
		}
		return
	}
	dampNoJump(state, q, gamma, pJump)
}

// excitedPopulation is P(q=1) in state.
func excitedPopulation(state linalg.Vector, q int) float64 {
	bit := 1 << q
	var p1 float64
	for i, amp := range state {
		if i&bit != 0 {
			p1 += real(amp)*real(amp) + imag(amp)*imag(amp)
		}
	}
	return p1
}

// dampNoJump applies the no-jump branch of a damping step whose jump
// probability was pJump: K0 = diag(1, sqrt(1-gamma)) on qubit q, then
// renormalization.
func dampNoJump(state linalg.Vector, q int, gamma, pJump float64) {
	bit := 1 << q
	scale := complex(math.Sqrt(1-gamma), 0)
	for i := range state {
		if i&bit != 0 {
			state[i] *= scale
		}
	}
	norm := complex(1/math.Sqrt(1-pJump), 0)
	for i := range state {
		state[i] *= norm
	}
}

// addProbabilities adds the basis-state probabilities of state into acc.
func addProbabilities(acc []float64, state linalg.Vector) {
	for k, amp := range state {
		acc[k] += real(amp)*real(amp) + imag(amp)*imag(amp)
	}
}

// checkpointBytes bounds the memory one run spends on error-free-path
// checkpoints (the checkpoint at op 0 is kept even when one state alone
// exceeds it). It is a variable only so tests can shrink it.
var checkpointBytes = 256 << 10

// freePath is a circuit's error-free path under a model: the trajectory
// in which no Pauli error and no damping jump fires. Every trajectory
// follows it until its first firing draw, so a run computes it once and
// each trajectory starts from what it already knows.
type freePath struct {
	// stride is the op distance between checkpoints; checkpoints[k] is
	// the path's state before op k·stride, and draws[k] is how many
	// Float64 calls a trajectory has made by then.
	stride      int
	checkpoints []linalg.Vector
	draws       []int
	// p1 holds, in trajectory order (op by op, qubit by qubit), the
	// excited population each damping step reads; nil without damping.
	p1 []float64
	// probs are the path's output probabilities.
	probs []float64
}

// errorFreePath runs c's error-free path once, with the same gate and
// damping arithmetic as trajectoryFrom, and keeps checkpoints within
// checkpointBytes.
func (m Model) errorFreePath(c *circuit.Circuit, mats []*linalg.Matrix) *freePath {
	dim := 1 << c.NumQubits
	perBudget := max(1, checkpointBytes/(16*dim))
	stride := max(1, (len(c.Ops)+perBudget-1)/perBudget)
	n := (len(c.Ops) + stride - 1) / stride
	fp := &freePath{stride: stride, checkpoints: make([]linalg.Vector, 0, n), draws: make([]int, 0, n)}
	store := make(linalg.Vector, n*dim)
	state := make(linalg.Vector, dim)
	state[0] = 1
	draws := 0
	for i, op := range c.Ops {
		if i%stride == 0 {
			k := i / stride
			fp.checkpoints = append(fp.checkpoints, store[k*dim:(k+1)*dim:(k+1)*dim])
			copy(fp.checkpoints[k], state)
			fp.draws = append(fp.draws, draws)
		}
		sim.ApplyMatrixOp(state, c.NumQubits, mats[i], op.Qubits)
		p := m.errorRate(op)
		for _, q := range op.Qubits {
			if p > 0 {
				draws++
			}
			if m.DampingError > 0 {
				p1 := excitedPopulation(state, q)
				fp.p1 = append(fp.p1, p1)
				if p1 != 0 {
					draws++
					dampNoJump(state, q, m.DampingError, m.DampingError*p1)
				}
			}
		}
	}
	fp.probs = make([]float64, dim)
	addProbabilities(fp.probs, state)
	return fp
}

// firstError makes a trajectory's draws along the error-free path, in
// trajectoryFrom's order, and returns the op whose draw first fires (a
// Pauli error or a damping jump), or len(c.Ops) when none does.
func (m Model) firstError(c *circuit.Circuit, fp *freePath, rng *rand.Rand) int {
	k := 0
	for i, op := range c.Ops {
		p := m.errorRate(op)
		for range op.Qubits {
			if p > 0 && rng.Float64() < p {
				return i
			}
			if m.DampingError > 0 {
				p1 := fp.p1[k]
				k++
				if p1 != 0 && rng.Float64() < m.DampingError*p1 {
					return i
				}
			}
		}
	}
	return len(c.Ops)
}

// Options configures a noisy run.
type Options struct {
	// Shots is the number of measurement samples; 0 means return exact
	// trajectory-averaged probabilities without shot noise.
	Shots int
	// Trajectories is the number of Monte-Carlo noise trajectories
	// averaged (default 100).
	Trajectories int
	// Seed makes the run deterministic (default 1).
	Seed int64
	// Parallelism bounds the worker goroutines used to run trajectories
	// concurrently (0 or negative selects runtime.NumCPU()). The output
	// is bit-identical for every Parallelism value: trajectory t always
	// draws from its own RNG stream derived from (Seed, t), and partial
	// sums are reduced in a fixed order.
	Parallelism int
}

func (o *Options) defaults() {
	if o.Trajectories == 0 {
		o.Trajectories = 100
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// splitmix64 is the SplitMix64 finalizer (Steele, Lea & Flood), a cheap
// bijective mixer whose outputs pass BigCrush; it turns structured inputs
// like small consecutive integers into well-separated seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// streamSeed derives the seed of independent RNG stream idx of a run
// seeded with seed. Trajectory t uses stream t; negative indices are
// reserved for non-trajectory streams (shot sampling), which is what
// decouples shot noise from the trajectory count.
func streamSeed(seed, idx int64) int64 {
	// Chain rather than XOR the two mixes: XOR is commutative, so
	// (seed, idx) and (idx, seed) would otherwise share a stream.
	return int64(splitmix64(splitmix64(uint64(seed)) + uint64(idx)))
}

// shotStream is the reserved stream index for measurement-shot sampling.
const shotStream int64 = -1

// trajectoryChunk is how many consecutive trajectories one unit of
// parallel work accumulates before its partial sum is handed back. It is
// a fixed constant (never derived from the worker count) so the reduction
// order — chunk by chunk, trajectories ascending within a chunk — is the
// same for every Parallelism setting.
const trajectoryChunk = 8

// Run simulates the circuit under the model and returns the output
// distribution over the 2^n basis states. Runs are deterministic in
// (circuit, model, Shots, Trajectories, Seed) and invariant under
// Options.Parallelism; the shot-sampling RNG stream depends only on Seed,
// so changing Trajectories never perturbs the shot-noise realization.
func (m Model) Run(c *circuit.Circuit, opts Options) []float64 {
	probs, _ := m.RunCtx(context.Background(), c, opts)
	return probs
}

// RunCtx is Run under a context: cancellation is checked before the run
// and between Monte-Carlo trajectories. When ctx expires mid-run the
// typed budget error is returned with a nil distribution — a partially
// accumulated trajectory average is a biased estimator, so no partial
// output is offered here.
func (m Model) RunCtx(ctx context.Context, c *circuit.Circuit, opts Options) ([]float64, error) {
	opts.defaults()
	if err := budget.Check(ctx); err != nil {
		return nil, fmt.Errorf("noise: %w", err)
	}
	dim := 1 << c.NumQubits

	probs := make([]float64, dim)
	if m.OneQubitError == 0 && m.TwoQubitError == 0 && m.DampingError == 0 {
		copy(probs, sim.Probabilities(c))
	} else if err := m.accumulateTrajectories(ctx, c, opts, probs); err != nil {
		return nil, fmt.Errorf("noise: %w", err)
	}

	if m.ReadoutError > 0 {
		probs = ApplyReadoutError(probs, c.NumQubits, m.ReadoutError)
	}
	if opts.Shots > 0 {
		rng := rand.New(rand.NewSource(streamSeed(opts.Seed, shotStream)))
		probs = SampleShots(probs, opts.Shots, rng)
	}
	return probs, nil
}

// accumulateTrajectories adds the mean trajectory probability mass into
// probs. Trajectories are split into fixed-size chunks executed by a
// bounded worker pool; each chunk owns a private partial sum and the
// partials are reduced in chunk order, so the floating-point summation
// order (and hence the result, bit for bit) is independent of the worker
// count. Each chunk also owns one statevector and one rand.Rand over a
// replaySource, which it points at trajectory t's stream tape.
//
// The run computes the error-free path once. Trajectory t first replays
// its draws along that path (firstError): if none fires, its final state
// is the path's, and it adds the path's probabilities. Otherwise it
// re-seeds, makes the same number of Float64 calls the path makes before
// the nearest checkpoint at or before its firing op, and runs
// trajectoryFrom from that checkpoint's state. Every state, draw and sum
// is therefore the one a full trajectory from |0...0> computes.
func (m Model) accumulateTrajectories(ctx context.Context, c *circuit.Circuit, opts Options, probs []float64) error {
	dim := len(probs)
	mats := opMatrices(c)
	fp := m.errorFreePath(c, mats)
	chunks := (opts.Trajectories + trajectoryChunk - 1) / trajectoryChunk
	partials := make([][]float64, chunks)
	err := par.ForEachErr(ctx, opts.Parallelism, chunks, func(cctx context.Context, ci int) error {
		partial := make([]float64, dim)
		state := make(linalg.Vector, dim)
		rng := rand.New(new(replaySource))
		lo := ci * trajectoryChunk
		hi := lo + trajectoryChunk
		if hi > opts.Trajectories {
			hi = opts.Trajectories
		}
		for t := lo; t < hi; t++ {
			if err := budget.Check(cctx); err != nil {
				return err
			}
			seed := streamSeed(opts.Seed, int64(t))
			rng.Seed(seed)
			f := m.firstError(c, fp, rng)
			if f == len(c.Ops) {
				for k, v := range fp.probs {
					partial[k] += v
				}
				continue
			}
			ck := f / fp.stride
			rng.Seed(seed)
			for n := fp.draws[ck]; n > 0; n-- {
				rng.Float64()
			}
			copy(state, fp.checkpoints[ck])
			m.trajectoryFrom(c, mats, state, ck*fp.stride, rng)
			addProbabilities(partial, state)
		}
		partials[ci] = partial
		return nil
	})
	if err != nil {
		return err
	}
	for _, partial := range partials {
		for k, v := range partial {
			probs[k] += v
		}
	}
	inv := 1 / float64(opts.Trajectories)
	for k := range probs {
		probs[k] *= inv
	}
	return nil
}

// ApplyReadoutError applies an independent bit-flip channel with
// probability e to every qubit of the distribution (analytically, not by
// sampling).
func ApplyReadoutError(p []float64, n int, e float64) []float64 {
	out := append([]float64(nil), p...)
	for q := 0; q < n; q++ {
		bit := 1 << q
		for k := range out {
			if k&bit != 0 {
				continue
			}
			a, b := out[k], out[k|bit]
			out[k] = (1-e)*a + e*b
			out[k|bit] = e*a + (1-e)*b
		}
	}
	return out
}

// Batched sampling switches from a per-shot binary search to a cut-point
// guide table once the batch is large enough to amortize building it. Both
// paths consume the identical RNG stream (one Float64 per shot, in shot
// order) and resolve each draw to the identical index, so the histogram is
// bit-for-bit the same either way; the thresholds are purely a cost
// crossover.
const (
	guideMinShots = 64
	guideMinDim   = 4
)

// SampleShots draws `shots` samples from the distribution and returns the
// normalized empirical histogram. The input need not be normalized —
// sampling is proportional to the (non-negative) entries — but it must
// carry some mass: a zero-total distribution has no valid sample, so the
// all-zero histogram is returned rather than silently piling every shot
// into basis state 0.
//
// Large batches resolve each draw through a cut-point guide table
// (amortized O(1) per shot instead of a binary search); the sampled
// histogram is bit-identical to the direct path for the same rng state.
func SampleShots(p []float64, shots int, rng *rand.Rand) []float64 {
	cdf := make([]float64, len(p))
	var acc float64
	for i, v := range p {
		acc += v
		cdf[i] = acc
	}
	hist := make([]float64, len(p))
	if acc <= 0 || shots <= 0 {
		return hist
	}
	if shots >= guideMinShots && len(p) >= guideMinDim {
		guide := buildShotGuide(cdf, acc)
		for s := 0; s < shots; s++ {
			hist[guideIndex(cdf, guide, acc, rng.Float64()*acc)]++
		}
	} else {
		for s := 0; s < shots; s++ {
			hist[sampleIndex(cdf, acc, rng.Float64()*acc)]++
		}
	}
	inv := 1 / float64(shots)
	for i := range hist {
		hist[i] *= inv
	}
	return hist
}

// buildShotGuide precomputes the cut-point table: guide[j] is the first
// cdf index whose value reaches bound_j = (j/len(cdf))·total, so a draw r
// falling in equal-width bucket j starts its scan at guide[j] instead of
// bisecting the whole cdf. One bucket per cdf entry keeps the expected
// scan length below one step for any distribution shape.
func buildShotGuide(cdf []float64, total float64) []int32 {
	k := len(cdf)
	guide := make([]int32, k+1)
	idx := 0
	for j := 1; j <= k; j++ {
		bound := float64(j) / float64(k) * total
		for idx < len(cdf) && cdf[idx] < bound {
			idx++
		}
		guide[j] = int32(idx)
	}
	return guide
}

// guideIndex resolves one draw through the guide table. It returns exactly
// what sampleIndex returns for the same (cdf, total, r): the backward
// guard steps compensate for any float rounding in the bucket bound, after
// which cdf[k-1] < r (or k = 0), so the forward scan lands on the first
// index with cdf[k] >= r — the sort.SearchFloat64s answer.
func guideIndex(cdf []float64, guide []int32, total, r float64) int {
	if r >= total {
		return len(cdf) - 1
	}
	j := int(r / total * float64(len(guide)-1))
	if j < 0 {
		j = 0
	}
	if j >= len(guide)-1 {
		j = len(guide) - 2
	}
	k := int(guide[j])
	for k > 0 && cdf[k-1] >= r {
		k--
	}
	for k < len(cdf) && cdf[k] < r {
		k++
	}
	if k >= len(cdf) {
		k = len(cdf) - 1
	}
	return k
}

// sampleIndex locates r within the cumulative distribution, clamping to
// the last bucket so that rounding at the top of an under-normalized cdf
// (where cdf[len-1] can fall below the running total used to scale r) can
// never index past the histogram.
func sampleIndex(cdf []float64, total, r float64) int {
	if r >= total {
		return len(cdf) - 1
	}
	k := sort.SearchFloat64s(cdf, r)
	if k >= len(cdf) {
		k = len(cdf) - 1
	}
	return k
}

// Device models a NISQ machine: an error model plus a coupling map that
// circuits must be routed onto before execution.
type Device struct {
	// Name identifies the device in reports.
	Name string
	// Model is the device's error model.
	Model Model
	// Coupling is the hardware connectivity.
	Coupling *transpile.CouplingMap
}

// Manila returns a synthetic stand-in for the 5-qubit IBMQ Manila machine:
// linear topology, ~0.8% CNOT error, ~0.08% one-qubit error, ~2.5% readout
// error (typical calibration-era values for that device class).
func Manila() *Device {
	return &Device{
		Name: "manila-sim",
		Model: Model{
			OneQubitError: 0.0008,
			TwoQubitError: 0.008,
			ReadoutError:  0.025,
		},
		Coupling: transpile.LinearCoupling(5),
	}
}

// Run lowers and routes the circuit onto the device, simulates it under
// the device noise model and returns the output distribution in LOGICAL
// qubit order.
func (d *Device) Run(c *circuit.Circuit, opts Options) ([]float64, error) {
	return d.RunCtx(context.Background(), c, opts)
}

// RunCtx is Run under a context; see Model.RunCtx for the cancellation
// contract.
func (d *Device) RunCtx(ctx context.Context, c *circuit.Circuit, opts Options) ([]float64, error) {
	lowered := transpile.Lower(c)
	initial := transpile.ChooseInitialLayout(lowered, d.Coupling)
	routed, layout, err := transpile.SabreRoute(lowered, d.Coupling, initial)
	if err != nil {
		return nil, fmt.Errorf("noise: routing onto %s: %w", d.Name, err)
	}
	// Routing may introduce swap gates; lower them to CNOTs so they are
	// charged two-qubit errors per CNOT like real hardware.
	routed = transpile.Lower(routed)
	phys, err := d.Model.RunCtx(ctx, routed, opts)
	if err != nil {
		return nil, err
	}
	return transpile.PermuteDistribution(phys, layout, c.NumQubits), nil
}

// QuitoT returns a synthetic IBMQ Quito-class 5-qubit device: T-shaped
// topology (0-1-2 chain with 1-3 and 3-4 branches), slightly noisier than
// Manila and with mild T1 relaxation — a second device model for routing
// and noise studies.
func QuitoT() *Device {
	return &Device{
		Name: "quito-sim",
		Model: Model{
			OneQubitError: 0.001,
			TwoQubitError: 0.011,
			ReadoutError:  0.035,
			DampingError:  0.0005,
		},
		Coupling: transpile.NewCouplingMap(5, [][2]int{{0, 1}, {1, 2}, {1, 3}, {3, 4}}),
	}
}
