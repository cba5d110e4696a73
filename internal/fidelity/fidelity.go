// Package fidelity implements the device fidelity model used by the
// noise-aware selection objective: an ESP-style (estimated success
// probability) estimator that folds per-gate-class infidelities and SPAM
// error over a circuit's gate counts, in the shape of the Quantinuum H2
// benchmark estimator and the authors' follow-up paper (*Robust and
// Resource-Efficient Quantum Circuit Approximation*, arXiv:2108.12714).
//
// The model is deliberately coarse — one rate per gate class, no
// per-qubit calibration — because the selection annealer only needs a
// *ranking* signal: which of two candidate ensembles will come out of the
// device with more of its signal intact. The estimator-vs-simulator rank
// agreement is asserted by tests against the Monte-Carlo Manila model.
package fidelity

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/noise"
	"repro/internal/transpile"
)

// Profile holds a device's per-gate-class error rates. Each rate is the
// probability in [0,1] that the corresponding operation corrupts the
// state; 0 is error-free. The zero Profile therefore describes an ideal
// device.
type Profile struct {
	// OneQubit is the infidelity of one one-qubit gate.
	OneQubit float64
	// TwoQubit is the infidelity of one CNOT-equivalent two-qubit gate.
	TwoQubit float64
	// Readout is the per-qubit measurement bit-flip probability.
	Readout float64
	// SPAM is any additional per-qubit state-preparation-and-measurement
	// infidelity beyond Readout (hardware calibration reports often fold
	// preparation error in here; the simulator models have none).
	SPAM float64
}

// IsZero reports whether the profile describes an error-free device.
func (p Profile) IsZero() bool {
	return p.OneQubit == 0 && p.TwoQubit == 0 && p.Readout == 0 && p.SPAM == 0
}

// Validate checks that every rate is a probability in [0,1].
func (p Profile) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"one-qubit", p.OneQubit},
		{"two-qubit", p.TwoQubit},
		{"readout", p.Readout},
		{"spam", p.SPAM},
	} {
		if math.IsNaN(r.v) || r.v < 0 || r.v > 1 {
			return fmt.Errorf("fidelity: %s rate %v outside [0,1]", r.name, r.v)
		}
	}
	return nil
}

// FromNoiseModel derives a Profile from the stochastic simulator model.
// The simulator applies its Pauli error per *involved qubit* per gate and
// its amplitude-damping jump per involved qubit per gate, so the
// per-gate-class rates compose those per-qubit channels: a one-qubit gate
// suffers one Pauli+damping draw, a two-qubit gate suffers two
// independent two-qubit-rate draws.
func FromNoiseModel(m noise.Model) Profile {
	g1 := compose(m.OneQubitError, m.DampingError)
	perQubit := compose(m.TwoQubitError, m.DampingError)
	return Profile{
		OneQubit: g1,
		TwoQubit: compose(perQubit, perQubit),
		Readout:  m.ReadoutError,
	}
}

// compose combines two independent error probabilities: the operation
// survives only if both channels pass.
func compose(a, b float64) float64 { return 1 - (1-a)*(1-b) }

// Counts are the gate-class totals the estimator folds the profile over.
type Counts struct {
	// OneQubit is the number of one-qubit gates.
	OneQubit int
	// TwoQubit is the number of CNOT-equivalent two-qubit gates (a SWAP
	// counts as 3, a Toffoli as 6 — the repo-wide CNOT cost metric).
	TwoQubit int
	// Measured is the number of qubits read out (charged both the Readout
	// and SPAM rates).
	Measured int
}

// Add returns the element-wise sum of two count vectors.
func (n Counts) Add(o Counts) Counts {
	return Counts{
		OneQubit: n.OneQubit + o.OneQubit,
		TwoQubit: n.TwoQubit + o.TwoQubit,
		Measured: n.Measured + o.Measured,
	}
}

// Count tallies the estimator's gate classes for a circuit, assuming
// every qubit is measured at the end (how the pipeline evaluates output
// distributions). Multi-qubit gates are charged their CNOT-equivalent
// cost, matching how the routed simulator lowers them before applying
// per-gate noise.
func Count(c *circuit.Circuit) Counts {
	n := Counts{Measured: c.NumQubits}
	for _, op := range c.Ops {
		if len(op.Qubits) == 1 {
			n.OneQubit++
		} else {
			n.TwoQubit += op.Spec().CNOTCost
		}
	}
	return n
}

// Estimate returns the estimated success probability in exact product
// form: each gate class contributes (1-rate)^count, and every measured
// qubit additionally pays the SPAM factor.
func (p Profile) Estimate(n Counts) float64 {
	f := math.Pow(1-p.OneQubit, float64(n.OneQubit))
	f *= math.Pow(1-p.TwoQubit, float64(n.TwoQubit))
	f *= math.Pow((1-p.Readout)*(1-p.SPAM), float64(n.Measured))
	return f
}

// LogEstimate returns log(Estimate(n)) computed in the log domain:
// Σ count·log1p(-rate). For the tiny rates and large gate counts the
// selection annealer sums over, this form neither underflows nor loses
// the low-order bits that distinguish two candidate ensembles.
func (p Profile) LogEstimate(n Counts) float64 {
	return p.LogRates().LogEstimate(n)
}

// LogRates are a profile's per-gate-class log-success factors,
// log1p(-rate), computed once for callers that estimate many counts
// under one profile (the selection annealer scores thousands of choices
// per run).
type LogRates struct {
	oneQubit, twoQubit, measured float64
}

// LogRates computes the profile's log-success factors.
func (p Profile) LogRates() LogRates {
	return LogRates{
		oneQubit: math.Log1p(-p.OneQubit),
		twoQubit: math.Log1p(-p.TwoQubit),
		measured: math.Log1p(-p.Readout) + math.Log1p(-p.SPAM),
	}
}

// LogEstimate is Profile.LogEstimate from precomputed factors, bit for
// bit.
func (r LogRates) LogEstimate(n Counts) float64 {
	var l float64
	if n.OneQubit > 0 {
		l += float64(n.OneQubit) * r.oneQubit
	}
	if n.TwoQubit > 0 {
		l += float64(n.TwoQubit) * r.twoQubit
	}
	if n.Measured > 0 {
		l += float64(n.Measured) * r.measured
	}
	return l
}

// EstimateCircuit estimates the success probability of running the
// circuit as-is (no routing) on a device with this profile.
func (p Profile) EstimateCircuit(c *circuit.Circuit) float64 {
	return p.Estimate(Count(c))
}

// EstimateOnDevice lowers and routes the circuit onto the device exactly
// as noise.Device.RunCtx does, then estimates the success probability of
// the routed form under the device's derived profile. This is the honest
// cross-circuit predictor: routing inflates two-qubit counts differently
// per circuit, and those swaps are charged device errors like any CNOT.
func EstimateOnDevice(c *circuit.Circuit, d *noise.Device) (float64, error) {
	lowered := transpile.Lower(c)
	initial := transpile.ChooseInitialLayout(lowered, d.Coupling)
	routed, _, err := transpile.SabreRoute(lowered, d.Coupling, initial)
	if err != nil {
		return 0, fmt.Errorf("fidelity: routing onto %s: %w", d.Name, err)
	}
	routed = transpile.Lower(routed)
	return FromNoiseModel(d.Model).Estimate(Count(routed)), nil
}
