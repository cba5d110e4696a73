package pipeline

import (
	"fmt"
	"math"

	"repro/internal/fidelity"
)

// ChoiceStats are the aggregate statistics of one full-circuit choice
// vector (one candidate picked per block) that selection objectives may
// score.
type ChoiceStats struct {
	// CNOTs is the total CNOT-equivalent two-qubit gate count.
	CNOTs int
	// Gates1Q is the total one-qubit gate count.
	Gates1Q int
	// EpsSum is Σε, the Sec. 3.8 upper bound on the full-circuit process
	// distance.
	EpsSum float64
}

// CircuitInfo is the per-run context an Objective scores against.
type CircuitInfo struct {
	// NumQubits is the original circuit's width (every qubit is measured).
	NumQubits int
	// OrigCNOTs is the original circuit's CNOT count, clamped to at least
	// 1 so normalization never divides by zero.
	OrigCNOTs int
}

// Objective scores one feasible choice vector during annealing selection;
// lower is better. Implementations must be deterministic pure functions
// of their inputs — the annealer re-evaluates choices and the artifact
// fingerprint assumes a spec uniquely identifies the scoring function.
//
// Contract: feasible choices must score in [0, 1] so the infeasibility
// penalty (1 + threshold excess, applied by the selection stage before
// the objective is consulted) stays strictly worse than every feasible
// choice. The selection stage blends the objective's cost with ensemble
// dissimilarity using CXWeight exactly as Algorithm 1 blends its CNOT
// term, so a new objective changes *what* is optimized, not *how*.
type Objective interface {
	// Spec is the canonical objective spec string ("cnot",
	// "fidelity:manila", "hybrid:0.5:manila", ...). It enters selectKey
	// and therefore every selection-artifact fingerprint.
	Spec() string
	// Cost scores a feasible choice; lower is better.
	Cost(s ChoiceStats, info CircuitInfo) float64
}

// cnotObjective is the paper's objective: CNOT count normalized by the
// original circuit's. The arithmetic is kept bit-identical to the
// pre-refactor hard-wired energy (float64(CNOTs)/float64(OrigCNOTs)); the
// golden tests pin this.
type cnotObjective struct{}

func (cnotObjective) Spec() string { return "cnot" }
func (cnotObjective) Cost(s ChoiceStats, info CircuitInfo) float64 {
	return float64(s.CNOTs) / float64(info.OrigCNOTs)
}

// CNOTObjective returns the default selection objective: minimize the
// normalized CNOT count (QUEST Sec. 3.6).
func CNOTObjective() Objective { return cnotObjective{} }

// fidelityObjective scores a choice by predicted *end-to-end* output
// infidelity on a device: 1 − F_device · F_approx, where F_device is the
// ESP estimate of running the candidate gates on the device profile and
// F_approx = max(0, 1−Σε) discounts the approximation error itself. Both
// factors live in [0,1], so the cost does too. Minimizing it trades extra
// approximation error for saved gate error exactly when the device model
// says the trade wins — the arXiv:2108.12714 selection rule.
type fidelityObjective struct {
	spec string
	// rates are the profile's log1p factors, computed when the objective
	// is built.
	rates fidelity.LogRates
}

func (o fidelityObjective) Spec() string { return o.spec }
func (o fidelityObjective) Cost(s ChoiceStats, info CircuitInfo) float64 {
	dev := math.Exp(o.rates.LogEstimate(fidelity.Counts{
		OneQubit: s.Gates1Q,
		TwoQubit: s.CNOTs,
		Measured: info.NumQubits,
	}))
	approx := 1 - s.EpsSum
	if approx < 0 {
		approx = 0
	}
	return 1 - dev*approx
}

// FidelityObjective returns the predicted-fidelity objective over a
// device noise profile. The spec must be the canonical string the caller
// resolved the profile from (e.g. "fidelity:manila"): it fingerprints the
// objective in selection artifacts.
func FidelityObjective(spec string, p fidelity.Profile) (Objective, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("pipeline: objective %q: %w", spec, err)
	}
	return fidelityObjective{spec: spec, rates: p.LogRates()}, nil
}

// hybridObjective blends the CNOT and fidelity costs with weight w on the
// CNOT term. Both components are in [0,1] for feasible choices with
// CNOTs ≤ OrigCNOTs, so the blend respects the Objective range contract.
type hybridObjective struct {
	spec string
	w    float64
	fid  fidelityObjective
}

func (o hybridObjective) Spec() string { return o.spec }
func (o hybridObjective) Cost(s ChoiceStats, info CircuitInfo) float64 {
	return o.w*cnotObjective{}.Cost(s, info) + (1-o.w)*o.fid.Cost(s, info)
}

// HybridObjective returns the w·cnot + (1−w)·fidelity blend. w must lie
// in [0,1]; the spec is the canonical string (e.g. "hybrid:0.5:manila").
func HybridObjective(spec string, w float64, p fidelity.Profile) (Objective, error) {
	if math.IsNaN(w) || w < 0 || w > 1 {
		return nil, fmt.Errorf("pipeline: objective %q: weight %v outside [0,1]", spec, w)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("pipeline: objective %q: %w", spec, err)
	}
	return hybridObjective{spec: spec, w: w, fid: fidelityObjective{rates: p.LogRates()}}, nil
}
