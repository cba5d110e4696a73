package main

import (
	"fmt"
	"math"
	"strings"

	quest "repro"
	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/sim"
)

// denseMaxQubits is the widest circuit whose selected members are checked
// against the Sec. 3.8 bound with full dense unitaries; wider circuits are
// checked block by block. A 10-qubit member's unitary takes about 0.35 s,
// and corpus-warm selects some 60 distinct members of vqe_10 per run, which
// is more check time than a run can carry; 8 qubits costs milliseconds.
const denseMaxQubits = 8

// idealMaxQubits is the widest corpus circuit whose ideal-simulator
// ensemble TVD corpus-warm reports (a statevector per member, cheap).
const idealMaxQubits = 10

// Check tolerances. boundTol absorbs the round-off of two dense unitaries
// (the same slack the repository's own bound tests allow). blockTol is the
// per-block slack of a recomputed distance: HS distance is a square root,
// so round-off of 1e-16 in an exact block reads as 1e-8. thresholdTol is
// the slack the pipeline's own tests give Σε ≤ Threshold.
const (
	boundTol     = 1e-6
	blockTol     = 1e-7
	thresholdTol = 1e-12
)

// checker verifies selected approximations against the Sec. 3.8 theorem
// HS(U, V) ≤ Σε and EpsilonSum ≤ Threshold, and computes the ideal output
// distributions the corpus-warm ensemble TVD uses. Members already
// verified for a circuit are remembered by their per-block choice, so a
// circuit recompiled many times is checked once per distinct member.
type checker struct {
	unitary  map[string]*linalg.Matrix
	ideal    map[string][]float64
	verified map[string]bool
	probs    map[string][]float64
}

func newChecker() *checker {
	return &checker{
		unitary:  map[string]*linalg.Matrix{},
		ideal:    map[string][]float64{},
		verified: map[string]bool{},
		probs:    map[string][]float64{},
	}
}

func choiceKey(name string, choice []int) string {
	var b strings.Builder
	b.WriteString(name)
	for _, c := range choice {
		fmt.Fprintf(&b, ",%d", c)
	}
	return b.String()
}

// checkResult verifies every selected member of res, the compilation of
// circuit orig named name. Members not verified before are checked on
// slots goroutines.
func (ck *checker) checkResult(name string, orig *quest.Circuit, res *quest.Result) error {
	if len(res.Selected) == 0 {
		return fmt.Errorf("%s: no selected approximation", name)
	}
	best := math.MaxInt
	var todo []int
	for i, a := range res.Selected {
		if a.CNOTs < best {
			best = a.CNOTs
		}
		if a.Circuit.CNOTCount() != a.CNOTs {
			return fmt.Errorf("%s: member %d reports %d CNOTs, its circuit has %d",
				name, i, a.CNOTs, a.Circuit.CNOTCount())
		}
		if a.EpsilonSum > res.Threshold+thresholdTol {
			return fmt.Errorf("%s: member %d: Σε %g exceeds the threshold %g", name, i, a.EpsilonSum, res.Threshold)
		}
		if a.Circuit.NumQubits != orig.NumQubits {
			return fmt.Errorf("%s: member %d has %d qubits, input %d", name, i, a.Circuit.NumQubits, orig.NumQubits)
		}
		if !ck.verified[choiceKey(name, a.Choice)] {
			todo = append(todo, i)
		}
	}
	if best != res.BestCNOTs() {
		return fmt.Errorf("%s: BestCNOTs %d, members' minimum %d", name, res.BestCNOTs(), best)
	}
	var u *linalg.Matrix
	if orig.NumQubits <= denseMaxQubits {
		var ok bool
		if u, ok = ck.unitary[name]; !ok {
			u = sim.Unitary(orig)
			ck.unitary[name] = u
		}
	}
	errs := make([]error, len(todo))
	par.ForEach(slots, len(todo), func(k int) {
		a := res.Selected[todo[k]]
		if u != nil {
			errs[k] = checkDense(u, a.Circuit, a.EpsilonSum)
		} else {
			errs[k] = checkBlocks(res, a)
		}
	})
	for k, i := range todo {
		if errs[k] != nil {
			return fmt.Errorf("%s: member %d: %w", name, i, errs[k])
		}
		ck.verified[choiceKey(name, res.Selected[i].Choice)] = true
	}
	return nil
}

// checkDense checks HS(U, V) ≤ Σε + boundTol with full unitaries.
func checkDense(u *linalg.Matrix, member *quest.Circuit, epsSum float64) error {
	if d := linalg.HSDistance(u, sim.Unitary(member)); d > epsSum+boundTol {
		return fmt.Errorf("HS distance %g exceeds the bound Σε = %g", d, epsSum)
	}
	return nil
}

// checkBlocks recomputes each chosen candidate's distance to its block's
// unitary and checks that they sum to the member's EpsilonSum.
func checkBlocks(res *quest.Result, a quest.Approximation) error {
	if len(a.Choice) != len(res.Blocks) {
		return fmt.Errorf("choice covers %d blocks, result has %d", len(a.Choice), len(res.Blocks))
	}
	var sum float64
	for b, ci := range a.Choice {
		blk := res.Blocks[b]
		if ci < 0 || ci >= len(blk.Candidates) {
			return fmt.Errorf("block %d: choice %d out of range (%d candidates)", b, ci, len(blk.Candidates))
		}
		d := linalg.HSDistance(sim.Unitary(blk.Block.Circuit), sim.Unitary(blk.Candidates[ci].Circuit))
		sum += d
	}
	if math.Abs(sum-a.EpsilonSum) > blockTol*float64(len(a.Choice)) {
		return fmt.Errorf("recomputed block distances sum to %.12g, EpsilonSum is %.12g", sum, a.EpsilonSum)
	}
	return nil
}

// idealEnsembleTVD returns the TVD between the ideal output of orig and the
// average ideal output of the selected members, in selection order.
func (ck *checker) idealEnsembleTVD(name string, orig *quest.Circuit, res *quest.Result) float64 {
	ideal, ok := ck.ideal[name]
	if !ok {
		ideal = quest.Simulate(orig)
		ck.ideal[name] = ideal
	}
	dists := make([][]float64, len(res.Selected))
	for i, a := range res.Selected {
		key := choiceKey(name, a.Choice)
		p, ok := ck.probs[key]
		if !ok {
			p = quest.Simulate(a.Circuit)
			ck.probs[key] = p
		}
		dists[i] = p
	}
	return quest.TVD(ideal, metrics.AverageDistributions(dists...))
}
