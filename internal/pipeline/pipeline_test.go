package pipeline

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/algos"
	"repro/internal/circuit"
	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/noise"
	"repro/internal/sim"
)

// testConfig keeps pipeline runs fast in unit tests.
func testConfig() Config {
	return Config{
		BlockSize:        3,
		Epsilon:          0.05,
		MaxSamples:       6,
		AnnealIterations: 150,
		SynthBeam:        2,
		Seed:             1,
	}
}

func TestUpperBound(t *testing.T) {
	if got := UpperBound([]float64{0.1, 0.2, 0.05}); math.Abs(got-0.35) > 1e-12 {
		t.Errorf("UpperBound = %g", got)
	}
	if got := UpperBound(nil); got != 0 {
		t.Errorf("UpperBound(nil) = %g", got)
	}
}

func TestUpperBoundTheoremHolds(t *testing.T) {
	// Property-check the Sec 3.8 theorem itself: assemble approximate
	// blocks and compare actual full-circuit distance to Σ ε_k.
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Two 2-qubit blocks on a 3-qubit circuit (overlapping on q1).
		b1, b2 := linalg.RandomUnitary(4, r), linalg.RandomUnitary(4, r)
		// Perturb each to create "approximations".
		p1, p2 := perturb(b1, r), perturb(b2, r)
		e1, e2 := linalg.HSDistance(b1, p1), linalg.HSDistance(b2, p2)

		id := linalg.Identity(2)
		full := linalg.Mul(linalg.Kron(b2, id), linalg.Kron(id, b1))
		fullApprox := linalg.Mul(linalg.Kron(p2, id), linalg.Kron(id, p1))
		actual := linalg.HSDistance(full, fullApprox)
		return actual <= e1+e2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func perturb(u *linalg.Matrix, rng *rand.Rand) *linalg.Matrix {
	// Small random unitary perturbation: U · exp-ish via a random
	// near-identity unitary built from a scaled Ginibre + QR.
	eps := linalg.RandomUnitary(u.Rows, rng)
	mix := linalg.Add(linalg.Scale(complex(8, 0), linalg.Identity(u.Rows)), eps)
	// Orthonormalize columns of mix via the RandomUnitary trick: reuse
	// Gram-Schmidt by multiplying into a unitary basis.
	q := gramSchmidt(mix)
	return linalg.Mul(u, q)
}

func gramSchmidt(m *linalg.Matrix) *linalg.Matrix {
	n := m.Rows
	cols := make([]linalg.Vector, n)
	for j := 0; j < n; j++ {
		c := linalg.NewVector(n)
		for i := 0; i < n; i++ {
			c[i] = m.At(i, j)
		}
		cols[j] = c
	}
	for j := 0; j < n; j++ {
		for k := 0; k < j; k++ {
			proj := linalg.Dot(cols[k], cols[j])
			for i := 0; i < n; i++ {
				cols[j][i] -= proj * cols[k][i]
			}
		}
		cols[j].Normalize()
	}
	out := linalg.New(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			out.Set(i, j, cols[j][i])
		}
	}
	return out
}

func TestRunEmptyCircuit(t *testing.T) {
	if _, err := Run(circuit.New(2), testConfig()); err == nil {
		t.Error("empty circuit accepted")
	}
}

func TestRunSmallTFIM(t *testing.T) {
	c := algos.TFIM(4, 3, 0.1, 1, 1)
	res, err := Run(c, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) == 0 {
		t.Fatal("no blocks")
	}
	if len(res.Selected) == 0 {
		t.Fatal("no approximations selected")
	}
	// Every selected approximation respects the bound threshold.
	for i, a := range res.Selected {
		if a.EpsilonSum > res.Threshold+1e-12 {
			t.Errorf("approximation %d epsilon sum %g > threshold %g", i, a.EpsilonSum, res.Threshold)
		}
		if a.Circuit.NumQubits != c.NumQubits {
			t.Errorf("approximation %d has %d qubits", i, a.Circuit.NumQubits)
		}
	}
	// The theorem: actual full distance ≤ Σ ε (verifiable at 4 qubits).
	orig := sim.Unitary(c)
	for i, a := range res.Selected {
		actual := linalg.HSDistance(orig, sim.Unitary(a.Circuit))
		if actual > a.EpsilonSum+1e-6 {
			t.Errorf("approximation %d: actual distance %g > bound %g", i, actual, a.EpsilonSum)
		}
	}
}

func TestRunReducesCNOTs(t *testing.T) {
	// Heisenberg has many CNOT-equivalents; QUEST should cut them a lot.
	c := algos.Heisenberg(4, 3, 0.1, 1, 1)
	res, err := Run(c, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	orig := c.CNOTCount()
	best := res.BestCNOTs()
	if best >= orig {
		t.Errorf("no CNOT reduction: %d -> %d", orig, best)
	}
	t.Logf("Heisenberg-4: %d -> %d CNOTs (%.0f%% reduction), %d samples",
		orig, best, 100*float64(orig-best)/float64(orig), len(res.Selected))
}

func TestRunEnsembleOutputClose(t *testing.T) {
	c := algos.TFIM(4, 3, 0.1, 1, 1)
	res, err := Run(c, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ideal := sim.Probabilities(c)
	ens, err := res.EnsembleProbabilities(func(a *circuit.Circuit) ([]float64, error) {
		return sim.Probabilities(a), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tvd := metrics.TVD(ideal, ens)
	if tvd > 0.15 {
		t.Errorf("ensemble TVD = %g, want small", tvd)
	}
	t.Logf("TFIM-4 ensemble TVD = %g over %d samples", tvd, len(res.Selected))
}

func TestRunDeterministic(t *testing.T) {
	c := algos.TFIM(4, 2, 0.1, 1, 1)
	cfg := testConfig()
	r1, err1 := Run(c, cfg)
	r2, err2 := Run(c, cfg)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if len(r1.Selected) != len(r2.Selected) {
		t.Fatalf("different sample counts: %d vs %d", len(r1.Selected), len(r2.Selected))
	}
	for i := range r1.Selected {
		if r1.Selected[i].CNOTs != r2.Selected[i].CNOTs ||
			math.Abs(r1.Selected[i].EpsilonSum-r2.Selected[i].EpsilonSum) > 1e-12 {
			t.Errorf("sample %d differs between runs", i)
		}
	}
}

func TestRunFirstSampleHasLowestCNOTs(t *testing.T) {
	// The first selection round weights CNOTs only, so the first sample
	// should be (near) the CNOT-minimal feasible approximation.
	c := algos.XY(4, 2, 0.1, 1)
	res, err := Run(c, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	first := res.Selected[0].CNOTs
	for i, a := range res.Selected[1:] {
		if a.CNOTs < first {
			t.Logf("note: sample %d has %d CNOTs < first %d (dissimilarity trade-off)", i+1, a.CNOTs, first)
		}
	}
	if first > c.CNOTCount() {
		t.Errorf("first sample has MORE CNOTs (%d) than original (%d)", first, c.CNOTCount())
	}
}

func TestSimilarityBounds(t *testing.T) {
	c := algos.TFIM(4, 2, 0.1, 1, 1)
	res, err := Run(c, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) < 2 {
		t.Skip("need at least two samples")
	}
	a, b := res.Selected[0].Choice, res.Selected[1].Choice
	pairs := pairTables(res.Blocks, 1)
	s := similarity(res.Blocks, pairs, a, b)
	if s < 0 || s > 1 {
		t.Errorf("similarity out of range: %g", s)
	}
	if got := similarity(res.Blocks, pairs, a, a); got != 1 {
		t.Errorf("self-similarity = %g, want 1", got)
	}
}

func TestTimingPopulated(t *testing.T) {
	c := algos.TFIM(4, 2, 0.1, 1, 1)
	res, err := Run(c, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing.Synthesis <= 0 {
		t.Error("synthesis timing not recorded")
	}
	if res.Timing.Total() < res.Timing.Synthesis {
		t.Error("total < synthesis")
	}
}

func TestEnsembleNoSelections(t *testing.T) {
	r := &Result{}
	if _, err := r.EnsembleProbabilities(func(*circuit.Circuit) ([]float64, error) {
		return nil, nil
	}); err == nil {
		t.Error("EnsembleProbabilities with no selections should fail")
	}
}

func TestThresholdCap(t *testing.T) {
	c := algos.TFIM(4, 8, 0.1, 1, 1) // many blocks
	cfg := testConfig()
	cfg.Epsilon = 0.2 // would give threshold > 1 uncapped
	res, err := Run(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Threshold > 0.5+1e-12 {
		t.Errorf("threshold %g exceeds default cap", res.Threshold)
	}
	cfg.ThresholdCap = 2
	res2, err := Run(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Threshold <= 0.5 {
		t.Errorf("custom cap ignored: %g", res2.Threshold)
	}
}

func TestParallelismDoesNotChangeResults(t *testing.T) {
	// The determinism claim on Config.Parallelism: the pipeline selects
	// IDENTICAL approximations — same per-block candidate choices, not
	// just the same CNOT counts — for every worker count.
	c := algos.TFIM(4, 2, 0.1, 1, 1)
	cfg := testConfig()
	cfg.Parallelism = 1
	r1, err := Run(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, runtime.NumCPU()} {
		cfg.Parallelism = workers
		r2, err := Run(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(r1.Selected) != len(r2.Selected) {
			t.Fatalf("parallelism %d changed sample count: %d vs %d",
				workers, len(r1.Selected), len(r2.Selected))
		}
		for i := range r1.Selected {
			a, b := r1.Selected[i], r2.Selected[i]
			if a.CNOTs != b.CNOTs || a.EpsilonSum != b.EpsilonSum {
				t.Errorf("parallelism %d: sample %d stats differ", workers, i)
			}
			for k := range a.Choice {
				if a.Choice[k] != b.Choice[k] {
					t.Errorf("parallelism %d: sample %d picks candidate %d for block %d, serial picked %d",
						workers, i, b.Choice[k], k, a.Choice[k])
				}
			}
		}
	}
}

func TestEnsembleProbabilitiesInvariantUnderWorkers(t *testing.T) {
	// Ensemble evaluation must be bit-identical for any worker count,
	// including through the noisy runner (whose RNG streams are derived
	// per call, never shared).
	c := algos.TFIM(4, 2, 0.1, 1, 1)
	res, err := Run(c, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := noise.Uniform(0.01)
	runner := func(a *circuit.Circuit) ([]float64, error) {
		return m.Run(a, noise.Options{Shots: 1024, Trajectories: 20, Seed: 5, Parallelism: 1}), nil
	}
	ref, err := res.EnsembleProbabilitiesWorkers(runner, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, runtime.NumCPU(), 0} {
		got, err := res.EnsembleProbabilitiesWorkers(runner, workers)
		if err != nil {
			t.Fatal(err)
		}
		for k := range ref {
			if got[k] != ref[k] {
				t.Fatalf("workers=%d: ensemble output differs at state %d", workers, k)
			}
		}
	}
}

func TestEnsembleProbabilitiesReportsFirstError(t *testing.T) {
	c := algos.TFIM(4, 2, 0.1, 1, 1)
	res, err := Run(c, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("backend down")
	_, err = res.EnsembleProbabilities(func(*circuit.Circuit) ([]float64, error) {
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Errorf("ensemble error not propagated: %v", err)
	}
}

func TestOriginalBlockAlwaysAvailable(t *testing.T) {
	// Every block must contain an exact candidate with CNOTs ≤ the
	// block's own count, so QUEST can never be forced above Baseline.
	c := algos.Heisenberg(4, 2, 0.1, 1, 1)
	res, err := Run(c, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, ba := range res.Blocks {
		found := false
		for _, cand := range ba.Candidates {
			if cand.Distance < 1e-7 && cand.CNOTs <= ba.Block.CNOTCount() {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("block %d has no exact candidate within its own CNOT budget", i)
		}
	}
}
