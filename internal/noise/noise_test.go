package noise

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func bell() *circuit.Circuit {
	c := circuit.New(2)
	c.H(0)
	c.CX(0, 1)
	return c
}

func sumsToOne(t *testing.T, p []float64, context string) {
	t.Helper()
	var s float64
	for _, v := range p {
		s += v
	}
	if math.Abs(s-1) > 1e-9 {
		t.Errorf("%s: distribution sums to %g", context, s)
	}
}

func TestZeroNoiseMatchesIdeal(t *testing.T) {
	c := bell()
	p := Model{}.Run(c, Options{Seed: 1})
	ideal := sim.Probabilities(c)
	if metrics.TVD(p, ideal) > 1e-12 {
		t.Errorf("zero-noise run differs from ideal: %v vs %v", p, ideal)
	}
}

func TestNoiseIncreasesTVDWithErrorRate(t *testing.T) {
	// A workload whose output distribution is NOT invariant under Pauli
	// errors (unlike a uniform Bell-chain output).
	big := circuit.New(2)
	for i := 0; i < 10; i++ {
		big.RY(0, 0.4)
		big.CX(0, 1)
		big.RY(1, 0.3)
	}
	ideal := sim.Probabilities(big)
	var prev float64
	for _, p := range []float64{0.001, 0.01, 0.05} {
		out := Uniform(p).Run(big, Options{Seed: 2, Trajectories: 300})
		tvd := metrics.TVD(out, ideal)
		if tvd < prev-0.02 {
			t.Errorf("TVD decreased when noise grew: p=%g tvd=%g prev=%g", p, tvd, prev)
		}
		prev = tvd
	}
	if prev < 0.01 {
		t.Errorf("5%% noise barely moved the output (tvd=%g)", prev)
	}
}

func TestMoreCNOTsMoreError(t *testing.T) {
	// The core premise of QUEST: error grows with CNOT count.
	mk := func(reps int) *circuit.Circuit {
		c := circuit.New(2)
		for i := 0; i < reps; i++ {
			c.RY(0, 0.4)
			c.CX(0, 1)
			c.RY(1, 0.3)
		}
		return c
	}
	short, long := mk(1), mk(10)
	m := Uniform(0.02)
	tvdShort := metrics.TVD(m.Run(short, Options{Seed: 3, Trajectories: 400}), sim.Probabilities(short))
	tvdLong := metrics.TVD(m.Run(long, Options{Seed: 3, Trajectories: 400}), sim.Probabilities(long))
	if tvdLong <= tvdShort {
		t.Errorf("longer circuit has less error: short=%g long=%g", tvdShort, tvdLong)
	}
}

func TestRunNormalized(t *testing.T) {
	c := bell()
	p := Uniform(0.01).Run(c, Options{Seed: 4, Trajectories: 50})
	sumsToOne(t, p, "noisy run")
	p2 := Uniform(0.01).Run(c, Options{Seed: 5, Shots: 1024, Trajectories: 50})
	sumsToOne(t, p2, "noisy run with shots")
}

func TestRunDeterministic(t *testing.T) {
	c := bell()
	a := Uniform(0.01).Run(c, Options{Seed: 6, Shots: 256})
	b := Uniform(0.01).Run(c, Options{Seed: 6, Shots: 256})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("noisy run not deterministic for fixed seed")
		}
	}
}

func TestApplyReadoutError(t *testing.T) {
	// Deterministic |00> with 10% readout error per qubit.
	p := []float64{1, 0, 0, 0}
	out := ApplyReadoutError(p, 2, 0.1)
	if math.Abs(out[0]-0.81) > 1e-12 {
		t.Errorf("P(00) = %g, want 0.81", out[0])
	}
	if math.Abs(out[1]-0.09) > 1e-12 || math.Abs(out[2]-0.09) > 1e-12 {
		t.Errorf("P(01)/P(10) = %g/%g, want 0.09", out[1], out[2])
	}
	if math.Abs(out[3]-0.01) > 1e-12 {
		t.Errorf("P(11) = %g, want 0.01", out[3])
	}
	sumsToOne(t, out, "readout")
}

func TestSampleShotsZeroMassReturnsZeroHistogram(t *testing.T) {
	// Regression: an all-zero distribution used to pile every shot into
	// basis state 0 (acc == 0 makes every draw r == 0, and the cdf search
	// returns index 0). It must yield the all-zero histogram instead.
	rng := rand.New(rand.NewSource(21))
	hist := SampleShots([]float64{0, 0, 0, 0}, 1000, rng)
	for k, v := range hist {
		if v != 0 {
			t.Fatalf("zero-mass distribution produced mass at state %d: %g", k, v)
		}
	}
	if hist := SampleShots(nil, 10, rng); len(hist) != 0 {
		t.Errorf("empty distribution returned %v", hist)
	}
}

func TestSampleShotsUnderNormalized(t *testing.T) {
	// Sampling must be proportional to mass even when the input does not
	// sum to 1 (e.g. a truncated or unnormalized histogram).
	rng := rand.New(rand.NewSource(22))
	p := []float64{0.2, 0, 0.05, 0} // total mass 0.25
	hist := SampleShots(p, 100000, rng)
	sumsToOne(t, hist, "under-normalized input")
	if math.Abs(hist[0]-0.8) > 0.01 || math.Abs(hist[2]-0.2) > 0.01 {
		t.Errorf("histogram %v, want ~[0.8 0 0.2 0]", hist)
	}
	if hist[1] != 0 || hist[3] != 0 {
		t.Errorf("mass appeared on zero-probability states: %v", hist)
	}
}

func TestSampleIndexClampsTopOfRange(t *testing.T) {
	// The clamp path: with an under-normalized cdf whose top entry falls
	// below the scaling total, a draw at (or beyond) the top must land in
	// the last bucket instead of indexing past the histogram.
	cdf := []float64{0.5, 0.75} // under-normalized: total mass 0.75
	if k := sampleIndex(cdf, 0.75, 0.75); k != 1 {
		t.Errorf("sampleIndex(total) = %d, want last bucket", k)
	}
	if k := sampleIndex(cdf, 0.75, 0.9); k != 1 {
		t.Errorf("sampleIndex(beyond total) = %d, want last bucket", k)
	}
	if k := sampleIndex(cdf, 0.75, 0.6); k != 1 {
		t.Errorf("sampleIndex(0.6) = %d, want 1", k)
	}
	if k := sampleIndex(cdf, 0.75, 0.1); k != 0 {
		t.Errorf("sampleIndex(0.1) = %d, want 0", k)
	}
}

func TestRunInvariantUnderParallelism(t *testing.T) {
	// The tentpole determinism claim: bit-identical output for any worker
	// count, including with damping and shot sampling in play.
	c := circuit.New(3)
	c.H(0)
	c.CX(0, 1)
	c.RY(2, 0.7)
	c.CX(1, 2)
	m := Model{OneQubitError: 0.01, TwoQubitError: 0.05, ReadoutError: 0.02, DampingError: 0.01}
	ref := m.Run(c, Options{Seed: 31, Trajectories: 123, Shots: 2048, Parallelism: 1})
	for _, workers := range []int{2, 3, 8, 0} {
		got := m.Run(c, Options{Seed: 31, Trajectories: 123, Shots: 2048, Parallelism: workers})
		for k := range ref {
			if got[k] != ref[k] {
				t.Fatalf("parallelism=%d: state %d differs: %g vs %g", workers, k, got[k], ref[k])
			}
		}
	}
}

func TestShotStreamIndependentOfTrajectoryCount(t *testing.T) {
	// Regression for the RNG coupling bug: shot sampling used to continue
	// the trajectory loop's RNG stream, so changing Trajectories silently
	// changed the shot-noise realization. H⊗H makes every trajectory's
	// distribution exactly uniform under Pauli errors, so the averaged
	// distribution is identical for any trajectory count — the sampled
	// histograms must then match bit for bit.
	c := circuit.New(2)
	c.H(0)
	c.H(1)
	m := Model{OneQubitError: 0.4}
	a := m.Run(c, Options{Seed: 17, Trajectories: 100, Shots: 4096})
	b := m.Run(c, Options{Seed: 17, Trajectories: 200, Shots: 4096})
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("shot realization coupled to trajectory count: state %d: %g vs %g", k, a[k], b[k])
		}
	}
}

func TestShotStreamReconstructable(t *testing.T) {
	// The seeding contract, asserted mechanically: a run with shots equals
	// the same run without shots followed by SampleShots on the dedicated
	// (Seed, shotStream) RNG stream.
	c := bell()
	m := Uniform(0.02)
	opts := Options{Seed: 9, Trajectories: 50}
	probs := m.Run(c, opts)
	want := SampleShots(probs, 512, rand.New(rand.NewSource(streamSeed(opts.Seed, shotStream))))
	opts.Shots = 512
	got := m.Run(c, opts)
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("shot stream not reconstructable: state %d: %g vs %g", k, got[k], want[k])
		}
	}
}

func TestStreamSeedsDistinct(t *testing.T) {
	// Neighboring (seed, index) pairs must map to well-separated streams.
	seen := map[int64]bool{}
	for seed := int64(0); seed < 50; seed++ {
		for idx := int64(-1); idx < 50; idx++ {
			s := streamSeed(seed, idx)
			if seen[s] {
				t.Fatalf("stream seed collision at seed=%d idx=%d", seed, idx)
			}
			seen[s] = true
		}
	}
}

func TestSampleShotsConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := []float64{0.5, 0.25, 0.125, 0.125}
	hist := SampleShots(p, 200000, rng)
	if metrics.TVD(hist, p) > 0.01 {
		t.Errorf("sampled histogram far from distribution: %v", hist)
	}
	sumsToOne(t, hist, "sampled")
}

func TestUniformModelShape(t *testing.T) {
	m := Uniform(0.01)
	if m.TwoQubitError != 0.01 || math.Abs(m.OneQubitError-0.001) > 1e-15 {
		t.Errorf("Uniform(0.01) = %+v", m)
	}
	if !Uniform(0).IsZero() {
		t.Error("Uniform(0) not zero")
	}
}

func TestManilaDevice(t *testing.T) {
	d := Manila()
	if d.Coupling.NumQubits != 5 {
		t.Fatalf("Manila has %d qubits", d.Coupling.NumQubits)
	}
	if d.Model.TwoQubitError <= d.Model.OneQubitError {
		t.Error("Manila CNOT error should dominate 1q error")
	}
	// Run a Bell pair on non-adjacent qubits to force routing.
	c := circuit.New(3)
	c.H(0)
	c.CX(0, 2)
	p, err := d.Run(c, Options{Seed: 8, Trajectories: 200})
	if err != nil {
		t.Fatal(err)
	}
	sumsToOne(t, p, "manila run")
	// Output should still be recognizably Bell-like: mass on |000> and |101>.
	if p[0]+p[5] < 0.8 {
		t.Errorf("Manila Bell output degraded too much: %v", p)
	}
	ideal := sim.Probabilities(c)
	if tvd := metrics.TVD(p, ideal); tvd < 1e-4 {
		t.Errorf("Manila run suspiciously noiseless (tvd=%g)", tvd)
	}
}

func TestDeviceRunRejectsOversized(t *testing.T) {
	c := circuit.New(6)
	c.H(0)
	if _, err := Manila().Run(c, Options{}); err == nil {
		t.Error("Manila accepted a 6-qubit circuit")
	}
}

func TestTrajectoryPreservesNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := bell()
	for i := 0; i < 20; i++ {
		state := Uniform(0.3).Trajectory(c, rng)
		if math.Abs(state.Norm()-1) > 1e-9 {
			t.Fatal("trajectory broke normalization")
		}
	}
}

// referenceTrajectory is the per-op formulation the hoisted trajectory
// replaced: every op's matrix is rebuilt inside the loop.
func referenceTrajectory(m Model, c *circuit.Circuit, rng *rand.Rand) []complex128 {
	state := sim.ZeroState(c.NumQubits)
	for _, op := range c.Ops {
		sim.ApplyOp(state, c.NumQubits, op)
		p := m.OneQubitError
		if len(op.Qubits) >= 2 {
			p = m.TwoQubitError
		}
		for _, q := range op.Qubits {
			if p > 0 && rng.Float64() < p {
				sim.ApplyMatrixOp(state, c.NumQubits, paulis[rng.Intn(3)], []int{q})
			}
			if m.DampingError > 0 {
				amplitudeDampingJump(state, c.NumQubits, q, m.DampingError, rng)
			}
		}
	}
	return state
}

func TestHoistedTrajectoryMatchesPerOpBuild(t *testing.T) {
	c := circuit.New(3)
	c.H(0)
	c.RY(1, 0.7)
	c.CX(0, 1)
	c.RZ(2, -1.1)
	c.CX(1, 2)
	c.U3(0, 0.3, 0.5, -0.2)
	c.CX(2, 0)
	models := []Model{
		Uniform(0.2),
		{OneQubitError: 0.05, TwoQubitError: 0.3, DampingError: 0.1},
		{},
	}
	for mi, m := range models {
		// One matrix set shared by many trajectories, as a run shares it:
		// it must not be mutated by any of them.
		mats := opMatrices(c)
		state := make([]complex128, 1<<c.NumQubits)
		for seed := int64(1); seed <= 25; seed++ {
			want := referenceTrajectory(m, c, rand.New(rand.NewSource(seed)))
			// The buffer still holds the previous seed's final state:
			// trajectory must reset it before evolving.
			m.trajectory(c, mats, state, rand.New(rand.NewSource(seed)))
			for name, got := range map[string][]complex128{
				"trajectory": state,
				"Trajectory": m.Trajectory(c, rand.New(rand.NewSource(seed))),
			} {
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("model %d seed %d: %s amplitude %d = %v, per-op build gives %v",
							mi, seed, name, k, got[k], want[k])
					}
				}
			}
		}
	}
}

func TestAmplitudeDampingJumpSingleQubit(t *testing.T) {
	// |1> with damping gamma: P(0) -> gamma exactly (averaged).
	c := circuit.New(1)
	c.X(0)
	m := Model{DampingError: 0.3}
	p := m.Run(c, Options{Trajectories: 20000, Seed: 11})
	if math.Abs(p[0]-0.3) > 0.02 {
		t.Errorf("P(0) after damping = %g, want ~0.3", p[0])
	}
}

func TestAmplitudeDampingJumpPreservesNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c := bell()
	m := Model{DampingError: 0.4}
	for i := 0; i < 30; i++ {
		state := m.Trajectory(c, rng)
		if math.Abs(state.Norm()-1) > 1e-9 {
			t.Fatal("damping trajectory broke normalization")
		}
	}
}

func TestAmplitudeDampingOnSuperposition(t *testing.T) {
	// H|0> then damping: exact channel gives
	// P(1) = (1-gamma)/2; cross-validate the trajectory average.
	c := circuit.New(1)
	c.H(0)
	gamma := 0.5
	m := Model{DampingError: gamma}
	p := m.Run(c, Options{Trajectories: 40000, Seed: 13})
	want1 := (1 - gamma) / 2
	if math.Abs(p[1]-want1) > 0.02 {
		t.Errorf("P(1) = %g, want ~%g", p[1], want1)
	}
}

func TestQuitoDevice(t *testing.T) {
	d := QuitoT()
	if d.Coupling.NumQubits != 5 || d.Coupling.Distance(0, 4) != 3 {
		t.Fatalf("Quito topology wrong: d(0,4)=%d", d.Coupling.Distance(0, 4))
	}
	c := circuit.New(5)
	c.H(0)
	c.CX(0, 4) // needs routing through the T junction
	p, err := d.Run(c, Options{Seed: 9, Trajectories: 100})
	if err != nil {
		t.Fatal(err)
	}
	var s float64
	for _, v := range p {
		s += v
	}
	if math.Abs(s-1) > 1e-9 {
		t.Errorf("Quito run sums to %g", s)
	}
	// Bell-like mass on |00000> and |10001>.
	if p[0]+p[17] < 0.75 {
		t.Errorf("Quito Bell output degraded too much: P(00000)+P(10001) = %g", p[0]+p[17])
	}
}

func TestSampleShotsGuideMatchesBinarySearch(t *testing.T) {
	// The guide-table fast path must produce the bit-identical histogram
	// the per-shot binary search produces from the same RNG state, for
	// every distribution shape: skewed mass, zero runs, unnormalized
	// totals, dims around the guide threshold.
	shapes := map[string]func(rng *rand.Rand, dim int) []float64{
		"uniformish": func(rng *rand.Rand, dim int) []float64 {
			p := make([]float64, dim)
			for i := range p {
				p[i] = rng.Float64()
			}
			return p
		},
		"sparse": func(rng *rand.Rand, dim int) []float64 {
			p := make([]float64, dim)
			for i := range p {
				if rng.Float64() < 0.2 {
					p[i] = rng.Float64()
				}
			}
			if allZero(p) {
				p[dim/2] = 1
			}
			return p
		},
		"skewed": func(rng *rand.Rand, dim int) []float64 {
			p := make([]float64, dim)
			p[0] = 1e6
			for i := 1; i < dim; i++ {
				p[i] = rng.Float64() * 1e-6
			}
			return p
		},
	}
	rng := rand.New(rand.NewSource(31))
	for name, gen := range shapes {
		for _, dim := range []int{guideMinDim, 5, 32, 257} {
			p := gen(rng, dim)
			shots := guideMinShots * 4
			got := SampleShots(p, shots, rand.New(rand.NewSource(77)))
			want := binarySearchSampleShots(p, shots, rand.New(rand.NewSource(77)))
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("%s dim=%d: hist[%d] = %g, binary-search path %g",
						name, dim, k, got[k], want[k])
				}
			}
		}
	}
}

func allZero(p []float64) bool {
	for _, v := range p {
		if v != 0 {
			return false
		}
	}
	return true
}

// binarySearchSampleShots is the pre-guide-table sampler, kept as the
// reference implementation for the equivalence test.
func binarySearchSampleShots(p []float64, shots int, rng *rand.Rand) []float64 {
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
	for s := 0; s < shots; s++ {
		hist[sampleIndex(cdf, acc, rng.Float64()*acc)]++
	}
	inv := 1 / float64(shots)
	for i := range hist {
		hist[i] *= inv
	}
	return hist
}

func TestGuideIndexMatchesSampleIndexExhaustively(t *testing.T) {
	// Sweep draws across bucket boundaries (including the exact bound
	// values, where float rounding in the guide bucket is most likely to
	// bite) and check guideIndex against sampleIndex on each.
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 50; trial++ {
		dim := 1 + rng.Intn(64)
		cdf := make([]float64, dim)
		acc := 0.0
		for i := range cdf {
			if rng.Float64() < 0.3 {
				acc += rng.Float64()
			}
			cdf[i] = acc
		}
		if acc == 0 {
			continue
		}
		guide := buildShotGuide(cdf, acc)
		probe := func(r float64) {
			t.Helper()
			if g, w := guideIndex(cdf, guide, acc, r), sampleIndex(cdf, acc, r); g != w {
				t.Fatalf("dim=%d r=%g: guideIndex=%d sampleIndex=%d", dim, r, g, w)
			}
		}
		for j := 0; j <= dim; j++ {
			bound := float64(j) / float64(dim) * acc
			probe(bound)
			probe(math.Nextafter(bound, 0))
			probe(math.Nextafter(bound, acc*2))
		}
		for i := 0; i < 200; i++ {
			probe(rng.Float64() * acc)
		}
	}
}
