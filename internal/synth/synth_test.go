package synth

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/linalg"
	"repro/internal/sim"
)

func TestApplyLeftMatchesFullProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := linalg.RandomUnitary(8, rng)
	g := (*[16]complex128)(linalg.RandomUnitary(4, rng).Data)
	op := aop{kind: opCX, q1: 2, q2: 0}
	got := m.Copy()
	applyOpLeft(got, op, g)
	// Full G: acts on qubits 2 (MSB of gate) and 0; expand manually via
	// a 3-qubit circuit application to identity columns.
	full := linalg.Identity(8)
	applyOpLeft(full, op, g)
	want := linalg.Mul(full, m)
	if !linalg.EqualApprox(got, want, 1e-9) {
		t.Error("applyOpLeft != G_full · m")
	}
}

func TestApplyRightMatchesFullProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := linalg.RandomUnitary(8, rng)
	g := (*[16]complex128)(linalg.RandomUnitary(4, rng).Data)
	op := aop{kind: opCX, q1: 1, q2: 2}
	full := linalg.Identity(8)
	applyOpLeft(full, op, g)
	want := linalg.Mul(m, full)
	got := m.Copy()
	applyOpRight(got, op, g)
	if !linalg.EqualApprox(got, want, 1e-9) {
		t.Error("applyOpRight != m · G_full")
	}
}

func TestObjectiveGradientMatchesNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	target := linalg.RandomUnitary(4, rng)
	a := newSeedAnsatz(2).withLayer(0, 1).withLayer(0, 1)
	obj := newObjective(a, target)
	params := make([]float64, a.nparams)
	for i := range params {
		params[i] = rng.Float64()*2 - 1
	}
	grad := make([]float64, a.nparams)
	f := obj.valueGrad(params, grad)
	if math.Abs(f-obj.value(params)) > 1e-12 {
		t.Errorf("valueGrad f=%g != value %g", f, obj.value(params))
	}
	const h = 1e-6
	for i := range params {
		orig := params[i]
		params[i] = orig + h
		fp := obj.value(params)
		params[i] = orig - h
		fm := obj.value(params)
		params[i] = orig
		num := (fp - fm) / (2 * h)
		if math.Abs(num-grad[i]) > 1e-5 {
			t.Errorf("grad[%d] = %g, numeric %g", i, grad[i], num)
		}
	}
}

func TestSynthesizeOneQubit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	target := linalg.RandomUnitary(2, rng)
	res, err := Synthesize(target, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Distance > 1e-6 {
		t.Errorf("1-qubit distance = %g", res.Best.Distance)
	}
	if res.Best.CNOTs != 0 {
		t.Errorf("1-qubit CNOTs = %d", res.Best.CNOTs)
	}
	// Verify the circuit actually implements the target.
	u := sim.Unitary(res.Best.Circuit)
	if d := linalg.HSDistance(target, u); d > 1e-6 {
		t.Errorf("reconstructed distance = %g", d)
	}
}

func TestSynthesizeCNOTTarget(t *testing.T) {
	target := gate.MustLookup("cx").Build(nil)
	res, err := Synthesize(target, Options{Seed: 3, MaxCNOTs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Distance > 1e-5 {
		t.Errorf("CX synthesis distance = %g", res.Best.Distance)
	}
	if res.Best.CNOTs > 1 {
		t.Errorf("CX synthesized with %d CNOTs, want <= 1", res.Best.CNOTs)
	}
}

func TestSynthesizeRandomTwoQubit(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	target := linalg.RandomUnitary(4, rng)
	res, err := Synthesize(target, Options{Seed: 11, MaxCNOTs: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Any 2-qubit unitary needs at most 3 CNOTs.
	if res.Best.Distance > 1e-4 {
		t.Errorf("2-qubit synthesis distance = %g with %d CNOTs", res.Best.Distance, res.Best.CNOTs)
	}
	u := sim.Unitary(res.Best.Circuit)
	if d := linalg.HSDistance(target, u); math.Abs(d-res.Best.Distance) > 1e-6 {
		t.Errorf("reported distance %g != recomputed %g", res.Best.Distance, d)
	}
}

func TestSynthesizeHarvestAllCollectsMultipleDepths(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	target := linalg.RandomUnitary(4, rng)
	res, err := Synthesize(target, Options{Seed: 13, MaxCNOTs: 4, HarvestAll: true, Threshold: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	depths := map[int]bool{}
	for _, c := range res.Candidates {
		depths[c.CNOTs] = true
	}
	if len(depths) < 3 {
		t.Errorf("HarvestAll produced candidates at %d depths, want >= 3", len(depths))
	}
	// Candidates sorted by (CNOTs, Distance).
	for i := 1; i < len(res.Candidates); i++ {
		a, b := res.Candidates[i-1], res.Candidates[i]
		if a.CNOTs > b.CNOTs || (a.CNOTs == b.CNOTs && a.Distance > b.Distance) {
			t.Fatal("candidates not sorted")
		}
	}
}

func TestSynthesizeDistancesDecreaseWithDepth(t *testing.T) {
	// Deeper trees have more degrees of freedom: the best distance at
	// depth d+1 should not be much worse than at depth d.
	rng := rand.New(rand.NewSource(8))
	target := linalg.RandomUnitary(4, rng)
	res, err := Synthesize(target, Options{Seed: 17, MaxCNOTs: 3, HarvestAll: true})
	if err != nil {
		t.Fatal(err)
	}
	best := map[int]float64{}
	for _, c := range res.Candidates {
		if d, ok := best[c.CNOTs]; !ok || c.Distance < d {
			best[c.CNOTs] = c.Distance
		}
	}
	if best[3] > best[0] {
		t.Errorf("distance at depth 3 (%g) worse than depth 0 (%g)", best[3], best[0])
	}
}

func TestSynthesizeRespectsCoupling(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	target := linalg.RandomUnitary(8, rng)
	res, err := Synthesize(target, Options{
		Seed: 19, MaxCNOTs: 2, HarvestAll: true, Threshold: 1e-12,
		CouplingPairs: [][2]int{{0, 1}, {1, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Candidates {
		for _, op := range c.Circuit.Ops {
			if op.Name != "cx" {
				continue
			}
			pr := [2]int{op.Qubits[0], op.Qubits[1]}
			if pr != [2]int{0, 1} && pr != [2]int{1, 2} {
				t.Fatalf("CNOT on disallowed pair %v", pr)
			}
		}
	}
}

func TestSynthesizeRejectsBadTargets(t *testing.T) {
	if _, err := Synthesize(linalg.New(3, 3), Options{}); err == nil {
		t.Error("non-power-of-two dimension accepted")
	}
	if _, err := Synthesize(linalg.New(4, 2), Options{}); err == nil {
		t.Error("non-square accepted")
	}
	notU := linalg.Identity(4)
	notU.Set(0, 0, 2)
	if _, err := Synthesize(notU, Options{}); err == nil {
		t.Error("non-unitary accepted")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	target := linalg.RandomUnitary(4, rng)
	r1, err1 := Synthesize(target, Options{Seed: 23, MaxCNOTs: 2, HarvestAll: true})
	r2, err2 := Synthesize(target, Options{Seed: 23, MaxCNOTs: 2, HarvestAll: true})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if len(r1.Candidates) != len(r2.Candidates) || r1.Best.Distance != r2.Best.Distance {
		t.Error("Synthesize not deterministic for fixed seed")
	}
}

func TestSynthesizeKnownCircuitReduces(t *testing.T) {
	// A wasteful circuit: CX;CX cancels to identity — synthesis should
	// find a 0-CNOT solution.
	c := circuit.New(2)
	c.CX(0, 1)
	c.CX(0, 1)
	c.RZ(0, 0.3)
	target := sim.Unitary(c)
	res, err := Synthesize(target, Options{Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.CNOTs != 0 || res.Best.Distance > 1e-6 {
		t.Errorf("redundant-CX circuit: best %d CNOTs at distance %g, want 0 CNOTs",
			res.Best.CNOTs, res.Best.Distance)
	}
}

func TestSynthesizeNegativeMaxCNOTs(t *testing.T) {
	// MaxCNOTs < 0 means rotation-only: every candidate has zero CNOTs.
	target := linalg.Kron(gate.RZMatrix(0.4), gate.RYMatrix(0.8))
	res, err := Synthesize(target, Options{MaxCNOTs: -1, HarvestAll: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Candidates {
		if c.CNOTs != 0 {
			t.Fatalf("rotation-only synthesis produced %d CNOTs", c.CNOTs)
		}
	}
	if res.Best.Distance > 1e-6 {
		t.Errorf("separable target not reached: %g", res.Best.Distance)
	}
}

func TestCanonicalIdempotent(t *testing.T) {
	// A caller that memoizes on Canonical(n) and then runs that form
	// (internal/ucache) must get the search it asked for, so a second
	// canonicalization may change nothing. In particular the rotation-only
	// request must not collapse to MaxCNOTs 0, the universal budget.
	others := []Options{
		{},
		{
			Threshold: 0.01, Beam: 3, ReseedEvery: 2, Restarts: 2,
			CouplingPairs: [][2]int{{0, 1}}, HarvestAll: true, KeepPerDepth: 6,
			Seed: 9,
		},
	}
	for _, maxCNOTs := range []int{-7, -1, 0, 1, 5} {
		for i, base := range others {
			for n := 1; n <= 3; n++ {
				o := base
				o.MaxCNOTs = maxCNOTs
				t.Run(fmt.Sprintf("max%d/opts%d/n%d", maxCNOTs, i, n), func(t *testing.T) {
					once := o.Canonical(n)
					if twice := once.Canonical(n); !reflect.DeepEqual(twice, once) {
						t.Errorf("Canonical not idempotent:\n once  %+v\n twice %+v", once, twice)
					}
					if once.MaxCNOTs == 0 {
						t.Errorf("canonical MaxCNOTs is 0 (universal budget sentinel)")
					}
					if maxCNOTs < 0 && once.MaxCNOTs != -1 {
						t.Errorf("MaxCNOTs %d canonicalized to %d, want -1", maxCNOTs, once.MaxCNOTs)
					}
				})
			}
		}
	}
}
