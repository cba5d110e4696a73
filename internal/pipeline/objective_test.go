package pipeline

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/algos"
	"repro/internal/fidelity"
	"repro/internal/noise"
)

func manilaProfile() fidelity.Profile {
	return fidelity.FromNoiseModel(noise.Manila().Model)
}

// TestExplicitCNOTObjectiveIsDefault: a Config with Objective set to
// CNOTObjective() must produce bit-identical selections to the historical
// nil-Objective Config.
func TestExplicitCNOTObjectiveIsDefault(t *testing.T) {
	c, err := algos.Generate("tfim", 4)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{MaxSamples: 6, Seed: 3}
	withObj := base
	withObj.Objective = CNOTObjective()

	r1, err := Run(c, base)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(c, withObj)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Selected) != len(r2.Selected) {
		t.Fatalf("selected %d vs %d approximations", len(r1.Selected), len(r2.Selected))
	}
	for i := range r1.Selected {
		if !reflect.DeepEqual(r1.Selected[i].Choice, r2.Selected[i].Choice) {
			t.Errorf("sample %d: choice %v vs %v", i, r1.Selected[i].Choice, r2.Selected[i].Choice)
		}
		if math.Float64bits(r1.Selected[i].EpsilonSum) != math.Float64bits(r2.Selected[i].EpsilonSum) {
			t.Errorf("sample %d: Σε differs bitwise", i)
		}
	}
}

func TestCNOTObjectiveCost(t *testing.T) {
	obj := CNOTObjective()
	if obj.Spec() != "cnot" {
		t.Errorf("Spec = %q", obj.Spec())
	}
	got := obj.Cost(ChoiceStats{CNOTs: 18}, CircuitInfo{NumQubits: 4, OrigCNOTs: 24})
	if want := float64(18) / float64(24); got != want {
		t.Errorf("Cost = %v, want %v", got, want)
	}
}

func TestFidelityObjectiveCost(t *testing.T) {
	p := manilaProfile()
	obj, err := FidelityObjective("fidelity:manila", p)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Spec() != "fidelity:manila" {
		t.Errorf("Spec = %q", obj.Spec())
	}
	st := ChoiceStats{CNOTs: 20, Gates1Q: 40, EpsSum: 0.1}
	info := CircuitInfo{NumQubits: 4, OrigCNOTs: 24}
	dev := p.Estimate(fidelity.Counts{OneQubit: 40, TwoQubit: 20, Measured: 4})
	want := 1 - dev*0.9
	if got := obj.Cost(st, info); math.Abs(got-want) > 1e-12 {
		t.Errorf("Cost = %v, want %v", got, want)
	}
	// Feasible costs stay in [0,1] even when Σε exceeds 1.
	if got := obj.Cost(ChoiceStats{CNOTs: 5, EpsSum: 1.7}, info); got != 1 {
		t.Errorf("Cost with Σε>1 = %v, want 1", got)
	}

	// More CNOTs must cost more; more approximation error must cost more.
	base := obj.Cost(st, info)
	if c := obj.Cost(ChoiceStats{CNOTs: 25, Gates1Q: 40, EpsSum: 0.1}, info); c <= base {
		t.Error("extra CNOTs did not increase cost")
	}
	if c := obj.Cost(ChoiceStats{CNOTs: 20, Gates1Q: 40, EpsSum: 0.2}, info); c <= base {
		t.Error("extra approximation error did not increase cost")
	}

	if _, err := FidelityObjective("fidelity:bad", fidelity.Profile{OneQubit: -1}); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestHybridObjectiveCost(t *testing.T) {
	p := manilaProfile()
	hyb, err := HybridObjective("hybrid:0.25:manila", 0.25, p)
	if err != nil {
		t.Fatal(err)
	}
	cnot := CNOTObjective()
	fid, err := FidelityObjective("fidelity:manila", p)
	if err != nil {
		t.Fatal(err)
	}
	st := ChoiceStats{CNOTs: 12, Gates1Q: 30, EpsSum: 0.05}
	info := CircuitInfo{NumQubits: 5, OrigCNOTs: 30}
	want := 0.25*cnot.Cost(st, info) + 0.75*fid.Cost(st, info)
	if got := hyb.Cost(st, info); math.Abs(got-want) > 1e-12 {
		t.Errorf("Cost = %v, want %v", got, want)
	}
	for _, w := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := HybridObjective("hybrid:x", w, p); err == nil {
			t.Errorf("weight %v accepted", w)
		}
	}
}

// The fidelity and hybrid objectives compute their log1p rates once,
// when they are built; Cost must still equal the per-call formula
// 1 − exp(profile.LogEstimate(counts))·max(0, 1−Σε) bit for bit, over
// random counts with zero counts included.
func TestObjectiveCostMatchesPerCallFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, p := range []fidelity.Profile{manilaProfile(), {OneQubit: 1e-3, TwoQubit: 2e-2, Readout: 3e-2, SPAM: 1e-2}} {
		testCostMatchesPerCallFormula(t, rng, p)
	}
}

func testCostMatchesPerCallFormula(t *testing.T, rng *rand.Rand, p fidelity.Profile) {
	t.Helper()
	fid, err := FidelityObjective("fidelity:test", p)
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := HybridObjective("hybrid:0.3:test", 0.3, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		// Every fourth count is zero.
		count := func(n int) int {
			if rng.Intn(4) == 0 {
				return 0
			}
			return rng.Intn(n)
		}
		st := ChoiceStats{CNOTs: count(400), Gates1Q: count(900), EpsSum: 1.2 * rng.Float64()}
		info := CircuitInfo{NumQubits: count(21), OrigCNOTs: 1 + rng.Intn(400)}
		approx := 1 - st.EpsSum
		if approx < 0 {
			approx = 0
		}
		dev := math.Exp(p.LogEstimate(fidelity.Counts{OneQubit: st.Gates1Q, TwoQubit: st.CNOTs, Measured: info.NumQubits}))
		want := 1 - dev*approx
		if got := fid.Cost(st, info); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("fidelity Cost(%+v, %+v) = %x, want %x", st, info, math.Float64bits(got), math.Float64bits(want))
		}
		wantHyb := 0.3*(float64(st.CNOTs)/float64(info.OrigCNOTs)) + (1-0.3)*want
		if got := hyb.Cost(st, info); math.Float64bits(got) != math.Float64bits(wantHyb) {
			t.Fatalf("hybrid Cost(%+v, %+v) = %x, want %x", st, info, math.Float64bits(got), math.Float64bits(wantHyb))
		}
	}
}

// TestSelectKeyCarriesObjectiveSpec: switching objectives must invalidate
// selection artifacts (distinct selectKey) while leaving the synthesis
// fingerprint untouched (an objective switch is a cheap Reselect).
func TestSelectKeyCarriesObjectiveSpec(t *testing.T) {
	base := Config{}.Resolved()
	fid := base
	var err error
	fid.Objective, err = FidelityObjective("fidelity:manila", manilaProfile())
	if err != nil {
		t.Fatal(err)
	}
	if base.selectKey() == fid.selectKey() {
		t.Error("selectKey identical across objectives")
	}
	if !strings.Contains(base.selectKey(), "obj=cnot") {
		t.Errorf("default selectKey %q lacks obj=cnot", base.selectKey())
	}
	if !strings.Contains(fid.selectKey(), "obj=fidelity:manila") {
		t.Errorf("fidelity selectKey %q lacks the objective spec", fid.selectKey())
	}
	if base.synthKey() != fid.synthKey() {
		t.Error("synthKey differs across objectives; candidate harvest must be reusable")
	}
	// An unresolved config derives the same default spec.
	if got := (Config{}).objectiveSpec(); got != "cnot" {
		t.Errorf("unresolved objectiveSpec = %q", got)
	}
}

// TestReselectWithFidelityObjective: one SynthesisArtifact must serve
// both objectives, and the fidelity objective must produce a valid
// selection whose artifact key records the objective.
func TestReselectWithFidelityObjective(t *testing.T) {
	c, err := algos.Generate("tfim", 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := Config{MaxSamples: 6, Seed: 3}
	sa, err := Synthesize(ctx, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Reselect(ctx, sa, cfg); err != nil {
		t.Fatal(err)
	}
	fidCfg := cfg
	fidCfg.Objective, err = FidelityObjective("fidelity:manila", manilaProfile())
	if err != nil {
		t.Fatal(err)
	}
	fidSel, err := Reselect(ctx, sa, fidCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fidSel.Selected) == 0 {
		t.Fatal("fidelity objective selected nothing")
	}
	thr := fidSel.Threshold
	for i, ap := range fidSel.Selected {
		if ap.EpsilonSum > thr {
			t.Errorf("sample %d infeasible: Σε %v > %v", i, ap.EpsilonSum, thr)
		}
	}
}
