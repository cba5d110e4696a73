package ucache

import (
	"context"
	"math"
	"math/cmplx"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/linalg"
	"repro/internal/sim"
	"repro/internal/synth"
)

var testOpts = synth.Options{Threshold: 0.05, MaxCNOTs: 3, HarvestAll: true, Seed: 7}

func TestHitMatchesColdResult(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	target := linalg.RandomUnitary(4, rng)
	c := New(8, 0)

	cold, hit, err := c.Synthesize(target, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first lookup reported as hit")
	}
	warm, hit, err := c.Synthesize(target, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second lookup missed")
	}
	if len(warm.Candidates) != len(cold.Candidates) {
		t.Fatalf("hit has %d candidates, cold %d", len(warm.Candidates), len(cold.Candidates))
	}
	for i := range warm.Candidates {
		w, co := warm.Candidates[i], cold.Candidates[i]
		if w.Distance != co.Distance || w.CNOTs != co.CNOTs {
			t.Errorf("candidate %d: hit (%g, %d) != cold (%g, %d)", i, w.Distance, w.CNOTs, co.Distance, co.CNOTs)
		}
	}
	if warm.Best.Distance != cold.Best.Distance {
		t.Errorf("best distance: hit %g != cold %g", warm.Best.Distance, cold.Best.Distance)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss", st)
	}
}

func TestHitResultIsIndependentCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	target := linalg.RandomUnitary(4, rng)
	c := New(8, 0)
	first, _, err := c.Synthesize(target, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate-in-place the way internal/pipeline does; the cache must be
	// unaffected.
	kept := first.Candidates[:0]
	for _, cand := range first.Candidates {
		cand.Distance = -1
		cand.Circuit.Ops = nil
		kept = append(kept, cand)
	}
	second, hit, err := c.Synthesize(target, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("expected hit")
	}
	for i, cand := range second.Candidates {
		if cand.Distance < 0 || len(cand.Circuit.Ops) == 0 {
			t.Fatalf("candidate %d leaked caller mutations: %+v", i, cand)
		}
	}
}

func TestGlobalPhaseHits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	target := linalg.RandomUnitary(4, rng)
	c := New(8, 0)
	if _, hit, err := c.Synthesize(target, testOpts); err != nil || hit {
		t.Fatal(err, hit)
	}
	rotated := target.Copy()
	phase := cmplx.Exp(complex(0, 1.234))
	for i := range rotated.Data {
		rotated.Data[i] *= phase
	}
	res, hit, err := c.Synthesize(rotated, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("global-phase-rotated target missed")
	}
	// HS distance is phase-invariant, so the stored distances stay valid
	// bounds; the inflation term is the numeric noise of d(T, e^{iφ}T).
	u := sim.Unitary(res.Best.Circuit)
	if d := linalg.HSDistance(rotated, u); d > res.Best.Distance+1e-7 {
		t.Errorf("true distance %g exceeds reported %g", d, res.Best.Distance)
	}
}

func TestNearHitInflatesDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	target := linalg.RandomUnitary(4, rng)
	c := New(8, 1e-6) // generous tolerance so the perturbation below hits
	cold, _, err := c.Synthesize(target, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	perturbed := target.Copy()
	perturbed.Data[0] += 1e-9
	res, hit, err := c.Synthesize(perturbed, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("perturbed target missed")
	}
	delta := linalg.HSDistance(target, perturbed)
	for i := range res.Candidates {
		want := cold.Candidates[i].Distance + delta
		if got := res.Candidates[i].Distance; got != want {
			t.Errorf("candidate %d distance %g, want inflated %g", i, got, want)
		}
	}
	// The inflated distances remain true upper bounds (triangle
	// inequality) — the Sec. 3.8 sum over these can only over-count.
	for _, cand := range res.Candidates {
		u := sim.Unitary(cand.Circuit)
		if d := linalg.HSDistance(perturbed, u); d > cand.Distance+1e-9 {
			t.Errorf("true distance %g exceeds reported bound %g", d, cand.Distance)
		}
	}
}

func TestHitReturnsCircuitWithinEpsilon(t *testing.T) {
	// Acceptance test: a hit must return a circuit within the requested
	// quality. Synthesize to threshold ε cold, then verify the hit's best
	// candidate still satisfies ε against the (re-requested) target.
	rng := rand.New(rand.NewSource(5))
	target := linalg.RandomUnitary(4, rng)
	const eps = 0.05
	opts := synth.Options{Threshold: eps, MaxCNOTs: 3, Seed: 11}
	c := New(8, 0)
	if _, _, err := c.Synthesize(target, opts); err != nil {
		t.Fatal(err)
	}
	res, hit, err := c.Synthesize(target, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("expected hit")
	}
	if res.Best.Distance > eps {
		t.Fatalf("hit best distance %g > requested ε %g", res.Best.Distance, eps)
	}
	u := sim.Unitary(res.Best.Circuit)
	if d := linalg.HSDistance(target, u); d > eps {
		t.Fatalf("hit circuit's true distance %g > requested ε %g", d, eps)
	}
}

func TestThresholdIgnoredUnderHarvestAll(t *testing.T) {
	// With HarvestAll the threshold only gates early exit (disabled), so
	// an ε-sweep over the same target should hit after the first ε.
	rng := rand.New(rand.NewSource(6))
	target := linalg.RandomUnitary(4, rng)
	c := New(8, 0)
	a := testOpts
	a.Threshold = 0.02
	if _, hit, err := c.Synthesize(target, a); err != nil || hit {
		t.Fatal(err, hit)
	}
	b := testOpts
	b.Threshold = 0.1
	if _, hit, err := c.Synthesize(target, b); err != nil || !hit {
		t.Fatalf("ε=0.1 after ε=0.02 under HarvestAll: hit=%v err=%v", hit, err)
	}
	// Without HarvestAll the threshold steers the search and must key.
	na := testOpts
	na.HarvestAll = false
	na.Threshold = 0.02
	if _, hit, err := c.Synthesize(target, na); err != nil || hit {
		t.Fatal(err, hit)
	}
	nb := na
	nb.Threshold = 0.1
	if _, hit, err := c.Synthesize(target, nb); err != nil || hit {
		t.Fatalf("threshold change without HarvestAll must miss: hit=%v err=%v", hit, err)
	}
}

func TestDefaultedOptionsShareEntries(t *testing.T) {
	// Beam:0 canonicalizes to Beam:2 — both spellings must map to the
	// same entry.
	rng := rand.New(rand.NewSource(7))
	target := linalg.RandomUnitary(4, rng)
	c := New(8, 0)
	a := testOpts
	a.Beam = 0
	if _, hit, err := c.Synthesize(target, a); err != nil || hit {
		t.Fatal(err, hit)
	}
	b := testOpts
	b.Beam = 2
	if _, hit, err := c.Synthesize(target, b); err != nil || !hit {
		t.Fatalf("explicit default Beam must hit: hit=%v err=%v", hit, err)
	}
}

func TestKeyBytesUnchangedByRetiredOptions(t *testing.T) {
	// Persisted journals address entries by key, so the key of every
	// canonical option set must survive option removals. These values
	// were recorded while synth.Options still carried the A* Strategy
	// and NodeBudget fields (canonically 0 and 40).
	target := linalg.RandomUnitary(8, rand.New(rand.NewSource(42)))
	cases := []synth.Options{
		{},
		{HarvestAll: true, MaxCNOTs: 5, Threshold: 0.0125, Beam: 2, Restarts: 1, KeepPerDepth: 4, Seed: 77},
		{MaxCNOTs: -1, Seed: 3, CouplingPairs: [][2]int{{0, 1}, {1, 2}}},
	}
	want := map[float64][]uint64{
		0:    {0xf2e65ffa999f36b8, 0xebf4ac622034a9bd, 0xca0f6ad2e695a353},
		1e-3: {0xb6300c751bdc0e17, 0xace6e925a95ab64a, 0x1cbf39dbe3112a0c},
	}
	for tol, keys := range want {
		c := New(0, tol)
		for i, o := range cases {
			if got := c.key(target, o.Canonical(3)); got != keys[i] {
				t.Errorf("tol %g case %d: key %#016x, recorded %#016x", tol, i, got, keys[i])
			}
		}
	}
}

func TestRotationOnlyCacheTransparent(t *testing.T) {
	// A rotation-only request (MaxCNOTs < 0) must run the same search
	// through the cache as without it, on the miss and on the hit: the
	// cache runs the canonical options, which must still forbid CNOT
	// layers rather than fall back to the universal budget.
	for _, n := range []int{3, 2} {
		c := circuit.New(n)
		for q := 0; q < n; q++ {
			c.RZ(q, 0.3+0.2*float64(q))
			c.RY(q, 0.7-0.1*float64(q))
			c.RX(q, 0.4*float64(q+1))
		}
		target := sim.Unitary(c)
		opts := synth.Options{MaxCNOTs: -1, HarvestAll: true, Seed: 11}
		want, err := synth.SynthesizeCtx(context.Background(), target, opts)
		if err != nil {
			t.Fatal(err)
		}
		cache := New(8, 0)
		for _, wantHit := range []bool{false, true} {
			got, hit, err := cache.SynthesizeCtx(context.Background(), target, opts)
			if err != nil {
				t.Fatal(err)
			}
			if hit != wantHit {
				t.Fatalf("n=%d: hit = %v, want %v", n, hit, wantHit)
			}
			if len(got.Candidates) != len(want.Candidates) {
				t.Fatalf("n=%d hit=%v: %d candidates, uncached %d", n, hit, len(got.Candidates), len(want.Candidates))
			}
			for i, g := range got.Candidates {
				w := want.Candidates[i]
				if g.CNOTs != 0 {
					t.Errorf("n=%d hit=%v: candidate %d has %d CNOTs", n, hit, i, g.CNOTs)
				}
				if math.Float64bits(g.Distance) != math.Float64bits(w.Distance) {
					t.Errorf("n=%d hit=%v: candidate %d distance %v, uncached %v", n, hit, i, g.Distance, w.Distance)
				}
				if !reflect.DeepEqual(g.Circuit.Ops, w.Circuit.Ops) {
					t.Errorf("n=%d hit=%v: candidate %d gate list differs from uncached", n, hit, i)
				}
			}
		}
	}
}

func TestLRUEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := New(2, 0)
	targets := make([]*linalg.Matrix, 3)
	for i := range targets {
		targets[i] = linalg.RandomUnitary(2, rng)
		if _, _, err := c.Synthesize(targets[i], testOpts); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// targets[0] was least recently used and must be gone.
	if _, hit, err := c.Synthesize(targets[0], testOpts); err != nil || hit {
		t.Fatalf("evicted entry hit=%v err=%v", hit, err)
	}
	if _, hit, err := c.Synthesize(targets[2], testOpts); err != nil || !hit {
		t.Fatalf("recent entry missed: hit=%v err=%v", hit, err)
	}
}

func TestSingleflightCollapsesConcurrentMisses(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	target := linalg.RandomUnitary(4, rng)
	c := New(8, 0)
	const callers = 8
	results := make([]synth.Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, err := c.Synthesize(target, testOpts)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1 (singleflight)", st.Misses)
	}
	if st.Hits != callers-1 {
		t.Errorf("hits = %d, want %d", st.Hits, callers-1)
	}
	for i := 1; i < callers; i++ {
		if results[i].Best.Distance != results[0].Best.Distance {
			t.Errorf("caller %d best distance %g != caller 0 %g", i, results[i].Best.Distance, results[0].Best.Distance)
		}
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New(8, 0)
	bad := linalg.Identity(4)
	bad.Set(0, 0, 2) // not unitary
	if _, _, err := c.Synthesize(bad, testOpts); err == nil {
		t.Fatal("non-unitary target accepted")
	}
	if c.Len() != 0 {
		t.Fatalf("error cached: Len = %d", c.Len())
	}
}

func TestTargetKeyPhaseInvariantAndContentSensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	u := linalg.RandomUnitary(4, rng)
	rotated := u.Copy()
	phase := cmplx.Exp(complex(0, -2.1))
	for i := range rotated.Data {
		rotated.Data[i] *= phase
	}
	if TargetKey(u) != TargetKey(rotated) {
		t.Error("TargetKey not global-phase invariant")
	}
	other := linalg.RandomUnitary(4, rng)
	if TargetKey(u) == TargetKey(other) {
		t.Error("TargetKey collides for unrelated unitaries")
	}
}
