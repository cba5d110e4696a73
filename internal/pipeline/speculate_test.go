package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/fidelity"
	"repro/internal/par"
	"repro/internal/qasm"
)

var corpusArtifacts sync.Map // corpus circuit name → *SynthesisArtifact

// corpusArtifact synthesizes one circuit of examples/circuits/corpus at
// the corpus driver's defaults, once per test binary.
func corpusArtifact(tb testing.TB, name string) *SynthesisArtifact {
	tb.Helper()
	if art, ok := corpusArtifacts.Load(name); ok {
		return art.(*SynthesisArtifact)
	}
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "circuits", "corpus", name+".qasm"))
	if err != nil {
		tb.Fatal(err)
	}
	c, err := qasm.Parse(string(src))
	if err != nil {
		tb.Fatal(err)
	}
	art, err := Synthesize(context.Background(), c, Config{Seed: 1, Parallelism: 2})
	if err != nil {
		tb.Fatal(err)
	}
	corpusArtifacts.Store(name, art)
	return art
}

// memberDigest hashes every selected member: its choice, CNOT count,
// the bits of its Σε and its QASM.
func memberDigest(sel []Approximation) string {
	h := sha256.New()
	for _, a := range sel {
		fmt.Fprintf(h, "%v %d %016x\n%s", a.Choice, a.CNOTs, math.Float64bits(a.EpsilonSum), qasm.Write(a.Circuit))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// hybridTestObjective is a hybrid objective over Manila-scale rates, so
// the fidelity cost path is covered too.
func hybridTestObjective(t testing.TB) Objective {
	obj, err := HybridObjective("hybrid:0.5:test", 0.5, fidelity.Profile{OneQubit: 2e-4, TwoQubit: 8e-3, Readout: 2e-2})
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// selectionFixture is one selection over a corpus artifact. attempts is
// how often the sequential fold fires each attempt's fault site; want
// is the digest of the members the sequential selection picked before
// attempts could run on helpers.
type selectionFixture struct {
	circuit   string
	samples   int
	objective string // "cnot" or "hybrid"
	attempts  [dupRetries + 1]int64
	members   int
	want      string
}

var selectionFixtures = []selectionFixture{
	// Every attempt of the first sample is infeasible: nothing anneals
	// in, and the member is the per-block-best fallback.
	{"qaoa_14", 4, "cnot", [3]int64{1, 1, 1}, 1, "96775ffd3b380756"},
	// Two samples, then all three attempts of the third return an
	// already selected choice.
	{"cliffordt_20", 4, "cnot", [3]int64{3, 1, 1}, 2, "6da165b837867496"},
	// Capped at M, one sample decided by its retry.
	{"qft_8", 4, "cnot", [3]int64{4, 1, 0}, 4, "626b16dbeabdfe36"},
	{"qft_8", 4, "hybrid", [3]int64{4, 1, 0}, 4, "64117c99c40d6463"},
}

func (fx selectionFixture) config(t testing.TB) Config {
	cfg := Config{MaxSamples: fx.samples, Seed: 1}
	if fx.objective == "hybrid" {
		cfg.Objective = hybridTestObjective(t)
	}
	return cfg
}

// selectionModes are the helper-slot sources selection can draw from:
// run-private pools of Parallelism−1 slots (0, 1 and 3 helpers) and a
// shared Scheduler of 1, 2 and 4 slots. In a helperFirst mode every
// helper finishes its attempt before the caller starts annealing its
// own, the interleaving a fold that read attempts as they finish would
// get wrong.
var selectionModes = []struct {
	name        string
	parallelism int
	scheduler   int
	helperFirst bool
}{
	{"helpers=0", 1, 0, false},
	{"helpers=1", 2, 0, false},
	{"helpers=3", 4, 0, false},
	{"scheduler=1", 1, 1, false},
	{"scheduler=2", 1, 2, false},
	{"scheduler=4", 1, 4, false},
	{"scheduler=1/helper-first", 1, 1, true},
}

// countAttempts counts the firings of every attempt's fault site until
// the returned restore runs. hold, when non-nil, runs inside every
// attempt 0 before it anneals.
func countAttempts(hold func()) (counts *[dupRetries + 1]atomic.Int64, restore func()) {
	counts = new([dupRetries + 1]atomic.Int64)
	var restores []func()
	for a := range counts {
		restores = append(restores, faultinject.Set(fmt.Sprintf("select.attempt.%d", a), func(int) error {
			if a == 0 && hold != nil {
				hold()
			}
			counts[a].Add(1)
			return nil
		}))
	}
	return counts, func() {
		for _, r := range restores {
			r()
		}
	}
}

// assertSlotsFree fails unless every slot of p can be taken right now.
func assertSlotsFree(t *testing.T, p *par.Pool) {
	t.Helper()
	n := 0
	for n < p.Size() && p.TryAcquire() {
		n++
	}
	for i := 0; i < n; i++ {
		p.Release()
	}
	if n != p.Size() {
		t.Fatalf("%d of %d scheduler slots free after selection", n, p.Size())
	}
}

// TestSpeculativeSelectionIsBitIdentical runs selection with every
// helper-slot source and asserts each selects exactly the members the
// sequential fold selected before attempts could run speculatively
// (digests recorded then). The fixtures cover a sample whose attempts
// are all infeasible, sampling that ends on duplicates and a selection
// capped at M. It is not skipped under -short, so the race-checked
// test run covers the helpers.
func TestSpeculativeSelectionIsBitIdentical(t *testing.T) {
	for _, fx := range selectionFixtures {
		t.Run(fx.circuit+"/"+fx.objective, func(t *testing.T) {
			art := corpusArtifact(t, fx.circuit)
			for _, mode := range selectionModes {
				cfg := fx.config(t)
				cfg.Parallelism = mode.parallelism
				var sched *par.Pool
				if mode.scheduler > 0 {
					sched = par.NewPool(mode.scheduler)
					cfg.Scheduler = sched
				}
				var hold func()
				if mode.helperFirst {
					// Attempt 0 runs on the caller after the helper of
					// attempt 1 took the scheduler's one slot; it waits
					// until the helper has finished and released it.
					hold = func() {
						for !sched.TryAcquire() {
							time.Sleep(50 * time.Microsecond)
						}
						sched.Release()
					}
				}
				counts, restore := countAttempts(hold)
				sel, err := SelectionStage(cfg).Run(context.Background(), art)
				restore()
				if err != nil {
					t.Fatalf("%s: %v", mode.name, err)
				}
				if len(sel.Selected) != fx.members {
					t.Errorf("%s: %d members, want %d", mode.name, len(sel.Selected), fx.members)
				}
				if got := memberDigest(sel.Selected); got != fx.want {
					t.Errorf("%s: selection digest %s, want %s", mode.name, got, fx.want)
				}
				// Attempt 0 of every sample runs on the caller. The
				// sequential fold runs exactly the attempts it reads; with
				// helpers, every sample also speculates its attempt 1 (a
				// slot is always idle when a sample starts).
				if mode.parallelism == 1 && sched == nil {
					for a := range counts {
						if got := counts[a].Load(); got != fx.attempts[a] {
							t.Errorf("sequential fold ran attempt %d %d times, want %d", a, got, fx.attempts[a])
						}
					}
				} else if n0, n1 := counts[0].Load(), counts[1].Load(); n0 != fx.attempts[0] || n1 < n0 {
					t.Errorf("%s: attempts 0/1 ran %d/%d times, want %d/at least as many", mode.name, n0, n1, fx.attempts[0])
				}
				if sched != nil {
					assertSlotsFree(t, sched)
				}
			}
		})
	}
}

// An attempt's panic belongs to that attempt. With a fault site that
// panics inside every attempt 1: a sample decided by its attempt 0
// never reaches attempt 1, so selection does not panic even when a
// helper ran (and panicked in) attempt 1; a sample whose attempt 0
// fails reaches it, and the panic surfaces — as the raw value on the
// sequential fold, as a *par.PanicError carrying it from a helper. An
// injected error behaves the same way.
func TestSelectionAttemptFailureSurfacesOnlyWhenReached(t *testing.T) {
	type boom struct{}
	injected := errors.New("injected attempt failure")
	cases := []struct {
		circuit string
		samples int
		reached bool
	}{
		{"qft_8", 1, false},  // attempt 0 decides the only sample
		{"qaoa_14", 4, true}, // attempt 0 is infeasible
	}
	for _, tc := range cases {
		art := corpusArtifact(t, tc.circuit)
		for _, mode := range selectionModes {
			cfg := Config{MaxSamples: tc.samples, Seed: 1, Parallelism: mode.parallelism}
			var sched *par.Pool
			if mode.scheduler > 0 {
				sched = par.NewPool(mode.scheduler)
				cfg.Scheduler = sched
			}
			name := tc.circuit + "/" + mode.name

			var fired atomic.Int64
			restore := faultinject.Set("select.attempt.1", func(int) error {
				fired.Add(1)
				panic(boom{})
			})
			var recovered any
			func() {
				defer func() { recovered = recover() }()
				_, _ = SelectionStage(cfg).Run(context.Background(), art)
			}()
			restore()
			if speculative := mode.parallelism > 1 || sched != nil; speculative && fired.Load() == 0 {
				t.Errorf("%s: no helper ran attempt 1", name)
			}
			switch pe, isPE := recovered.(*par.PanicError); {
			case !tc.reached && recovered != nil:
				t.Errorf("%s: panic %v from an attempt the fold never reached", name, recovered)
			case tc.reached && recovered == nil:
				t.Errorf("%s: the panic of a reached attempt did not surface", name)
			case tc.reached && isPE && (pe.Value != boom{} || pe.Index != 1):
				t.Errorf("%s: helper panic %v, want attempt 1's boom", name, pe)
			case tc.reached && !isPE && recovered != boom{}:
				t.Errorf("%s: panic %v, want boom", name, recovered)
			}

			restore = faultinject.Set("select.attempt.1", faultinject.FailAlways(injected))
			_, err := SelectionStage(cfg).Run(context.Background(), art)
			restore()
			if got := errors.Is(err, injected); got != tc.reached {
				t.Errorf("%s: err = %v, want the injected error: %v", name, err, tc.reached)
			}
			if sched != nil {
				assertSlotsFree(t, sched)
			}
		}
	}
	if sites := faultinject.Sites(); len(sites) != 0 {
		t.Fatalf("hooks left installed: %v", sites)
	}
}
