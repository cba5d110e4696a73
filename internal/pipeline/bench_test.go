package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/algos"
	"repro/internal/fidelity"
)

// The ε-sweep benchmark pair quantifies the artifact-reuse win: a
// Fig. 16-style threshold sweep either re-runs the whole pipeline per
// ε-point (Full) or synthesizes once at the tightest ε and re-runs only
// the selection stage per point (Reselect). Synthesis dominates the
// pipeline cost (Fig. 12), so the reuse should win by the sweep's point
// count, roughly.

var sweepEpsilons = []float64{0.01, 0.03, 0.05, 0.1, 0.2, 0.4}

func sweepConfig() Config {
	return Config{
		MaxSamples:       4,
		AnnealIterations: 120,
		ThresholdCap:     1e9,
		Seed:             1,
	}
}

func BenchmarkEpsilonSweepFull(b *testing.B) {
	c, err := algos.Generate("tfim", 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, eps := range sweepEpsilons {
			cfg := sweepConfig()
			cfg.Epsilon = eps
			if _, err := Run(c, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// The selection benchmark pair measures what a pluggable objective costs
// in the selection stage itself: one Reselect over a fixed synthesis artifact under the paper's CNOT
// objective vs the device-fidelity objective, whose per-evaluation extra
// work is the log-domain ESP fold.
func benchmarkReselect(b *testing.B, obj Objective) {
	b.Helper()
	c, err := algos.Generate("tfim", 4)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	cfg := sweepConfig()
	cfg.Epsilon = 0.1
	cfg.Objective = obj
	art, err := Synthesize(ctx, c, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Reselect(ctx, art, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectionCNOT(b *testing.B) { benchmarkReselect(b, CNOTObjective()) }

func BenchmarkSelectionFidelity(b *testing.B) {
	// Representative superconducting-device rates (Manila-scale); the
	// benchmark cannot resolve the registry's profile without importing
	// backend, which would cycle.
	obj, err := FidelityObjective("fidelity:bench", fidelity.Profile{
		OneQubit: 2e-4, TwoQubit: 8e-3, Readout: 2e-2,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchmarkReselect(b, obj)
}

func BenchmarkEpsilonSweepReselect(b *testing.B) {
	c, err := algos.Generate("tfim", 4)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		base := sweepConfig()
		base.Epsilon = sweepEpsilons[0]
		art, err := Synthesize(ctx, c, base)
		if err != nil {
			b.Fatal(err)
		}
		for _, eps := range sweepEpsilons {
			cfg := base
			cfg.Epsilon = eps
			if _, err := Reselect(ctx, art, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkLoadSynthesis measures the artifact-store half of a questd
// artifact hit: decoding a saved 5-qubit artifact synthesized at questd's
// defaults (block size 3, ε = 0.05), as every serve job's circuit is.
func BenchmarkLoadSynthesis(b *testing.B) {
	c, err := algos.Generate("tfim", 5)
	if err != nil {
		b.Fatal(err)
	}
	art, err := Synthesize(context.Background(), c, Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := art.Save(&buf); err != nil {
		b.Fatal(err)
	}
	saved := buf.Bytes()
	b.SetBytes(int64(len(saved)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadSynthesis(bytes.NewReader(saved)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectCorpus is the selection stage of a warm corpus
// recompile over two corpus artifacts synthesized once: qaoa_14, whose
// every attempt comes back infeasible, and qft_8, which selects M = 4
// (one sample decided by its retry). slots is the run's Parallelism: 1
// anneals every attempt on the calling goroutine, 2 lets the next
// attempt anneal on the idle slot.
func BenchmarkSelectCorpus(b *testing.B) {
	arts := []*SynthesisArtifact{corpusArtifact(b, "qaoa_14"), corpusArtifact(b, "qft_8")}
	for _, slots := range []int{1, 2} {
		b.Run(fmt.Sprintf("slots=%d", slots), func(b *testing.B) {
			stage := SelectionStage(Config{MaxSamples: 4, Seed: 1, Parallelism: slots})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, art := range arts {
					if _, err := stage.Run(context.Background(), art); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
