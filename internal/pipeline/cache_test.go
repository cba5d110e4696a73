package pipeline

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/algos"
	"repro/internal/circuit"
	"repro/internal/partition"
	"repro/internal/ucache"
)

// TFIM Trotter circuits repeat the same layer structure, so the
// partition yields duplicate block unitaries — the case the synthesis
// cache exists for.

func TestRunWithCacheMatchesWithout(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    *circuit.Circuit
	}{
		{"tfim", algos.TFIM(4, 3, 0.1, 1, 1)},
		{"rotation-only-block", rotationOnlyBlockCircuit(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cold, err := RunCtx(context.Background(), tc.c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.SynthCache = ucache.New(64, 0)
			cached, err := RunCtx(context.Background(), tc.c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(cached.Selected) != len(cold.Selected) {
				t.Fatalf("cache changed sample count: %d vs %d", len(cached.Selected), len(cold.Selected))
			}
			for i := range cold.Selected {
				a, b := cold.Selected[i], cached.Selected[i]
				if a.CNOTs != b.CNOTs || math.Float64bits(a.EpsilonSum) != math.Float64bits(b.EpsilonSum) {
					t.Errorf("sample %d: cached (%d, %v) != uncached (%d, %v)",
						i, b.CNOTs, b.EpsilonSum, a.CNOTs, a.EpsilonSum)
				}
				if len(a.Choice) != len(b.Choice) {
					t.Fatalf("sample %d: cached has %d blocks, uncached %d", i, len(b.Choice), len(a.Choice))
				}
				for k := range a.Choice {
					if a.Choice[k] != b.Choice[k] {
						t.Fatalf("sample %d block %d: cached choice %d != uncached %d",
							i, k, b.Choice[k], a.Choice[k])
					}
				}
			}
			if cached.CacheStats.Misses == 0 {
				t.Error("cached run recorded no misses")
			}
			if cold.CacheStats != (ucache.Stats{}) {
				t.Errorf("uncached run reported cache stats %+v", cold.CacheStats)
			}
		})
	}
}

// rotationOnlyBlockCircuit returns a circuit whose opening layer of
// single-qubit rotations partitions into a 3-qubit block with no CNOTs,
// which the pipeline synthesizes rotation-only (MaxCNOTs -1). Through
// the cache that request must run the same search, not the universal
// CNOT budget.
func rotationOnlyBlockCircuit(t *testing.T) *circuit.Circuit {
	t.Helper()
	c := circuit.New(4)
	for q := 0; q < 4; q++ {
		c.RY(q, 0.3+0.25*float64(q))
		c.RZ(q, 0.9-0.2*float64(q))
	}
	for q := 0; q < 3; q++ {
		c.CX(q, q+1)
		c.RZ(q+1, 0.15*float64(q+1))
	}
	blocks, err := partition.Scan(c, testConfig().BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if len(b.Qubits) == 3 && b.CNOTCount() == 0 {
			return c
		}
	}
	t.Fatal("test circuit has no 3-qubit rotation-only block")
	return nil
}

func TestRunCacheHitsOnRepeatedBlocksAndRuns(t *testing.T) {
	// Three Trotter steps of the same layer: duplicate blocks must hit
	// within a single run (content-derived seeds make their searches
	// identical), and a second identical run must be served almost
	// entirely from cache.
	c := algos.TFIM(4, 3, 0.1, 1, 1)
	cfg := testConfig()
	cfg.SynthCache = ucache.New(64, 0)
	first, err := Run(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheStats.Hits == 0 {
		t.Errorf("no intra-run hits on a 3-step Trotter circuit: %+v", first.CacheStats)
	}
	second, err := Run(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheStats.Misses != 0 {
		t.Errorf("second identical run missed %d times", second.CacheStats.Misses)
	}
	if second.CacheStats.Hits == 0 {
		t.Error("second identical run recorded no hits")
	}
}

func TestRunWithCacheDeterministicAcrossParallelism(t *testing.T) {
	// The PR-1 guarantee must survive caching: hits are exact (same
	// unitary, same canonical options), so whether a block is served by
	// the cache or recomputed, the result is identical — regardless of
	// which worker populated the entry first.
	c := algos.TFIM(4, 3, 0.1, 1, 1)
	cfg := testConfig()
	cfg.SynthCache = ucache.New(64, 0)
	cfg.Parallelism = 1
	r1, err := Run(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, runtime.NumCPU()} {
		wcfg := cfg
		wcfg.SynthCache = ucache.New(64, 0) // fresh cache per worker count
		wcfg.Parallelism = workers
		r2, err := Run(c, wcfg)
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
				t.Fatalf("parallelism %d sample %d: (%d, %g) != (%d, %g)",
					workers, i, b.CNOTs, b.EpsilonSum, a.CNOTs, a.EpsilonSum)
			}
			for k := range a.Choice {
				if a.Choice[k] != b.Choice[k] {
					t.Fatalf("parallelism %d sample %d block %d: choice %d != %d",
						workers, i, k, b.Choice[k], a.Choice[k])
				}
			}
		}
	}
}
