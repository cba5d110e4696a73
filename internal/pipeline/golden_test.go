package pipeline_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"testing"

	"repro/internal/algos"
	"repro/internal/pipeline"
	"repro/internal/qasm"
	"repro/internal/ucache"
)

var update = flag.Bool("update", false, "regenerate testdata/golden_run.json from the current pipeline")

// The golden file pins pipeline.Run end to end over 3 benchmark circuits ×
// 2 configs × 2 parallelism levels, with one cached run per circuit. The
// staged pipeline must reproduce every case bit-for-bit: choice vectors,
// CNOT counts, EpsilonSum float bits, the exact QASM of each selected
// circuit, degradation counts and cache stats.
//
// The fixture tracks the synthesis objective's exact arithmetic, so it
// must be regenerated (go test ./internal/pipeline -run Golden -update) when
// the objective's evaluation order changes. History: originally generated
// by the pre-refactor monolithic core.Run (commit c5ddef0); regenerated
// after the fused-layer objective rewrite, which reassociates the same
// math into 4x4 segment kernels and so shifts results by last-bit
// rounding (values agree with the unfused path to ~1e-12, but the L-BFGS
// trajectories and therefore the harvested candidates can differ).

type goldenApprox struct {
	Choice     []int  `json:"choice"`
	CNOTs      int    `json:"cnots"`
	EpsSumBits uint64 `json:"eps_sum_bits"`
	CircuitSHA string `json:"circuit_sha"`
}

type goldenCase struct {
	Name          string         `json:"name"`
	Algo          string         `json:"algo"`
	Qubits        int            `json:"qubits"`
	Config        string         `json:"config"`
	Parallelism   int            `json:"parallelism"`
	Cached        bool           `json:"cached"`
	ThresholdBits uint64         `json:"threshold_bits"`
	NumBlocks     int            `json:"num_blocks"`
	Selected      []goldenApprox `json:"selected"`
	Degradations  int            `json:"degradations"`
	CacheHits     uint64         `json:"cache_hits"`
	CacheMisses   uint64         `json:"cache_misses"`
}

func goldenConfig(t *testing.T, name string) pipeline.Config {
	t.Helper()
	switch name {
	case "default":
		return pipeline.Config{MaxSamples: 4, AnnealIterations: 120, Seed: 1}
	case "nondefault":
		return pipeline.Config{
			BlockSize: 2, Epsilon: 0.1, ThresholdCap: 0.4, MaxSamples: 3,
			CXWeight: 0.75, AnnealIterations: 100, SynthBeam: 1,
			SynthKeepPerDepth: 3, Seed: 7,
		}
	}
	t.Fatalf("unknown golden config %q", name)
	return pipeline.Config{}
}

func runGoldenCase(t *testing.T, gc *goldenCase) *pipeline.Result {
	t.Helper()
	c, err := algos.Generate(gc.Algo, gc.Qubits)
	if err != nil {
		t.Fatalf("generate %s-%d: %v", gc.Algo, gc.Qubits, err)
	}
	cfg := goldenConfig(t, gc.Config)
	cfg.Parallelism = gc.Parallelism
	if gc.Cached {
		cfg.SynthCache = ucache.New(256, 0)
	}
	res, err := pipeline.Run(c, cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestGoldenStagedPipelineMatchesSeed(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_run.json")
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	var cases []goldenCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	if len(cases) == 0 {
		t.Fatal("golden file has no cases")
	}

	if *update {
		for i := range cases {
			gc := &cases[i]
			res := runGoldenCase(t, gc)
			gc.ThresholdBits = math.Float64bits(res.Threshold)
			gc.NumBlocks = len(res.Blocks)
			gc.Degradations = len(res.Degradations)
			gc.CacheHits, gc.CacheMisses = 0, 0
			if gc.Cached {
				gc.CacheHits = res.CacheStats.Hits
				gc.CacheMisses = res.CacheStats.Misses
			}
			gc.Selected = gc.Selected[:0]
			for _, a := range res.Selected {
				sum := sha256.Sum256([]byte(qasm.Write(a.Circuit)))
				gc.Selected = append(gc.Selected, goldenApprox{
					Choice:     append([]int(nil), a.Choice...),
					CNOTs:      a.CNOTs,
					EpsSumBits: math.Float64bits(a.EpsilonSum),
					CircuitSHA: hex.EncodeToString(sum[:]),
				})
			}
		}
		out, err := json.MarshalIndent(cases, "", "  ")
		if err != nil {
			t.Fatalf("marshal golden: %v", err)
		}
		if err := os.WriteFile("testdata/golden_run.json", append(out, '\n'), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		t.Logf("regenerated testdata/golden_run.json with %d cases", len(cases))
		return
	}

	for _, gc := range cases {
		gc := gc
		t.Run(gc.Name, func(t *testing.T) {
			t.Parallel()
			res := runGoldenCase(t, &gc)
			if got := math.Float64bits(res.Threshold); got != gc.ThresholdBits {
				t.Errorf("threshold bits = %d, want %d", got, gc.ThresholdBits)
			}
			if len(res.Blocks) != gc.NumBlocks {
				t.Errorf("blocks = %d, want %d", len(res.Blocks), gc.NumBlocks)
			}
			if len(res.Degradations) != gc.Degradations {
				t.Errorf("degradations = %d, want %d", len(res.Degradations), gc.Degradations)
			}
			if gc.Cached {
				if res.CacheStats.Hits != gc.CacheHits || res.CacheStats.Misses != gc.CacheMisses {
					t.Errorf("cache stats = %d hits/%d misses, want %d/%d",
						res.CacheStats.Hits, res.CacheStats.Misses, gc.CacheHits, gc.CacheMisses)
				}
			}
			if len(res.Selected) != len(gc.Selected) {
				t.Fatalf("selected %d approximations, want %d", len(res.Selected), len(gc.Selected))
			}
			for i, a := range res.Selected {
				want := gc.Selected[i]
				if len(a.Choice) != len(want.Choice) {
					t.Fatalf("sample %d: choice length %d, want %d", i, len(a.Choice), len(want.Choice))
				}
				for k := range a.Choice {
					if a.Choice[k] != want.Choice[k] {
						t.Errorf("sample %d: choice[%d] = %d, want %d", i, k, a.Choice[k], want.Choice[k])
					}
				}
				if a.CNOTs != want.CNOTs {
					t.Errorf("sample %d: CNOTs = %d, want %d", i, a.CNOTs, want.CNOTs)
				}
				if got := math.Float64bits(a.EpsilonSum); got != want.EpsSumBits {
					t.Errorf("sample %d: EpsilonSum bits = %d, want %d", i, got, want.EpsSumBits)
				}
				sum := sha256.Sum256([]byte(qasm.Write(a.Circuit)))
				if got := hex.EncodeToString(sum[:]); got != want.CircuitSHA {
					t.Errorf("sample %d: circuit sha = %s, want %s", i, got, want.CircuitSHA)
				}
			}
		})
	}
}
