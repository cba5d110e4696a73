package experiments

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/algos"
	"repro/internal/backend"
	"repro/internal/pipeline"
	"repro/internal/qasm"
	"repro/internal/ucache"
)

// miniCorpus writes a small 3-circuit corpus so the driver tests stay
// fast; the committed examples/circuits/corpus is exercised end-to-end by
// `make corpus-smoke`.
func miniCorpus(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for name, gen := range map[string]string{
		"tfim_5.qasm": "tfim",
		"qft_4.qasm":  "qft",
		"vqe_5.qasm":  "vqe",
	} {
		n := 5
		if gen == "qft" {
			n = 4
		}
		c, err := algos.Generate(gen, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(qasm.Write(c)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func corpusOpts(dir string) CorpusOptions {
	return CorpusOptions{
		Dir:  dir,
		Jobs: 3,
		Pipeline: pipeline.Config{
			MaxSamples:       4,
			AnnealIterations: 100,
			Parallelism:      4,
			SynthCache:       ucache.New(256, 0),
		},
	}
}

// TestCorpusBatchMatchesSoloCompilation is the corpus-level determinism
// claim: the batch driver (three circuits at a time on one shared
// scheduler pool and one shared cache) must compile every circuit exactly
// as pipeline.RunCtx compiles it alone under the same Config, with a cold
// private cache and no scheduler — same block structure, CNOT counts,
// sample count, degradations and selected approximations. Only wall time
// may differ. The second input checks that the batch honours selection
// settings beyond the defaults (a noise-aware objective, a CX weight).
func TestCorpusBatchMatchesSoloCompilation(t *testing.T) {
	dir := miniCorpus(t)
	hybrid, err := backend.Objective("hybrid:0.3:manila")
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.qasm"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	for _, input := range []struct {
		name string
		edit func(*pipeline.Config)
	}{
		{"defaults", func(*pipeline.Config) {}},
		{"hybrid objective, cx weight 0.2", func(cfg *pipeline.Config) {
			cfg.Objective = hybrid
			cfg.CXWeight, cfg.CXWeightSet = 0.2, true
		}},
	} {
		opts := corpusOpts(dir)
		input.edit(&opts.Pipeline)
		batch, err := RunCorpus(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		got := batch.Passes[0].Circuits
		if len(got) != len(files) {
			t.Fatalf("%s: batch compiled %d circuits, corpus has %d", input.name, len(got), len(files))
		}
		for i, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			c, err := qasm.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			cfg := opts.Pipeline
			cfg.SynthCache = ucache.New(256, 0)
			solo, err := pipeline.RunCtx(context.Background(), c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			b := got[i]
			if want := strings.TrimSuffix(filepath.Base(f), ".qasm"); b.File != want {
				t.Fatalf("%s: circuit %d is %s, want %s", input.name, i, b.File, want)
			}
			if b.Blocks != len(solo.Blocks) || b.CNOTs != c.CNOTCount() ||
				b.ApproxCNOTs != solo.BestCNOTs() || b.Samples != len(solo.Selected) ||
				b.Degradations != len(solo.Degradations) {
				t.Errorf("%s: %s: batch blocks=%d cnots=%d approx=%d samples=%d deg=%d, solo blocks=%d cnots=%d approx=%d samples=%d deg=%d",
					input.name, b.File, b.Blocks, b.CNOTs, b.ApproxCNOTs, b.Samples, b.Degradations,
					len(solo.Blocks), c.CNOTCount(), solo.BestCNOTs(), len(solo.Selected), len(solo.Degradations))
				continue
			}
			for k, a := range solo.Selected {
				if qasm.Write(b.selected[k].Circuit) != qasm.Write(a.Circuit) {
					t.Errorf("%s: %s: selected member %d differs between batch and solo compilation", input.name, b.File, k)
				}
			}
		}
	}
}

// TestCorpusSecondPassHitsCache: a second pass over the same corpus with
// the shared cache must be served (at least partly) from it.
func TestCorpusSecondPassHitsCache(t *testing.T) {
	dir := miniCorpus(t)
	opts := corpusOpts(dir)
	opts.Passes = 2
	rep, err := RunCorpus(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Passes) != 2 {
		t.Fatalf("passes = %d, want 2", len(rep.Passes))
	}
	second := rep.Passes[1].CacheStats
	if second.Hits == 0 {
		t.Fatalf("second pass had no cache hits: %+v", second)
	}
	if second.Misses != 0 {
		t.Errorf("second pass missed the cache %d times", second.Misses)
	}
	if rep.Degradations() != 0 {
		t.Errorf("corpus degraded %d blocks", rep.Degradations())
	}
}

// TestCorpusOutputLines: the greppable corpus lines corpus-smoke
// consumes must be present and well-formed.
func TestCorpusOutputLines(t *testing.T) {
	dir := miniCorpus(t)
	var buf strings.Builder
	opts := corpusOpts(dir)
	opts.Out = &buf
	if _, err := RunCorpus(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"corpus tfim_5 pass=1 ",
		"corpus qft_4 pass=1 ",
		"corpus vqe_5 pass=1 ",
		"corpus-total pass=1 ",
		"degradations=0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("corpus output missing %q:\n%s", want, out)
		}
	}
}

// TestCorpusBadInputs: an empty directory is an error.
func TestCorpusBadInputs(t *testing.T) {
	empty := t.TempDir()
	if _, err := RunCorpus(context.Background(), corpusOpts(empty)); err == nil {
		t.Error("empty corpus accepted")
	}
}
