package experiments

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/algos"
	"repro/internal/qasm"
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

func corpusOpts(dir, mode string) CorpusOptions {
	return CorpusOptions{
		Dir:              dir,
		Mode:             mode,
		Workers:          4,
		Jobs:             3,
		MaxSamples:       4,
		AnnealIterations: 100,
		CacheSize:        256,
	}
}

// TestCorpusModesProduceIdenticalResults is the corpus-level determinism
// claim: the batch driver (concurrent circuits on one shared scheduler
// and cache) must compile every circuit to exactly the same CNOT counts,
// block structure, sample count, and degradations as the staged-serial
// baseline — only wall time may differ.
func TestCorpusModesProduceIdenticalResults(t *testing.T) {
	dir := miniCorpus(t)
	serial, err := RunCorpus(context.Background(), corpusOpts(dir, ModeStagedSerial))
	if err != nil {
		t.Fatal(err)
	}
	overlap, err := RunCorpus(context.Background(), corpusOpts(dir, ModeOverlapped))
	if err != nil {
		t.Fatal(err)
	}
	sc, oc := serial.Passes[0].Circuits, overlap.Passes[0].Circuits
	if len(sc) != len(oc) {
		t.Fatalf("circuit counts differ: %d vs %d", len(sc), len(oc))
	}
	for i := range sc {
		a, b := sc[i], oc[i]
		if a.File != b.File || a.Blocks != b.Blocks || a.CNOTs != b.CNOTs ||
			a.ApproxCNOTs != b.ApproxCNOTs || a.Samples != b.Samples ||
			a.Degradations != b.Degradations {
			t.Errorf("%s: staged-serial %+v != overlapped %+v", a.File, a, b)
		}
	}
}

// TestCorpusSecondPassHitsCache: a second pass over the same corpus with
// the shared cache must be served (at least partly) from it.
func TestCorpusSecondPassHitsCache(t *testing.T) {
	dir := miniCorpus(t)
	opts := corpusOpts(dir, ModeOverlapped)
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

// TestCorpusOutputLines: the greppable corpus lines benchjson and
// corpus-smoke consume must be present and well-formed.
func TestCorpusOutputLines(t *testing.T) {
	dir := miniCorpus(t)
	var buf strings.Builder
	opts := corpusOpts(dir, ModeOverlapped)
	opts.Out = &buf
	if _, err := RunCorpus(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"corpus tfim_5 pass=1 ",
		"corpus qft_4 pass=1 ",
		"corpus vqe_5 pass=1 ",
		"corpus-total mode=overlap pass=1 ",
		"degradations=0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("corpus output missing %q:\n%s", want, out)
		}
	}
}

// TestCorpusRejectsUnknownMode and empty directories.
func TestCorpusBadInputs(t *testing.T) {
	dir := miniCorpus(t)
	opts := corpusOpts(dir, "warp")
	if _, err := RunCorpus(context.Background(), opts); err == nil {
		t.Error("unknown mode accepted")
	}
	empty := t.TempDir()
	if _, err := RunCorpus(context.Background(), corpusOpts(empty, ModeOverlapped)); err == nil {
		t.Error("empty corpus accepted")
	}
}
