package artifact

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/algos"
	"repro/internal/linalg"
	"repro/internal/pipeline"
)

func runPipeline(t *testing.T) *pipeline.Result {
	t.Helper()
	c := algos.TFIM(4, 2, 0.1, 1, 1)
	res, err := pipeline.Run(c, pipeline.Config{
		MaxSamples: 3, AnnealIterations: 120, SynthKeepPerDepth: 3, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWriteReadRoundTrip(t *testing.T) {
	res := runPipeline(t)
	root := t.TempDir()
	if err := Write(root, res); err != nil {
		t.Fatal(err)
	}

	// Directory structure matches the paper's artifact.
	for _, d := range []string{"post_partitioning_files", "post_synthesis_files", "dual_annealing_solutions"} {
		if _, err := os.Stat(filepath.Join(root, d)); err != nil {
			t.Fatalf("missing artifact directory %s", d)
		}
	}

	blocks, err := ReadBlocks(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != len(res.Blocks) {
		t.Fatalf("round trip lost blocks: %d vs %d", len(blocks), len(res.Blocks))
	}
	for i, b := range blocks {
		want := res.Blocks[i]
		if !linalg.EqualApprox(b.Unitary, want.Unitary, 1e-12) {
			t.Errorf("block %d unitary changed in round trip", i)
		}
		if len(b.Qubits) != len(want.Block.Qubits) {
			t.Errorf("block %d qubits changed", i)
		}
	}

	cands, err := ReadCandidates(root, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != len(res.Blocks[0].Candidates) {
		t.Errorf("candidates lost: %d vs %d", len(cands), len(res.Blocks[0].Candidates))
	}
	for i, cand := range cands {
		want := res.Blocks[0].Candidates[i]
		if cand.CNOTs != want.CNOTs || cand.Distance != want.Distance {
			t.Errorf("candidate %d metadata changed", i)
		}
	}

	sols, err := ReadSolutions(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols.Selected) != len(res.Selected) {
		t.Fatalf("solutions lost: %d vs %d", len(sols.Selected), len(res.Selected))
	}
	for i, s := range sols.Selected {
		if s.CNOTs != res.Selected[i].CNOTs {
			t.Errorf("solution %d CNOTs changed", i)
		}
	}
}

func TestVerifyAcceptsValidArtifact(t *testing.T) {
	res := runPipeline(t)
	root := t.TempDir()
	if err := Write(root, res); err != nil {
		t.Fatal(err)
	}
	if err := Verify(root); err != nil {
		t.Errorf("Verify rejected a valid artifact: %v", err)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	res := runPipeline(t)
	root := t.TempDir()
	if err := Write(root, res); err != nil {
		t.Fatal(err)
	}
	// Corrupt block 0's unitary.
	path := filepath.Join(root, "post_partitioning_files", "unit_block_0.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := []byte(string(data))
	// Flip the first numeric digit we find after "re".
	for i := 0; i < len(corrupted)-1; i++ {
		if corrupted[i] == '0' && corrupted[i+1] == '.' {
			corrupted[i] = '9'
			break
		}
	}
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Verify(root); err == nil {
		t.Error("Verify accepted a corrupted artifact")
	}
}

func TestReadMissingArtifact(t *testing.T) {
	if _, err := ReadBlocks(t.TempDir()); err == nil {
		t.Error("ReadBlocks succeeded on empty directory")
	}
	if _, err := ReadSolutions(t.TempDir()); err == nil {
		t.Error("ReadSolutions succeeded on empty directory")
	}
}
