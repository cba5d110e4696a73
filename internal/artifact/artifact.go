// Package artifact reads and writes the on-disk layout of the paper's
// published artifact (Zenodo 5747894): per-block circuit and unitary files
// after partitioning, per-block approximation sets after synthesis, and
// the selected full-circuit solutions after dual annealing. The paper's
// artifact uses .npy for matrices; this reproduction uses JSON, which the
// Go standard library can round-trip losslessly.
//
// Layout under a root directory:
//
//	post_partitioning_files/qasm_block_<id>.qasm
//	post_partitioning_files/qbit_block_<id>.json
//	post_partitioning_files/unit_block_<id>.json
//	post_synthesis_files/block_<id>_candidates.json   (+ QASM per candidate)
//	dual_annealing_solutions/solutions.json
package artifact

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/circuit"
	"repro/internal/linalg"
	"repro/internal/pipeline"
	"repro/internal/qasm"
	"repro/internal/sim"
	"repro/internal/synth"
)

// matrixJSON serializes a complex matrix as separate real/imag arrays.
type matrixJSON struct {
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Re   []float64 `json:"re"`
	Im   []float64 `json:"im"`
}

func encodeMatrix(m *linalg.Matrix) matrixJSON {
	out := matrixJSON{Rows: m.Rows, Cols: m.Cols,
		Re: make([]float64, len(m.Data)), Im: make([]float64, len(m.Data))}
	for i, v := range m.Data {
		out.Re[i] = real(v)
		out.Im[i] = imag(v)
	}
	return out
}

func decodeMatrix(j matrixJSON) (*linalg.Matrix, error) {
	if len(j.Re) != j.Rows*j.Cols || len(j.Im) != j.Rows*j.Cols {
		return nil, fmt.Errorf("artifact: matrix data length mismatch")
	}
	m := linalg.New(j.Rows, j.Cols)
	for i := range m.Data {
		m.Data[i] = complex(j.Re[i], j.Im[i])
	}
	return m, nil
}

// candidateJSON is one synthesis candidate on disk.
type candidateJSON struct {
	QASM     string  `json:"qasm"`
	Distance float64 `json:"distance"`
	CNOTs    int     `json:"cnots"`
}

// solutionJSON is one selected full-circuit approximation on disk.
type solutionJSON struct {
	Choice     []int   `json:"choice"`
	CNOTs      int     `json:"cnots"`
	EpsilonSum float64 `json:"epsilon_sum"`
	QASM       string  `json:"qasm"`
}

// solutionsFile is the dual_annealing_solutions payload.
type solutionsFile struct {
	NumQubits int            `json:"num_qubits"`
	Threshold float64        `json:"threshold"`
	Original  string         `json:"original_qasm"`
	Solutions []solutionJSON `json:"solutions"`
}

// Write lays a pipeline result out under root in the artifact structure.
func Write(root string, res *pipeline.Result) error {
	partDir := filepath.Join(root, "post_partitioning_files")
	synthDir := filepath.Join(root, "post_synthesis_files")
	solDir := filepath.Join(root, "dual_annealing_solutions")
	for _, d := range []string{partDir, synthDir, solDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return fmt.Errorf("artifact: %w", err)
		}
	}

	for id, ba := range res.Blocks {
		if err := os.WriteFile(
			filepath.Join(partDir, fmt.Sprintf("qasm_block_%d.qasm", id)),
			[]byte(qasm.Write(ba.Block.Circuit)), 0o644); err != nil {
			return fmt.Errorf("artifact: %w", err)
		}
		if err := writeJSON(filepath.Join(partDir, fmt.Sprintf("qbit_block_%d.json", id)), ba.Block.Qubits); err != nil {
			return err
		}
		if err := writeJSON(filepath.Join(partDir, fmt.Sprintf("unit_block_%d.json", id)), encodeMatrix(ba.Unitary)); err != nil {
			return err
		}
		cands := make([]candidateJSON, len(ba.Candidates))
		for i, cand := range ba.Candidates {
			cands[i] = candidateJSON{
				QASM:     qasm.Write(cand.Circuit),
				Distance: cand.Distance,
				CNOTs:    cand.CNOTs,
			}
		}
		if err := writeJSON(filepath.Join(synthDir, fmt.Sprintf("block_%d_candidates.json", id)), cands); err != nil {
			return err
		}
	}

	sols := solutionsFile{
		NumQubits: res.Original.NumQubits,
		Threshold: res.Threshold,
		Original:  qasm.Write(res.Original),
	}
	for _, a := range res.Selected {
		sols.Solutions = append(sols.Solutions, solutionJSON{
			Choice:     a.Choice,
			CNOTs:      a.CNOTs,
			EpsilonSum: a.EpsilonSum,
			QASM:       qasm.Write(a.Circuit),
		})
	}
	return writeJSON(filepath.Join(solDir, "solutions.json"), sols)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("artifact: marshal %s: %w", path, err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	return nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("artifact: parse %s: %w", path, err)
	}
	return nil
}

// Solutions is the loaded dual-annealing output.
type Solutions struct {
	NumQubits int
	Threshold float64
	Original  *circuit.Circuit
	Selected  []pipeline.Approximation
}

// ReadSolutions loads dual_annealing_solutions/solutions.json from root.
func ReadSolutions(root string) (*Solutions, error) {
	var sf solutionsFile
	if err := readJSON(filepath.Join(root, "dual_annealing_solutions", "solutions.json"), &sf); err != nil {
		return nil, err
	}
	orig, err := qasm.Parse(sf.Original)
	if err != nil {
		return nil, fmt.Errorf("artifact: original circuit: %w", err)
	}
	out := &Solutions{NumQubits: sf.NumQubits, Threshold: sf.Threshold, Original: orig}
	for i, s := range sf.Solutions {
		c, err := qasm.Parse(s.QASM)
		if err != nil {
			return nil, fmt.Errorf("artifact: solution %d: %w", i, err)
		}
		out.Selected = append(out.Selected, pipeline.Approximation{
			Choice:     s.Choice,
			Circuit:    c,
			CNOTs:      s.CNOTs,
			EpsilonSum: s.EpsilonSum,
		})
	}
	return out, nil
}

// Block is a loaded partition block.
type Block struct {
	ID      int
	Qubits  []int
	Circuit *circuit.Circuit
	Unitary *linalg.Matrix
}

// ReadBlocks loads the post_partitioning_files directory.
func ReadBlocks(root string) ([]Block, error) {
	dir := filepath.Join(root, "post_partitioning_files")
	var out []Block
	for id := 0; ; id++ {
		qasmPath := filepath.Join(dir, fmt.Sprintf("qasm_block_%d.qasm", id))
		src, err := os.ReadFile(qasmPath)
		if os.IsNotExist(err) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("artifact: %w", err)
		}
		c, err := qasm.Parse(string(src))
		if err != nil {
			return nil, fmt.Errorf("artifact: block %d circuit: %w", id, err)
		}
		var qubits []int
		if err := readJSON(filepath.Join(dir, fmt.Sprintf("qbit_block_%d.json", id)), &qubits); err != nil {
			return nil, err
		}
		var mj matrixJSON
		if err := readJSON(filepath.Join(dir, fmt.Sprintf("unit_block_%d.json", id)), &mj); err != nil {
			return nil, err
		}
		u, err := decodeMatrix(mj)
		if err != nil {
			return nil, err
		}
		out = append(out, Block{ID: id, Qubits: qubits, Circuit: c, Unitary: u})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("artifact: no blocks found under %s", dir)
	}
	return out, nil
}

// ReadCandidates loads one block's synthesis candidates.
func ReadCandidates(root string, blockID int) ([]synth.Candidate, error) {
	var cands []candidateJSON
	path := filepath.Join(root, "post_synthesis_files", fmt.Sprintf("block_%d_candidates.json", blockID))
	if err := readJSON(path, &cands); err != nil {
		return nil, err
	}
	out := make([]synth.Candidate, len(cands))
	for i, cj := range cands {
		c, err := qasm.Parse(cj.QASM)
		if err != nil {
			return nil, fmt.Errorf("artifact: candidate %d: %w", i, err)
		}
		out[i] = synth.Candidate{Circuit: c, Distance: cj.Distance, CNOTs: cj.CNOTs}
	}
	return out, nil
}

// Verify re-checks a stored artifact: every block's QASM matches its
// stored unitary, and every solution's Σε bound holds against the original
// circuit (for circuits small enough to build the unitary).
func Verify(root string) error {
	blocks, err := ReadBlocks(root)
	if err != nil {
		return err
	}
	for _, b := range blocks {
		// The stored unitary was computed from the same QASM, so the
		// comparison is exact elementwise (phase included); elementwise
		// also catches non-unitary corruption that the clamped HS
		// distance would mask.
		u := sim.Unitary(b.Circuit)
		if d := linalg.MaxAbsDiff(u, b.Unitary); d > 1e-9 {
			return fmt.Errorf("artifact: block %d circuit/unitary mismatch (max diff %g)", b.ID, d)
		}
	}
	sols, err := ReadSolutions(root)
	if err != nil {
		return err
	}
	if sols.NumQubits <= 10 {
		orig := sim.Unitary(sols.Original)
		for i, a := range sols.Selected {
			actual := linalg.HSDistance(orig, sim.Unitary(a.Circuit))
			if actual > a.EpsilonSum+1e-6 {
				return fmt.Errorf("artifact: solution %d violates bound (%g > %g)", i, actual, a.EpsilonSum)
			}
		}
	}
	return nil
}
