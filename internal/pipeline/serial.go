package pipeline

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/circuit"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/synth"
)

// The on-disk SynthesisArtifact encoding: JSON whose circuits and
// candidates use their own JSON forms (circuit.Circuit's op lists and
// synth.Candidate, the codec the synthesis cache journal also writes).
// encoding/json emits the shortest representation that round-trips a
// float64 exactly, so parameters and distances reload bit-identically.
// Version 3 stores each block's circuit and its raw synthesis harvest
// only. Everything else is a deterministic function of those and is
// rebuilt, never stored: the block unitaries and the pruned candidate
// lists on load (finishBlock over the harvest filtered at the artifact's
// threshold, or the exact-only set for a block with no harvest), and the
// pair tables in each selection. A loaded artifact therefore Reselects
// bit-identically to the artifact it was saved from. Any other version
// (the QASM-text versions 1 and 2 included) fails to load; questd's
// artifact store treats that as a miss and re-synthesizes.

const synthArtifactVersion = 3

// maxBlockWidth is the widest block a loaded artifact may hold. Loading
// builds a 2ⁿ×2ⁿ unitary per block, so without a bound a few corrupted
// bytes could ask for gigabytes; no configuration synthesizes blocks
// anywhere near this wide.
const maxBlockWidth = 8

type blockJSON struct {
	Qubits  []int           `json:"qubits"`
	Circuit circuit.Circuit `json:"circuit"`
	// Raw is the unpruned harvest; empty for degraded blocks.
	Raw []synth.Candidate `json:"raw,omitempty"`
}

type synthArtifactJSON struct {
	Version      int             `json:"version"`
	Key          string          `json:"key"`
	PartitionKey string          `json:"partition_key"`
	BlockSize    int             `json:"block_size"`
	Epsilon      float64         `json:"epsilon"`
	ThresholdCap float64         `json:"threshold_cap"`
	Seed         int64           `json:"seed"`
	Threshold    float64         `json:"threshold"`
	Original     circuit.Circuit `json:"original"`
	Blocks       []blockJSON     `json:"blocks"`
	Degradations []Degradation   `json:"degradations,omitempty"`
	ElapsedNS    int64           `json:"elapsed_ns"`
	PartElapsed  int64           `json:"partition_elapsed_ns"`
}

// checkCands rejects a block's raw harvest if any candidate is not a
// valid circuit of the block's width.
func checkCands(cands []synth.Candidate, width int) error {
	for i, c := range cands {
		if err := c.Check(width); err != nil {
			return fmt.Errorf("candidate %d: %w", i, err)
		}
	}
	return nil
}

// checkBlock rejects a block that no Save could have written: one whose
// circuit is invalid, whose qubit list does not match its circuit's
// width, is not a set of distinct qubits of the original, or is wider
// than the artifact's BlockSize.
func checkBlock(qubits []int, bc, orig *circuit.Circuit, blockSize int) error {
	if err := bc.Check(); err != nil {
		return err
	}
	if len(qubits) != bc.NumQubits {
		return fmt.Errorf("%d qubits listed for a %d-qubit circuit", len(qubits), bc.NumQubits)
	}
	if bc.NumQubits > blockSize {
		return fmt.Errorf("%d qubits exceed block size %d", bc.NumQubits, blockSize)
	}
	seen := make(map[int]bool, len(qubits))
	for _, q := range qubits {
		if q < 0 || q >= orig.NumQubits || seen[q] {
			return fmt.Errorf("qubit %d is not a distinct qubit of the %d-qubit original", q, orig.NumQubits)
		}
		seen[q] = true
	}
	return nil
}

// Save writes the artifact in its portable JSON encoding, so an expensive
// synthesis pass can be computed once (per suite, per CI shard, per
// machine) and re-selected against many configurations later.
func (art *SynthesisArtifact) Save(w io.Writer) error {
	doc := synthArtifactJSON{
		Version:      synthArtifactVersion,
		Key:          art.Key,
		PartitionKey: art.Partition.Key,
		BlockSize:    art.Cfg.BlockSize,
		Epsilon:      art.Cfg.Epsilon,
		ThresholdCap: art.Cfg.ThresholdCap,
		Seed:         art.Cfg.Seed,
		Threshold:    art.Partition.Threshold,
		Original:     *art.Partition.Original,
		Degradations: art.Degradations,
		ElapsedNS:    art.Elapsed.Nanoseconds(),
		PartElapsed:  art.Partition.Elapsed.Nanoseconds(),
	}
	for _, ba := range art.Blocks {
		doc.Blocks = append(doc.Blocks, blockJSON{
			Qubits:  ba.Block.Qubits,
			Circuit: *ba.Block.Circuit,
			Raw:     ba.all,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&doc)
}

// LoadSynthesis reads an artifact saved with Save (version 3 only). The
// circuits are checked before anything is built from them; the unitaries
// and pruned candidate lists are then rebuilt deterministically, so the
// result Reselects bit-identically to the saved artifact.
func LoadSynthesis(r io.Reader) (*SynthesisArtifact, error) {
	var doc synthArtifactJSON
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("pipeline: load artifact: %w", err)
	}
	if doc.Version != synthArtifactVersion {
		return nil, fmt.Errorf("pipeline: load artifact: unsupported version %d", doc.Version)
	}
	orig := &doc.Original
	if err := orig.Check(); err != nil {
		return nil, fmt.Errorf("pipeline: load artifact: original: %w", err)
	}
	cfg := Config{
		BlockSize:    doc.BlockSize,
		Epsilon:      doc.Epsilon,
		ThresholdCap: doc.ThresholdCap,
		Seed:         doc.Seed,
	}
	cfg.defaults()
	if cfg.BlockSize < 1 || cfg.BlockSize > maxBlockWidth {
		return nil, fmt.Errorf("pipeline: load artifact: block size %d outside [1, %d]", cfg.BlockSize, maxBlockWidth)
	}
	if len(doc.Blocks) == 0 {
		return nil, fmt.Errorf("pipeline: load artifact: no blocks")
	}
	art := &SynthesisArtifact{
		Partition: &PartitionArtifact{
			Original:  orig,
			Threshold: doc.Threshold,
			Key:       doc.PartitionKey,
			Elapsed:   time.Duration(doc.PartElapsed),
		},
		Degradations: doc.Degradations,
		Cfg:          cfg,
		Key:          doc.Key,
		Elapsed:      time.Duration(doc.ElapsedNS),
	}
	blocks := make([]partition.Block, len(doc.Blocks))
	for i := range doc.Blocks {
		bj := &doc.Blocks[i]
		if err := checkBlock(bj.Qubits, &bj.Circuit, orig, cfg.BlockSize); err != nil {
			return nil, fmt.Errorf("pipeline: load artifact: block %d: %w", i, err)
		}
		if err := checkCands(bj.Raw, bj.Circuit.NumQubits); err != nil {
			return nil, fmt.Errorf("pipeline: load artifact: block %d raw: %w", i, err)
		}
		blocks[i] = partition.Block{Qubits: bj.Qubits, Circuit: &bj.Circuit}
	}
	for i, blk := range blocks {
		raw := doc.Blocks[i].Raw
		if len(raw) == 0 {
			art.Blocks = append(art.Blocks, exactOnlyBlock(blk))
			continue
		}
		ba := finishBlock(blk, sim.Unitary(blk.Circuit), filterByThreshold(raw, doc.Threshold))
		ba.all = raw
		art.Blocks = append(art.Blocks, ba)
	}
	art.Partition.Blocks = blocks
	return art, nil
}
