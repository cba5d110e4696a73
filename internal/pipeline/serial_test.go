package pipeline

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/algos"
	"repro/internal/budget"
	"repro/internal/faultinject"
	"repro/internal/qasm"
)

// v1ArtifactPath is an artifact written in the version-1 encoding (which
// also stored every block's pruned candidate list): tfim on 3 qubits,
// v1ArtifactConfig at ε = 0.1, with block 1 degraded by fault injection.
var v1ArtifactPath = filepath.Join("testdata", "artifact_v1.json")

func v1ArtifactConfig(eps float64) Config {
	return Config{MaxSamples: 4, AnnealIterations: 100, Seed: 3, Epsilon: eps, BlockSize: 2}
}

// v1SelectionDigests are selectionDigest of the version-1 loader's
// Reselect of the testdata artifact, at its own ε and a tighter one.
var v1SelectionDigests = map[float64]string{
	0.1:  "5ba801466d2bf93c8bb5f30d31943358f3c70fef0d9cdc09cb2b4c655b491a42",
	0.01: "da4af0ea32ab8397be048aef39f1908aba6c33415a229f7e9d6f15a9766cded9",
}

// selectionDigest hashes every selected approximation's CNOT count,
// Σε bits and QASM.
func selectionDigest(res *Result) string {
	h := sha256.New()
	for _, a := range res.Selected {
		fmt.Fprintf(h, "%d|%x|%s\n", a.CNOTs, math.Float64bits(a.EpsilonSum), qasm.Write(a.Circuit))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func loadFile(t testing.TB, path string) *SynthesisArtifact {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	art, err := LoadSynthesis(f)
	if err != nil {
		t.Fatalf("load %s: %v", path, err)
	}
	return art
}

func roundTrip(t testing.TB, art *SynthesisArtifact) *SynthesisArtifact {
	t.Helper()
	var buf bytes.Buffer
	if err := art.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	loaded, err := LoadSynthesis(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return loaded
}

// A version-1 artifact, degraded block included, loads and Reselects
// bit-identically to the version-1 loader, to the in-memory artifact it
// was saved from, and to itself re-saved as version 2.
func TestLoadVersion1ArtifactReselectsBitIdentically(t *testing.T) {
	v1 := loadFile(t, v1ArtifactPath)
	if len(v1.Degradations) != 1 || v1.Blocks[1].all != nil || len(v1.Blocks[1].Candidates) != 1 {
		t.Fatalf("testdata no longer holds one degraded block: %+v", v1.Degradations)
	}
	c, err := algos.Generate("tfim", 3)
	if err != nil {
		t.Fatal(err)
	}
	restore := faultinject.Set("core.block.1", faultinject.FailAlways(budget.ErrNoConvergence))
	mem, err := Synthesize(context.Background(), c, v1ArtifactConfig(0.1))
	restore()
	if err != nil {
		t.Fatal(err)
	}
	v2 := roundTrip(t, v1)
	for _, eps := range []float64{0.1, 0.01} {
		cfg := v1ArtifactConfig(eps)
		want, err := Reselect(context.Background(), mem, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for name, art := range map[string]*SynthesisArtifact{"v1": v1, "v2": v2} {
			got, err := Reselect(context.Background(), art, cfg)
			if err != nil {
				t.Fatalf("%s eps=%v: %v", name, eps, err)
			}
			sameSelection(t, fmt.Sprintf("%s eps=%v", name, eps), want, got)
			if d := selectionDigest(got); d != v1SelectionDigests[eps] {
				t.Errorf("%s eps=%v: selection digest %s, want %s", name, eps, d, v1SelectionDigests[eps])
			}
		}
	}
	// The loader rebuilds exactly the pruned lists version 1 stored.
	var doc struct {
		Blocks []struct {
			Candidates []candJSON `json:"candidates"`
		} `json:"blocks"`
	}
	raw, err := os.ReadFile(v1ArtifactPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for i, bj := range doc.Blocks {
		if got := encodeCands(v1.Blocks[i].Candidates); fmt.Sprint(got) != fmt.Sprint(bj.Candidates) {
			t.Errorf("block %d: rebuilt candidates differ from the stored list", i)
		}
	}
}

func TestSaveWritesNoPrunedList(t *testing.T) {
	var buf bytes.Buffer
	if err := loadFile(t, v1ArtifactPath).Save(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Version int                          `json:"version"`
		Blocks  []map[string]json.RawMessage `json:"blocks"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Version != synthArtifactVersion || synthArtifactVersion != 2 {
		t.Errorf("saved version %d, encoding version %d, want 2", doc.Version, synthArtifactVersion)
	}
	for i, b := range doc.Blocks {
		if _, ok := b["candidates"]; ok {
			t.Errorf("block %d still carries a candidates key", i)
		}
	}
}

// corruptArtifact returns the testdata artifact with edit applied to its
// decoded JSON document.
func corruptArtifact(t *testing.T, edit func(doc map[string]any)) []byte {
	t.Helper()
	raw, err := os.ReadFile(v1ArtifactPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	edit(doc)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// wideQASM is a width-qubit program with one gate.
func wideQASM(width int) string {
	return fmt.Sprintf("OPENQASM 2.0;\nqreg q[%d];\nh q[0];\n", width)
}

// Artifacts whose blocks no Save could have written are rejected before
// any unitary is built from them; the store treats that as a miss.
func TestLoadSynthesisRejectsInconsistentBlocks(t *testing.T) {
	block := func(doc map[string]any, i int) map[string]any {
		return doc["blocks"].([]any)[i].(map[string]any)
	}
	cases := map[string]func(doc map[string]any){
		"qubit list longer than circuit": func(doc map[string]any) {
			block(doc, 0)["qubits"] = []int{0, 1, 2}
		},
		"qubit list shorter than circuit": func(doc map[string]any) {
			block(doc, 0)["qubits"] = []int{0}
		},
		"block wider than block size": func(doc map[string]any) {
			block(doc, 0)["qasm"] = wideQASM(20)
			block(doc, 0)["qubits"] = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
		},
		"block size beyond any loadable block": func(doc map[string]any) {
			doc["block_size"] = 40
			doc["original"] = wideQASM(40)
			qs := make([]int, 40)
			for i := range qs {
				qs[i] = i
			}
			block(doc, 0)["qasm"] = wideQASM(40)
			block(doc, 0)["qubits"] = qs
			delete(block(doc, 0), "raw")
		},
		"raw candidate narrower than block": func(doc map[string]any) {
			raw := block(doc, 0)["raw"].([]any)
			raw[0].(map[string]any)["qasm"] = wideQASM(1)
		},
		"raw candidate wider than block": func(doc map[string]any) {
			raw := block(doc, 0)["raw"].([]any)
			raw[0].(map[string]any)["qasm"] = wideQASM(3)
		},
		"qubit outside the original": func(doc map[string]any) {
			block(doc, 0)["qubits"] = []int{0, 3}
		},
		"repeated qubit": func(doc map[string]any) {
			block(doc, 0)["qubits"] = []int{1, 1}
		},
		"no blocks": func(doc map[string]any) {
			doc["blocks"] = []any{}
		},
	}
	for name, edit := range cases {
		if _, err := LoadSynthesis(bytes.NewReader(corruptArtifact(t, edit))); err == nil {
			t.Errorf("%s: artifact accepted", name)
		}
	}
}

// FuzzLoadSynthesis feeds arbitrary bytes to the loader: it never
// panics, and every artifact it accepts Reselects without error.
func FuzzLoadSynthesis(f *testing.F) {
	v1, err := os.ReadFile(v1ArtifactPath)
	if err != nil {
		f.Fatal(err)
	}
	art, err := LoadSynthesis(bytes.NewReader(v1))
	if err != nil {
		f.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := art.Save(&v2); err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	f.Add(v2.Bytes())
	f.Add([]byte(strings.Replace(v2.String(), `"block_size":2`, `"block_size":1`, 1)))
	f.Add([]byte(`{"version":2,"block_size":2,"original":"qreg q[2];\ncx q[0],q[1];\n","blocks":[{"qubits":[1,0],"qasm":"qreg q[2];\ncx q[0],q[1];\n"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		art, err := LoadSynthesis(bytes.NewReader(data))
		if err != nil {
			return
		}
		cfg := Config{
			BlockSize:        art.Cfg.BlockSize,
			Epsilon:          art.Cfg.Epsilon,
			ThresholdCap:     art.Cfg.ThresholdCap,
			Seed:             art.Cfg.Seed,
			MaxSamples:       2,
			AnnealIterations: 20,
			Parallelism:      1,
		}
		if _, err := Reselect(context.Background(), art, cfg); err != nil {
			t.Fatalf("accepted artifact does not reselect: %v", err)
		}
	})
}
