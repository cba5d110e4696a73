package pipeline

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/algos"
	"repro/internal/budget"
	"repro/internal/circuit"
	"repro/internal/faultinject"
	"repro/internal/qasm"
)

func v1ArtifactConfig(eps float64) Config {
	return Config{MaxSamples: 4, AnnealIterations: 100, Seed: 3, Epsilon: eps, BlockSize: 2}
}

// v1SelectionDigests are selectionDigest of the version-1 loader's
// Reselect of its testdata artifact (degradedArtifact, saved in the
// retired QASM encoding), at the artifact's own ε and a tighter one.
// Every later encoding must reproduce them.
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

// degradedArtifact synthesizes tfim on 3 qubits at v1ArtifactConfig(0.1)
// with block 1 degraded by fault injection: one block with a raw harvest
// and one without.
func degradedArtifact(t testing.TB) *SynthesisArtifact {
	t.Helper()
	c, err := algos.Generate("tfim", 3)
	if err != nil {
		t.Fatal(err)
	}
	restore := faultinject.Set("core.block.1", faultinject.FailAlways(budget.ErrNoConvergence))
	art, err := Synthesize(context.Background(), c, v1ArtifactConfig(0.1))
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Degradations) != 1 || art.Blocks[1].all != nil || len(art.Blocks[1].Candidates) != 1 {
		t.Fatalf("artifact does not hold one degraded block: %+v", art.Degradations)
	}
	return art
}

func saved(t testing.TB, art *SynthesisArtifact) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := art.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	return buf.Bytes()
}

func roundTrip(t testing.TB, art *SynthesisArtifact) *SynthesisArtifact {
	t.Helper()
	loaded, err := LoadSynthesis(bytes.NewReader(saved(t, art)))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return loaded
}

// An artifact with a degraded block, saved and loaded, Reselects
// bit-identically to the in-memory artifact it was saved from and to the
// digests the version-1 loader recorded for the same artifact.
func TestLoadedArtifactReselectsBitIdentically(t *testing.T) {
	mem := degradedArtifact(t)
	loaded := roundTrip(t, mem)
	if len(loaded.Degradations) != 1 || loaded.Blocks[1].all != nil || len(loaded.Blocks[1].Candidates) != 1 {
		t.Fatalf("loaded artifact lost its degraded block: %+v", loaded.Degradations)
	}
	for i := range mem.Blocks {
		if got, want := fmt.Sprint(loaded.Blocks[i].Candidates), fmt.Sprint(mem.Blocks[i].Candidates); got != want {
			t.Errorf("block %d: rebuilt pruned list differs from the in-memory one", i)
		}
	}
	for _, eps := range []float64{0.1, 0.01} {
		cfg := v1ArtifactConfig(eps)
		want, err := Reselect(context.Background(), mem, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Reselect(context.Background(), loaded, cfg)
		if err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
		sameSelection(t, fmt.Sprintf("eps=%v", eps), want, got)
		if d := selectionDigest(got); d != v1SelectionDigests[eps] {
			t.Errorf("eps=%v: selection digest %s, want %s", eps, d, v1SelectionDigests[eps])
		}
	}
}

func TestSaveWritesNoPrunedList(t *testing.T) {
	var doc struct {
		Version int                          `json:"version"`
		Blocks  []map[string]json.RawMessage `json:"blocks"`
	}
	if err := json.Unmarshal(saved(t, degradedArtifact(t)), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Version != synthArtifactVersion || synthArtifactVersion != 3 {
		t.Errorf("saved version %d, encoding version %d, want 3", doc.Version, synthArtifactVersion)
	}
	for i, b := range doc.Blocks {
		if _, ok := b["candidates"]; ok {
			t.Errorf("block %d still carries a candidates key", i)
		}
	}
}

// corruptArtifact returns the saved artifact with edit applied to its
// decoded JSON document.
func corruptArtifact(t *testing.T, art []byte, edit func(doc map[string]any)) []byte {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(art, &doc); err != nil {
		t.Fatal(err)
	}
	edit(doc)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// emptyCircuit is the JSON form of a gate-free width-qubit circuit.
func emptyCircuit(width int) map[string]any {
	return map[string]any{"n": width, "ops": []any{}}
}

// Artifacts no Save could have written are rejected before any unitary
// is built from them; the store treats that as a miss. Each case breaks
// exactly one check (in the saved artifact, block 0 is a 2-qubit block
// with a raw harvest, its and the original's first op is rzz, and each
// raw candidate's first op is u3).
func TestLoadSynthesisRejectsInconsistentBlocks(t *testing.T) {
	art := saved(t, degradedArtifact(t))
	block := func(doc map[string]any) map[string]any {
		return doc["blocks"].([]any)[0].(map[string]any)
	}
	obj := func(m map[string]any, key string) map[string]any { return m[key].(map[string]any) }
	raw0 := func(doc map[string]any) map[string]any {
		return obj(block(doc)["raw"].([]any)[0].(map[string]any), "circuit")
	}
	ops := func(c map[string]any) []any { return c["ops"].([]any) }
	firstOp := func(c map[string]any) map[string]any { return ops(c)[0].(map[string]any) }
	cases := map[string]func(doc map[string]any){
		"version 1": func(doc map[string]any) { doc["version"] = 1 },
		"version 2": func(doc map[string]any) { doc["version"] = 2 },
		"qubit list longer than circuit": func(doc map[string]any) {
			block(doc)["qubits"] = []int{0, 1, 2}
		},
		"qubit list shorter than circuit": func(doc map[string]any) {
			block(doc)["qubits"] = []int{0}
		},
		"block wider than block size": func(doc map[string]any) {
			obj(block(doc), "circuit")["n"] = 3
			block(doc)["qubits"] = []int{0, 1, 2}
			delete(block(doc), "raw")
		},
		"block size beyond any loadable block": func(doc map[string]any) {
			w := maxBlockWidth + 1
			qs := make([]int, w)
			for i := range qs {
				qs[i] = i
			}
			doc["block_size"] = w
			obj(doc, "original")["n"] = w
			obj(block(doc), "circuit")["n"] = w
			block(doc)["qubits"] = qs
			delete(block(doc), "raw")
		},
		"raw candidate narrower than block": func(doc map[string]any) {
			block(doc)["raw"].([]any)[0].(map[string]any)["circuit"] = emptyCircuit(1)
		},
		"raw candidate wider than block": func(doc map[string]any) {
			block(doc)["raw"].([]any)[0].(map[string]any)["circuit"] = emptyCircuit(3)
		},
		"raw candidate without a circuit": func(doc map[string]any) {
			delete(block(doc)["raw"].([]any)[0].(map[string]any), "circuit")
		},
		"raw candidate op with an unknown gate": func(doc map[string]any) {
			firstOp(raw0(doc))["name"] = "nosuchgate"
		},
		"raw candidate op with the wrong operand count": func(doc map[string]any) {
			firstOp(raw0(doc))["qubits"] = []int{0, 1}
		},
		"raw candidate op with the wrong parameter count": func(doc map[string]any) {
			firstOp(raw0(doc))["params"] = []float64{0.1}
		},
		"raw candidate op with a repeated qubit": func(doc map[string]any) {
			ops(raw0(doc))[0] = map[string]any{"name": "cx", "qubits": []int{1, 1}}
		},
		"block op qubit outside its circuit": func(doc map[string]any) {
			firstOp(obj(block(doc), "circuit"))["qubits"] = []int{0, 2}
		},
		"original op qubit outside the original": func(doc map[string]any) {
			firstOp(obj(doc, "original"))["qubits"] = []int{0, 3}
		},
		"no original": func(doc map[string]any) {
			delete(doc, "original")
		},
		"original wider than circuit.MaxQubits": func(doc map[string]any) {
			obj(doc, "original")["n"] = circuit.MaxQubits + 1
		},
		"qubit outside the original": func(doc map[string]any) {
			block(doc)["qubits"] = []int{0, 3}
		},
		"repeated qubit": func(doc map[string]any) {
			block(doc)["qubits"] = []int{1, 1}
		},
		"no blocks": func(doc map[string]any) {
			doc["blocks"] = []any{}
		},
	}
	for name, edit := range cases {
		if _, err := LoadSynthesis(bytes.NewReader(corruptArtifact(t, art, edit))); err == nil {
			t.Errorf("%s: artifact accepted", name)
		}
	}
}

// v2Seed is an artifact in the retired version-2 (QASM text) encoding;
// it must be rejected.
const v2Seed = `{"version":2,"block_size":2,"original":"qreg q[2];\ncx q[0],q[1];\n","blocks":[{"qubits":[1,0],"qasm":"qreg q[2];\ncx q[0],q[1];\n"}]}`

// FuzzLoadSynthesis feeds arbitrary bytes to the loader: it never
// panics, and every artifact it accepts Reselects without error.
func FuzzLoadSynthesis(f *testing.F) {
	if _, err := LoadSynthesis(strings.NewReader(v2Seed)); err == nil {
		f.Fatal("version-2 artifact accepted")
	}
	v3 := saved(f, degradedArtifact(f))
	f.Add(v3)
	f.Add([]byte(strings.Replace(string(v3), `"block_size":2`, `"block_size":1`, 1)))
	f.Add([]byte(`{"version":3,"block_size":2,"original":{"n":2,"ops":[{"name":"cx","qubits":[0,1]}]},"blocks":[{"qubits":[1,0],"circuit":{"n":2,"ops":[{"name":"cx","qubits":[0,1]}]}}]}`))
	f.Add([]byte(v2Seed))
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
