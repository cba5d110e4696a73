package qasm

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// corpusFiles returns the example QASM programs shipped with the repo
// (examples/circuits/*.qasm), the shared seed corpus of both fuzzers.
func corpusFiles(tb testing.TB) map[string]string {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "circuits", "*.qasm"))
	if err != nil {
		tb.Fatal(err)
	}
	if len(paths) == 0 {
		tb.Fatal("no .qasm seed corpus found under examples/circuits")
	}
	out := make(map[string]string, len(paths))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		out[filepath.Base(p)] = string(b)
	}
	return out
}

// FuzzParse checks that the parser never panics and that every program it
// accepts can be re-serialized and re-parsed to a circuit with the same
// structure (writer/parser closure).
func FuzzParse(f *testing.F) {
	seeds := []string{
		sample,
		macroSample,
		"qreg q[2];\nh q[0];\ncx q[0],q[1];\n",
		"OPENQASM 2.0;\nqreg a[1];\nqreg b[2];\nrz(pi/3) b[1];\n",
		"qreg q[3];\nccx q[0],q[1],q[2];\nswap q[0],q[2];\n",
		"gate g(t) a { rz(t) a; }\nqreg q[1];\ng(0.5) q[0];\n",
		"qreg q[2];\nu3(1,2,3) q;\nbarrier q;\nmeasure q -> c;\n",
		"qreg q[1];\nrz(((1+2)*3)/4 - sin(0.5)) q[0];\n",
		"", "qreg", "qreg q[",
		"qreg q[1];\nh\n", "qreg q[999999999999999999999];",
		"qreg q[65];", "qreg a[64];\nqreg b[1];",
		"qreg a[9223372036854775807];\nqreg b[9223372036854775807];",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	for _, num := range malformedNumbers {
		f.Add("qreg q[1];\nrz(" + num + ") q[0];\n")
	}
	for _, s := range corpusFiles(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return
		}
		c, err := Parse(src) // must not panic
		if err != nil {
			return
		}
		// Accepted programs round-trip structurally.
		out := Write(c)
		c2, err := Parse(out)
		if err != nil {
			t.Fatalf("re-parse of emitted QASM failed: %v\nprogram:\n%s", err, out)
		}
		if c2.NumQubits != c.NumQubits || c2.Size() != c.Size() {
			t.Fatalf("round trip changed structure: %d/%d qubits, %d/%d ops",
				c.NumQubits, c2.NumQubits, c.Size(), c2.Size())
		}
	})
}

// FuzzLex checks the lexer in isolation: tokenize never panics, the
// token stream always terminates in exactly one EOF token, and line
// numbers never decrease.
func FuzzLex(f *testing.F) {
	seeds := []string{
		"qreg q[2];\nh q[0];",
		"// comment only\n",
		"1.2e-3 .5 3. 1e+9 ->",
		"\"a string\" \"unterminated",
		"gate g(t) a { rz(t) a; }",
		"\x00\xff weird ☃ bytes",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	for _, s := range corpusFiles(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return
		}
		toks, err := tokenize(src) // must not panic
		if err != nil {
			return
		}
		if len(toks) == 0 || toks[len(toks)-1].kind != tokEOF {
			t.Fatalf("token stream does not end in EOF: %v", toks)
		}
		line := 1
		for i, tok := range toks {
			if tok.kind == tokEOF && i != len(toks)-1 {
				t.Fatalf("EOF token at %d of %d", i, len(toks))
			}
			if tok.line < line {
				t.Fatalf("line numbers decrease: %d after %d", tok.line, line)
			}
			line = tok.line
		}
	})
}

// TestFuzzSeedsDirect runs the fuzz seeds as a plain test so they are
// exercised by `go test` without -fuzz.
func TestFuzzSeedsDirect(t *testing.T) {
	srcs := []string{
		sample, macroSample,
		"qreg q[3];\nccx q[0],q[1],q[2];\nswap q[0],q[2];\n",
		strings.Repeat("qreg q[1];\n", 1) + "h q[0];\n",
	}
	for _, src := range srcs {
		if _, err := Parse(src); err != nil {
			t.Errorf("seed rejected: %v", err)
		}
	}
}

// TestCorpusFilesParseAndRoundTrip pins the examples/circuits corpus:
// every file parses, re-serializes, and re-parses to the same structure.
func TestCorpusFilesParseAndRoundTrip(t *testing.T) {
	for name, src := range corpusFiles(t) {
		c, err := Parse(src)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if c.NumQubits == 0 || c.Size() == 0 {
			t.Errorf("%s: parsed to an empty circuit", name)
			continue
		}
		c2, err := Parse(Write(c))
		if err != nil {
			t.Errorf("%s: re-parse failed: %v", name, err)
			continue
		}
		if c2.NumQubits != c.NumQubits || c2.Size() != c.Size() {
			t.Errorf("%s: round trip changed structure", name)
		}
	}
}

// TestParseRejectsOversizedRegisters covers the circuit.MaxQubits cap: huge or
// offset-overflowing qreg declarations fail with an error (they used to
// parse and then panic or OOM in downstream allocations).
func TestParseRejectsOversizedRegisters(t *testing.T) {
	for _, src := range []string{
		"qreg q[65];",
		"qreg a[64];\nqreg b[1];",
		"qreg a[9223372036854775807];\nqreg b[9223372036854775807];",
		"qreg q[1000000000];",
	} {
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "limit") {
			t.Errorf("Parse(%q) = %v, want qubit-limit error", src, err)
		}
	}
	if _, err := Parse("qreg q[64];\nh q[0];"); err != nil {
		t.Errorf("register at the limit rejected: %v", err)
	}
}
