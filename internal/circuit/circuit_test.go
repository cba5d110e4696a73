package circuit

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestAppendValidation(t *testing.T) {
	c := New(2)
	if err := c.Append("nope", []int{0}, nil); err == nil {
		t.Error("unknown gate accepted")
	}
	if err := c.Append("cx", []int{0}, nil); err == nil {
		t.Error("wrong operand count accepted")
	}
	if err := c.Append("cx", []int{0, 2}, nil); err == nil {
		t.Error("out-of-range qubit accepted")
	}
	if err := c.Append("cx", []int{1, 1}, nil); err == nil {
		t.Error("duplicate qubit accepted")
	}
	if err := c.Append("rz", []int{0}, nil); err == nil {
		t.Error("missing params accepted")
	}
	if err := c.Append("h", []int{0}, []float64{1}); err == nil {
		t.Error("extra params accepted")
	}
	if err := c.Append("cx", []int{0, 1}, nil); err != nil {
		t.Errorf("valid cx rejected: %v", err)
	}
}

// A circuit's JSON form round-trips bit-exactly, and Check applies
// Append's per-op rules plus the width cap to a decoded circuit.
func TestJSONRoundTripAndCheck(t *testing.T) {
	c := New(3)
	c.H(0)
	c.CX(0, 2)
	c.U3(1, 0.1, -math.Pi/3, 1e-17)
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"n":3,"ops":[{"name":"h","qubits":[0]},{"name":"cx","qubits":[0,2]},` +
		`{"name":"u3","qubits":[1],"params":[0.1,-1.0471975511965979,1e-17]}]}`
	if string(data) != want {
		t.Fatalf("encoded %s, want %s", data, want)
	}
	var back Circuit
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Check(); err != nil {
		t.Fatalf("round-tripped circuit rejected: %v", err)
	}
	if back.String() != c.String() || math.Float64bits(back.Ops[2].Params[1]) != math.Float64bits(-math.Pi/3) {
		t.Fatalf("round trip changed the circuit:\n%s\nwant\n%s", back.String(), c.String())
	}
	for name, doc := range map[string]string{
		"zero width":         `{"n":0,"ops":[]}`,
		"negative width":     `{"n":-1,"ops":[]}`,
		"beyond MaxQubits":   `{"n":65,"ops":[]}`,
		"unknown gate":       `{"n":2,"ops":[{"name":"nope","qubits":[0]}]}`,
		"operand count":      `{"n":2,"ops":[{"name":"cx","qubits":[0]}]}`,
		"missing params":     `{"n":2,"ops":[{"name":"rz","qubits":[0]}]}`,
		"extra params":       `{"n":2,"ops":[{"name":"h","qubits":[0],"params":[1]}]}`,
		"qubit out of range": `{"n":2,"ops":[{"name":"cx","qubits":[0,2]}]}`,
		"negative qubit":     `{"n":2,"ops":[{"name":"h","qubits":[-1]}]}`,
		"duplicate qubit":    `{"n":2,"ops":[{"name":"cx","qubits":[1,1]}]}`,
	} {
		var bad Circuit
		if err := json.Unmarshal([]byte(doc), &bad); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := bad.Check(); err == nil {
			t.Errorf("%s: %s accepted", name, doc)
		}
	}
	if err := (&Circuit{NumQubits: MaxQubits}).Check(); err != nil {
		t.Errorf("circuit at the width cap rejected: %v", err)
	}
}

func TestCNOTCount(t *testing.T) {
	c := New(3)
	c.H(0)
	c.CX(0, 1)
	c.Swap(1, 2)
	c.CCX(0, 1, 2)
	c.RZZ(0, 1, 0.5)
	// cx=1, swap=3, ccx=6, rzz=2 → 12
	if got := c.CNOTCount(); got != 12 {
		t.Errorf("CNOTCount = %d, want 12", got)
	}
}

func TestDepth(t *testing.T) {
	c := New(3)
	c.H(0) // depth 1 on q0
	c.H(1) // depth 1 on q1
	c.CX(0, 1)
	c.H(2)
	if got := c.Depth(); got != 2 {
		t.Errorf("Depth = %d, want 2", got)
	}
	c.CX(1, 2)
	if got := c.Depth(); got != 3 {
		t.Errorf("Depth = %d, want 3", got)
	}
}

func TestGateCounts(t *testing.T) {
	c := New(2)
	c.H(0)
	c.H(1)
	c.CX(0, 1)
	m := c.GateCounts()
	if m["h"] != 2 || m["cx"] != 1 {
		t.Errorf("GateCounts = %v", m)
	}
}

func TestActiveQubits(t *testing.T) {
	c := New(5)
	c.H(1)
	c.CX(3, 1)
	got := c.ActiveQubits()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("ActiveQubits = %v, want [1 3]", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	c := New(2)
	c.RZ(0, 1.0)
	d := c.Clone()
	d.Ops[0].Params[0] = 2.0
	d.X(1)
	if c.Ops[0].Params[0] != 1.0 {
		t.Error("Clone shares param storage")
	}
	if len(c.Ops) != 1 {
		t.Error("Clone shares op slice")
	}
}

func TestAppendCircuitRemap(t *testing.T) {
	inner := New(2)
	inner.CX(0, 1)
	outer := New(4)
	if err := outer.AppendCircuit(inner, []int{3, 1}); err != nil {
		t.Fatal(err)
	}
	op := outer.Ops[0]
	if op.Qubits[0] != 3 || op.Qubits[1] != 1 {
		t.Errorf("remapped qubits = %v, want [3 1]", op.Qubits)
	}
}

func TestAppendCircuitBadMap(t *testing.T) {
	inner := New(2)
	inner.CX(0, 1)
	outer := New(4)
	if err := outer.AppendCircuit(inner, []int{0}); err == nil {
		t.Error("short qubit map accepted")
	}
	if err := outer.AppendCircuit(inner, []int{0, 9}); err == nil {
		t.Error("out-of-range map accepted")
	}
}

func TestSlice(t *testing.T) {
	c := New(2)
	c.H(0)
	c.CX(0, 1)
	c.H(1)
	s := c.Slice(1, 3)
	if s.Size() != 2 || s.Ops[0].Name != "cx" || s.Ops[1].Name != "h" {
		t.Errorf("Slice wrong: %v", s)
	}
}

func TestOpString(t *testing.T) {
	c := New(2)
	c.RZ(1, 0.5)
	if got := c.Ops[0].String(); !strings.Contains(got, "rz(0.5) q[1]") {
		t.Errorf("Op.String = %q", got)
	}
}

func TestInverseStructure(t *testing.T) {
	c := New(2)
	c.S(0)
	c.CX(0, 1)
	c.RZ(1, 0.7)
	inv := c.Inverse()
	if inv.Size() != 3 {
		t.Fatalf("Inverse size = %d", inv.Size())
	}
	if inv.Ops[0].Name != "rz" || inv.Ops[0].Params[0] != -0.7 {
		t.Errorf("Inverse[0] = %v", inv.Ops[0])
	}
	if inv.Ops[1].Name != "cx" {
		t.Errorf("Inverse[1] = %v", inv.Ops[1])
	}
	if inv.Ops[2].Name != "sdg" {
		t.Errorf("Inverse[2] = %v", inv.Ops[2])
	}
}

func TestDrawBasic(t *testing.T) {
	c := New(3)
	c.H(0)
	c.CX(0, 1)
	c.CX(1, 2)
	out := c.Draw()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("Draw produced %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "q0") || !strings.Contains(lines[0], "H") {
		t.Errorf("q0 row missing H: %q", lines[0])
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "X") {
		t.Errorf("Draw missing CX symbols:\n%s", out)
	}
}

func TestDrawEmpty(t *testing.T) {
	if got := New(0).Draw(); got != "" {
		t.Errorf("empty Draw = %q", got)
	}
	out := New(2).Draw()
	if !strings.Contains(out, "q0") || !strings.Contains(out, "q1") {
		t.Errorf("gate-free Draw = %q", out)
	}
}

func TestDrawParameterized(t *testing.T) {
	c := New(1)
	c.RZ(0, 0.5)
	out := c.Draw()
	if !strings.Contains(out, "RZ(0.5)") {
		t.Errorf("Draw = %q", out)
	}
}

func TestDrawConnectors(t *testing.T) {
	// CX between non-adjacent qubits needs a connector through q1's gap.
	c := New(3)
	c.CX(0, 2)
	out := c.Draw()
	if !strings.Contains(out, "|") {
		t.Errorf("Draw missing vertical connector:\n%s", out)
	}
}

func TestMustAppendPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAppend with bad qubit did not panic")
		}
	}()
	c := New(1)
	c.MustAppend("cx", []int{0, 1}, nil)
}

func TestOpSpec(t *testing.T) {
	c := New(2)
	c.CX(0, 1)
	if spec := c.Ops[0].Spec(); spec.Name != "cx" || spec.Qubits != 2 {
		t.Errorf("Op.Spec = %+v", spec)
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1) did not panic")
		}
	}()
	New(-1)
}
