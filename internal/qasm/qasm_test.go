package qasm

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/linalg"
	"repro/internal/sim"
)

const sample = `
OPENQASM 2.0;
include "qelib1.inc";
// a comment
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
rz(pi/4) q[2];
u3(pi/2, 0, pi) q[1];
barrier q;
measure q -> c;
`

func TestParseSample(t *testing.T) {
	c, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits != 3 {
		t.Errorf("NumQubits = %d, want 3", c.NumQubits)
	}
	if c.Size() != 4 {
		t.Fatalf("Size = %d, want 4 (measure/barrier dropped)", c.Size())
	}
	if c.Ops[1].Name != "cx" || c.Ops[1].Qubits[0] != 0 || c.Ops[1].Qubits[1] != 1 {
		t.Errorf("op[1] = %v", c.Ops[1])
	}
	if got := c.Ops[2].Params[0]; math.Abs(got-math.Pi/4) > 1e-12 {
		t.Errorf("rz param = %g, want pi/4", got)
	}
}

func TestParseExpressions(t *testing.T) {
	cases := []struct {
		expr string
		want float64
	}{
		{"pi", math.Pi},
		{"2*pi", 2 * math.Pi},
		{"pi/2", math.Pi / 2},
		{"-pi/4", -math.Pi / 4},
		{"1+2*3", 7},
		{"(1+2)*3", 9},
		{"1-2-3", -4},
		{"sin(0)", 0},
		{"cos(0)", 1},
		{"sqrt(4)", 2},
		{"1.5e2", 150},
		{"--1", 1},
	}
	for _, tc := range cases {
		src := "qreg q[1];\nrz(" + tc.expr + ") q[0];\n"
		c, err := Parse(src)
		if err != nil {
			t.Errorf("expr %q: %v", tc.expr, err)
			continue
		}
		if got := c.Ops[0].Params[0]; math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("expr %q = %g, want %g", tc.expr, got, tc.want)
		}
	}
}

func TestParseBroadcast(t *testing.T) {
	src := "qreg q[3];\nh q;\n"
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 3 {
		t.Fatalf("broadcast h q produced %d ops, want 3", c.Size())
	}
	for i, op := range c.Ops {
		if op.Name != "h" || op.Qubits[0] != i {
			t.Errorf("op[%d] = %v", i, op)
		}
	}
}

func TestParseMultipleRegisters(t *testing.T) {
	src := "qreg a[2];\nqreg b[2];\ncx a[1],b[0];\n"
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits != 4 {
		t.Errorf("NumQubits = %d, want 4", c.NumQubits)
	}
	op := c.Ops[0]
	if op.Qubits[0] != 1 || op.Qubits[1] != 2 {
		t.Errorf("cx mapped to %v, want [1 2]", op.Qubits)
	}
}

func TestParseAliases(t *testing.T) {
	src := "qreg q[2];\nu1(0.5) q[0];\ncu1(0.25) q[0],q[1];\nu(1,2,3) q[0];\n"
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Ops[0].Name != "p" || c.Ops[1].Name != "cp" || c.Ops[2].Name != "u3" {
		t.Errorf("aliases wrong: %v %v %v", c.Ops[0].Name, c.Ops[1].Name, c.Ops[2].Name)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"qreg q[2];\nbogus q[0];\n",        // unknown gate
		"qreg q[2];\nh q[5];\n",            // out of range
		"qreg q[2];\nrz q[0];\n",           // missing params
		"qreg q[2];\ncx q[0];\n",           // missing operand
		"qreg q[2];\nh r[0];\n",            // unknown register
		"qreg q[2];\nqreg q[2];\n",         // duplicate register
		"qreg q[2];\nrz(1/0) q[0];\n",      // division by zero
		"qreg q[2];\nh q[0]",               // missing semicolon
		"qreg q[2];\nrz(nonsense) q[0];\n", // unknown ident in expr
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse accepted invalid program: %q", src)
		}
	}
}

// malformedNumbers are number tokens the lexer produces but that are not
// numbers; each must be rejected, not read up to its first bad character
// (rz(1.2.3) must not parse as rz(1.2)).
var malformedNumbers = []string{"1.2.3", "1..5", "..5", ".", "1e", "1e+", "2.5e-", "1.e.5", "3e5.1", "1e999"}

func TestParseRejectsMalformedNumbers(t *testing.T) {
	for _, num := range malformedNumbers {
		src := "qreg q[1];\nrz(" + num + ") q[0];\n"
		if c, err := Parse(src); err == nil {
			t.Errorf("rz(%s) parsed as rz(%v)", num, c.Ops[0].Params[0])
		}
	}
	// Every well-formed spelling still reads its exact value.
	for _, tc := range []struct {
		num  string
		want float64
	}{
		{"1.", 1}, {".5", 0.5}, {"00.25", 0.25}, {"1e3", 1000}, {"1E+3", 1000}, {"2.5e-1", 0.25},
		{"0.10000000000000001", 0.1}, {"3.1415926535897931", math.Pi},
	} {
		c, err := Parse("qreg q[1];\nrz(" + tc.num + ") q[0];\n")
		if err != nil {
			t.Errorf("rz(%s): %v", tc.num, err)
			continue
		}
		if got := c.Ops[0].Params[0]; math.Float64bits(got) != math.Float64bits(tc.want) {
			t.Errorf("rz(%s) = %v, want %v", tc.num, got, tc.want)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	c := circuit.New(3)
	c.H(0)
	c.CX(0, 1)
	c.RZ(2, 0.123456789)
	c.U3(1, 0.1, -0.2, 0.3)
	c.Swap(0, 2)
	c.RZZ(1, 2, -1.5)

	src := Write(c)
	parsed, err := Parse(src)
	if err != nil {
		t.Fatalf("round-trip parse: %v\n%s", err, src)
	}
	u1, u2 := sim.Unitary(c), sim.Unitary(parsed)
	if !linalg.EqualApprox(u1, u2, 1e-10) {
		t.Error("round-trip changed circuit unitary")
	}
}

func TestWriteContainsHeader(t *testing.T) {
	c := circuit.New(1)
	c.H(0)
	out := Write(c)
	for _, want := range []string{"OPENQASM 2.0;", "qreg q[1];", "h q[0];", "measure q -> c;"} {
		if !strings.Contains(out, want) {
			t.Errorf("Write output missing %q:\n%s", want, out)
		}
	}
}

func TestPropRoundTripRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := circuit.New(3)
		for i := 0; i < 15; i++ {
			switch r.Intn(5) {
			case 0:
				c.H(r.Intn(3))
			case 1:
				c.RZ(r.Intn(3), r.Float64()*4-2)
			case 2:
				c.RY(r.Intn(3), r.Float64()*4-2)
			case 3:
				c.U3(r.Intn(3), r.Float64(), r.Float64(), r.Float64())
			case 4:
				a, b := r.Intn(3), r.Intn(3)
				if a == b {
					b = (b + 1) % 3
				}
				c.CX(a, b)
			}
		}
		parsed, err := Parse(Write(c))
		if err != nil {
			return false
		}
		return linalg.EqualApprox(sim.Unitary(c), sim.Unitary(parsed), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rng}); err != nil {
		t.Error(err)
	}
}

const macroSample = `
OPENQASM 2.0;
gate majority a,b,c {
  cx c,b;
  cx c,a;
  ccx a,b,c;
}
gate rot(theta, phi) q {
  rz(theta/2) q;
  ry(phi) q;
  rz(-theta/2) q;
}
qreg q[3];
majority q[0],q[1],q[2];
rot(pi, pi/4) q[1];
`

func TestParseGateMacro(t *testing.T) {
	c, err := Parse(macroSample)
	if err != nil {
		t.Fatal(err)
	}
	// majority expands to cx,cx,ccx; rot to rz,ry,rz → 6 ops.
	if c.Size() != 6 {
		t.Fatalf("macro expansion gave %d ops: %v", c.Size(), c)
	}
	if c.Ops[0].Name != "cx" || c.Ops[0].Qubits[0] != 2 || c.Ops[0].Qubits[1] != 1 {
		t.Errorf("op[0] = %v, want cx q2,q1", c.Ops[0])
	}
	if c.Ops[2].Name != "ccx" {
		t.Errorf("op[2] = %v, want ccx", c.Ops[2])
	}
	if got := c.Ops[3].Params[0]; math.Abs(got-math.Pi/2) > 1e-12 {
		t.Errorf("rot theta/2 = %g, want pi/2", got)
	}
	if got := c.Ops[4].Params[0]; math.Abs(got-math.Pi/4) > 1e-12 {
		t.Errorf("rot phi = %g, want pi/4", got)
	}
	if got := c.Ops[5].Params[0]; math.Abs(got+math.Pi/2) > 1e-12 {
		t.Errorf("rot -theta/2 = %g, want -pi/2", got)
	}
}

func TestParseNestedMacros(t *testing.T) {
	src := `
qreg q[2];
gate inner q { h q; }
gate outer a,b { inner a; cx a,b; inner b; }
outer q[0],q[1];
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 3 || c.Ops[0].Name != "h" || c.Ops[1].Name != "cx" || c.Ops[2].Name != "h" {
		t.Errorf("nested macro expansion: %v", c)
	}
}

func TestParseMacroErrors(t *testing.T) {
	cases := []string{
		// unknown qubit in body
		"qreg q[1];\ngate g a { h b; }\ng q[0];\n",
		// wrong arity at call site
		"qreg q[2];\ngate g a { h a; }\ng q[0],q[1];\n",
		// wrong param count
		"qreg q[1];\ngate g(t) a { rz(t) a; }\ng q[0];\n",
		// duplicate definition
		"qreg q[1];\ngate g a { h a; }\ngate g a { x a; }\ng q[0];\n",
		// unbound parameter reference in body
		"qreg q[1];\ngate g a { rz(t) a; }\ng q[0];\n",
		// unknown gate inside body (caught at expansion)
		"qreg q[1];\ngate g a { bogus a; }\ng q[0];\n",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse accepted invalid macro program: %q", src)
		}
	}
}

func TestParseMacroBroadcast(t *testing.T) {
	src := "qreg q[3];\ngate g a { h a; t a; }\ng q;\n"
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 6 {
		t.Errorf("macro broadcast gave %d ops", c.Size())
	}
}

func TestParseMacroMatchesDirectCircuit(t *testing.T) {
	// The Cuccaro MAJ block as a macro must equal the directly built one.
	src := `
qreg q[3];
gate maj x,y,z { cx z,y; cx z,x; ccx x,y,z; }
maj q[0],q[1],q[2];
`
	parsed, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	direct := circuit.New(3)
	direct.CX(2, 1)
	direct.CX(2, 0)
	direct.CCX(0, 1, 2)
	if !linalg.EqualApprox(sim.Unitary(parsed), sim.Unitary(direct), 1e-12) {
		t.Error("macro circuit differs from direct construction")
	}
}

func TestParsePowerOperator(t *testing.T) {
	src := "qreg q[1];\nrz(2^3) q[0];\n"
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Ops[0].Params[0]; math.Abs(got-8) > 1e-12 {
		t.Errorf("2^3 = %g", got)
	}
}
