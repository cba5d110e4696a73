// Package circuit defines the quantum circuit intermediate representation
// used across the repository: a flat list of gate operations on numbered
// qubits, plus the structural queries QUEST needs (CNOT count, depth,
// composition, inversion, qubit remapping).
//
// Global qubit-ordering convention: qubit 0 is the LEAST significant bit of
// a computational basis index (the Qiskit convention). Within a single
// gate's matrix the first qubit operand is the most significant local bit.
package circuit

import (
	"fmt"
	"strings"

	"repro/internal/gate"
)

// MaxQubits caps the width of any circuit that enters the repository
// from outside: a parsed QASM program or a decoded JSON circuit. Without
// a cap, a huge declared width would decode fine and then blow up
// downstream, where stages allocate O(n) index maps and O(2^n)
// statevectors — as a panic or an OOM kill rather than an error. 64
// matches the widest simulation path in the repository (the Clifford
// sampler); statevector stages top out far below it anyway.
const MaxQubits = 64

// Op is one gate application. Its JSON form is the circuit codec shared
// by every on-disk store (the synthesis cache journal and questd's
// synthesis artifacts); float64 parameters round-trip bit-exactly.
type Op struct {
	// Name is a registered gate name (see package gate).
	Name string `json:"name"`
	// Qubits are the operand qubit indices, in gate-operand order.
	Qubits []int `json:"qubits"`
	// Params are the gate's real parameters (nil for fixed gates).
	Params []float64 `json:"params,omitempty"`
}

// Spec returns the gate spec for the op.
func (o Op) Spec() *gate.Spec { return gate.MustLookup(o.Name) }

// Clone returns a deep copy of the op.
func (o Op) Clone() Op {
	c := Op{Name: o.Name}
	c.Qubits = append([]int(nil), o.Qubits...)
	if o.Params != nil {
		c.Params = append([]float64(nil), o.Params...)
	}
	return c
}

// String renders the op in QASM-like form.
func (o Op) String() string {
	var b strings.Builder
	b.WriteString(o.Name)
	if len(o.Params) > 0 {
		b.WriteByte('(')
		for i, p := range o.Params {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%g", p)
		}
		b.WriteByte(')')
	}
	b.WriteByte(' ')
	for i, q := range o.Qubits {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "q[%d]", q)
	}
	return b.String()
}

// Circuit is an ordered sequence of gate operations on NumQubits qubits.
// The zero value is an empty circuit on zero qubits. A decoded circuit
// is unchecked input until Check accepts it.
type Circuit struct {
	NumQubits int  `json:"n"`
	Ops       []Op `json:"ops"`
}

// New returns an empty circuit on n qubits.
func New(n int) *Circuit {
	if n < 0 {
		panic("circuit: negative qubit count")
	}
	return &Circuit{NumQubits: n}
}

// Clone returns a deep copy of the circuit.
func (c *Circuit) Clone() *Circuit {
	out := New(c.NumQubits)
	out.Ops = make([]Op, len(c.Ops))
	for i, o := range c.Ops {
		out.Ops[i] = o.Clone()
	}
	return out
}

// Append adds an operation, validating the gate name, operand count and
// qubit ranges.
func (c *Circuit) Append(name string, qubits []int, params []float64) error {
	if err := checkOp(name, qubits, params, c.NumQubits); err != nil {
		return err
	}
	c.Ops = append(c.Ops, Op{
		Name:   name,
		Qubits: append([]int(nil), qubits...),
		Params: append([]float64(nil), params...),
	})
	return nil
}

// Check validates a circuit that did not come from Append (one decoded
// from JSON): its width must lie in [1, MaxQubits] and every op must pass
// the rules Append enforces.
func (c *Circuit) Check() error {
	if c.NumQubits < 1 || c.NumQubits > MaxQubits {
		return fmt.Errorf("circuit: width %d outside [1, %d]", c.NumQubits, MaxQubits)
	}
	for i, o := range c.Ops {
		if err := checkOp(o.Name, o.Qubits, o.Params, c.NumQubits); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	return nil
}

// checkOp applies the per-op rules shared by Append and Check: a known
// gate, its operand and parameter counts, qubits in [0, n), no qubit
// twice.
func checkOp(name string, qubits []int, params []float64, n int) error {
	s, err := gate.Lookup(name)
	if err != nil {
		return err
	}
	if len(qubits) != s.Qubits {
		return fmt.Errorf("circuit: gate %s expects %d qubits, got %d", name, s.Qubits, len(qubits))
	}
	if len(params) != s.Params {
		return fmt.Errorf("circuit: gate %s expects %d params, got %d", name, s.Params, len(params))
	}
	// Operand counts are tiny (≤3 for every registered gate), so the
	// duplicate check is a quadratic scan instead of a map: Append is on
	// the partitioner's per-gate path and must not allocate per op.
	for i, q := range qubits {
		if q < 0 || q >= n {
			return fmt.Errorf("circuit: qubit %d out of range [0,%d)", q, n)
		}
		for _, p := range qubits[:i] {
			if p == q {
				return fmt.Errorf("circuit: duplicate qubit %d in %s", q, name)
			}
		}
	}
	return nil
}

// MustAppend is Append that panics on error; used by circuit generators
// whose operands are correct by construction.
func (c *Circuit) MustAppend(name string, qubits []int, params []float64) {
	if err := c.Append(name, qubits, params); err != nil {
		panic(err)
	}
}

// Convenience builders for the common gates.

// H appends a Hadamard gate.
func (c *Circuit) H(q int) { c.MustAppend("h", []int{q}, nil) }

// X appends a Pauli-X gate.
func (c *Circuit) X(q int) { c.MustAppend("x", []int{q}, nil) }

// Y appends a Pauli-Y gate.
func (c *Circuit) Y(q int) { c.MustAppend("y", []int{q}, nil) }

// Z appends a Pauli-Z gate.
func (c *Circuit) Z(q int) { c.MustAppend("z", []int{q}, nil) }

// S appends an S gate.
func (c *Circuit) S(q int) { c.MustAppend("s", []int{q}, nil) }

// Sdg appends an S-dagger gate.
func (c *Circuit) Sdg(q int) { c.MustAppend("sdg", []int{q}, nil) }

// T appends a T gate.
func (c *Circuit) T(q int) { c.MustAppend("t", []int{q}, nil) }

// Tdg appends a T-dagger gate.
func (c *Circuit) Tdg(q int) { c.MustAppend("tdg", []int{q}, nil) }

// RX appends an X rotation.
func (c *Circuit) RX(q int, theta float64) { c.MustAppend("rx", []int{q}, []float64{theta}) }

// RY appends a Y rotation.
func (c *Circuit) RY(q int, theta float64) { c.MustAppend("ry", []int{q}, []float64{theta}) }

// RZ appends a Z rotation.
func (c *Circuit) RZ(q int, theta float64) { c.MustAppend("rz", []int{q}, []float64{theta}) }

// P appends a phase gate.
func (c *Circuit) P(q int, lambda float64) { c.MustAppend("p", []int{q}, []float64{lambda}) }

// U3 appends a generic one-qubit rotation.
func (c *Circuit) U3(q int, theta, phi, lambda float64) {
	c.MustAppend("u3", []int{q}, []float64{theta, phi, lambda})
}

// CX appends a CNOT with the given control and target.
func (c *Circuit) CX(control, target int) { c.MustAppend("cx", []int{control, target}, nil) }

// CZ appends a controlled-Z.
func (c *Circuit) CZ(a, b int) { c.MustAppend("cz", []int{a, b}, nil) }

// Swap appends a SWAP gate.
func (c *Circuit) Swap(a, b int) { c.MustAppend("swap", []int{a, b}, nil) }

// CCX appends a Toffoli gate.
func (c *Circuit) CCX(c1, c2, target int) { c.MustAppend("ccx", []int{c1, c2, target}, nil) }

// RZZ appends a ZZ interaction rotation.
func (c *Circuit) RZZ(a, b int, theta float64) { c.MustAppend("rzz", []int{a, b}, []float64{theta}) }

// RXX appends an XX interaction rotation.
func (c *Circuit) RXX(a, b int, theta float64) { c.MustAppend("rxx", []int{a, b}, []float64{theta}) }

// RYY appends a YY interaction rotation.
func (c *Circuit) RYY(a, b int, theta float64) { c.MustAppend("ryy", []int{a, b}, []float64{theta}) }

// CP appends a controlled-phase gate.
func (c *Circuit) CP(a, b int, lambda float64) { c.MustAppend("cp", []int{a, b}, []float64{lambda}) }

// CNOTCount returns the circuit's CNOT-equivalent two-qubit gate count,
// QUEST's primary cost metric (SWAP counts as 3, Toffoli as 6, ...).
func (c *Circuit) CNOTCount() int {
	var n int
	for _, o := range c.Ops {
		n += o.Spec().CNOTCost
	}
	return n
}

// Size returns the number of operations.
func (c *Circuit) Size() int { return len(c.Ops) }

// GateCounts returns a histogram of gate names.
func (c *Circuit) GateCounts() map[string]int {
	m := map[string]int{}
	for _, o := range c.Ops {
		m[o.Name]++
	}
	return m
}

// Depth returns the circuit depth: the longest chain of operations where
// consecutive operations share a qubit.
func (c *Circuit) Depth() int {
	level := make([]int, c.NumQubits)
	depth := 0
	for _, o := range c.Ops {
		mx := 0
		for _, q := range o.Qubits {
			if level[q] > mx {
				mx = level[q]
			}
		}
		mx++
		for _, q := range o.Qubits {
			level[q] = mx
		}
		if mx > depth {
			depth = mx
		}
	}
	return depth
}

// ActiveQubits returns the sorted set of qubits touched by any operation.
func (c *Circuit) ActiveQubits() []int {
	seen := make([]bool, c.NumQubits)
	for _, o := range c.Ops {
		for _, q := range o.Qubits {
			seen[q] = true
		}
	}
	var out []int
	for q, s := range seen {
		if s {
			out = append(out, q)
		}
	}
	return out
}

// Inverse returns the circuit implementing the inverse unitary: operations
// reversed, each replaced by its gate inverse.
func (c *Circuit) Inverse() *Circuit {
	out := New(c.NumQubits)
	for i := len(c.Ops) - 1; i >= 0; i-- {
		o := c.Ops[i]
		name, params := o.Spec().Inverse(o.Params)
		out.MustAppend(name, o.Qubits, params)
	}
	return out
}

// AppendCircuit appends all of other's operations, remapping other's qubit
// i to qubitMap[i]. A nil qubitMap is the identity mapping.
func (c *Circuit) AppendCircuit(other *Circuit, qubitMap []int) error {
	if qubitMap == nil {
		qubitMap = make([]int, other.NumQubits)
		for i := range qubitMap {
			qubitMap[i] = i
		}
	}
	if len(qubitMap) != other.NumQubits {
		return fmt.Errorf("circuit: qubit map length %d, want %d", len(qubitMap), other.NumQubits)
	}
	for _, o := range other.Ops {
		qs := make([]int, len(o.Qubits))
		for i, q := range o.Qubits {
			qs[i] = qubitMap[q]
		}
		if err := c.Append(o.Name, qs, o.Params); err != nil {
			return err
		}
	}
	return nil
}

// MustAppendCircuit is AppendCircuit that panics on error.
func (c *Circuit) MustAppendCircuit(other *Circuit, qubitMap []int) {
	if err := c.AppendCircuit(other, qubitMap); err != nil {
		panic(err)
	}
}

// Slice returns a new circuit containing ops [from, to).
func (c *Circuit) Slice(from, to int) *Circuit {
	out := New(c.NumQubits)
	for _, o := range c.Ops[from:to] {
		out.Ops = append(out.Ops, o.Clone())
	}
	return out
}

// String renders the circuit one op per line.
func (c *Circuit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "circuit(%d qubits, %d ops, %d CNOTs)\n", c.NumQubits, len(c.Ops), c.CNOTCount())
	for _, o := range c.Ops {
		b.WriteString("  ")
		b.WriteString(o.String())
		b.WriteByte('\n')
	}
	return b.String()
}
