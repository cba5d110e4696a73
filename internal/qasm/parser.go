package qasm

import (
	"fmt"
	"strconv"

	"repro/internal/circuit"
	"repro/internal/gate"
)

// gateAliases maps QASM gate names to the registry names used by the
// circuit IR where they differ.
var gateAliases = map[string]string{
	"u":    "u3",
	"u1":   "p",
	"cu1":  "cp",
	"cnot": "cx",
}

// Parse reads an OpenQASM 2.0 program and returns the equivalent circuit.
// All quantum registers are concatenated, in declaration order, into one
// contiguous qubit index space. Measure and barrier statements are
// accepted and dropped (the simulator measures the full final state).
// User gate definitions ("gate name(params) qubits { ... }") are expanded
// inline at every application site.
func Parse(src string) (*circuit.Circuit, error) {
	toks, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.parseProgram()
}

type register struct {
	name   string
	size   int
	offset int
}

// macroOp is one statement in a gate-definition body.
type macroOp struct {
	name     string
	params   []expr
	operands []string
	line     int
}

// macro is a user-defined gate.
type macro struct {
	name   string
	params []string
	qubits []string
	body   []macroOp
}

type parser struct {
	toks   []token
	pos    int
	regs   map[string]register
	macros map[string]*macro
	next   int // next free qubit offset
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errorf(t token, format string, args ...any) error {
	return fmt.Errorf("qasm: line %d: %s", t.line, fmt.Sprintf(format, args...))
}

func (p *parser) expectSymbol(s string) error {
	t := p.advance()
	if t.kind != tokSymbol || t.text != s {
		return p.errorf(t, "expected %q, got %q", s, t.text)
	}
	return nil
}

func (p *parser) expectIdent() (token, error) {
	t := p.advance()
	if t.kind != tokIdent {
		return t, p.errorf(t, "expected identifier, got %q", t.text)
	}
	return t, nil
}

func (p *parser) parseProgram() (*circuit.Circuit, error) {
	p.regs = map[string]register{}
	p.macros = map[string]*macro{}

	// Optional "OPENQASM 2.0;" header.
	if t := p.peek(); t.kind == tokIdent && t.text == "OPENQASM" {
		p.advance()
		if v := p.advance(); v.kind != tokNumber {
			return nil, p.errorf(v, "expected version number")
		}
		if err := p.expectSymbol(";"); err != nil {
			return nil, err
		}
	}

	var stmts []func(*circuit.Circuit) error
	for {
		t := p.peek()
		if t.kind == tokEOF {
			break
		}
		if t.kind != tokIdent {
			return nil, p.errorf(t, "expected statement, got %q", t.text)
		}
		switch t.text {
		case "include":
			p.advance()
			if f := p.advance(); f.kind != tokString {
				return nil, p.errorf(f, "expected include filename string")
			}
			if err := p.expectSymbol(";"); err != nil {
				return nil, err
			}
		case "qreg":
			if err := p.parseQreg(); err != nil {
				return nil, err
			}
		case "creg":
			// Parse and ignore.
			p.advance()
			if _, err := p.expectIdent(); err != nil {
				return nil, err
			}
			if _, err := p.parseIndex(); err != nil {
				return nil, err
			}
			if err := p.expectSymbol(";"); err != nil {
				return nil, err
			}
		case "barrier":
			p.advance()
			if err := p.skipToSemicolon(); err != nil {
				return nil, err
			}
		case "measure":
			p.advance()
			if err := p.skipToSemicolon(); err != nil {
				return nil, err
			}
		case "gate":
			if err := p.parseGateDef(); err != nil {
				return nil, err
			}
		case "opaque", "if", "reset":
			return nil, p.errorf(t, "unsupported statement %q", t.text)
		default:
			stmt, err := p.parseGateApplication()
			if err != nil {
				return nil, err
			}
			stmts = append(stmts, stmt)
		}
	}

	c := circuit.New(p.next)
	for _, s := range stmts {
		if err := s(c); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (p *parser) skipToSemicolon() error {
	for {
		t := p.advance()
		if t.kind == tokEOF {
			return p.errorf(t, "unexpected EOF, expected ';'")
		}
		if t.kind == tokSymbol && t.text == ";" {
			return nil
		}
	}
}

func (p *parser) parseQreg() error {
	p.advance() // qreg
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	size, err := p.parseIndex()
	if err != nil {
		return err
	}
	if err := p.expectSymbol(";"); err != nil {
		return err
	}
	if _, dup := p.regs[name.text]; dup {
		return p.errorf(name, "duplicate register %q", name.text)
	}
	if size > circuit.MaxQubits || p.next+size > circuit.MaxQubits {
		return p.errorf(name, "register %q brings the program to %d qubits, limit is %d", name.text, p.next+size, circuit.MaxQubits)
	}
	p.regs[name.text] = register{name: name.text, size: size, offset: p.next}
	p.next += size
	return nil
}

// parseIndex reads "[n]" and returns n.
func (p *parser) parseIndex() (int, error) {
	if err := p.expectSymbol("["); err != nil {
		return 0, err
	}
	t := p.advance()
	if t.kind != tokNumber {
		return 0, p.errorf(t, "expected integer index, got %q", t.text)
	}
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, p.errorf(t, "bad index %q", t.text)
	}
	if err := p.expectSymbol("]"); err != nil {
		return 0, err
	}
	return n, nil
}

// parseGateDef parses "gate name(p1,p2) q1,q2 { body }".
func (p *parser) parseGateDef() error {
	p.advance() // gate
	nameTok, err := p.expectIdent()
	if err != nil {
		return err
	}
	m := &macro{name: nameTok.text}
	if _, dup := p.macros[m.name]; dup {
		return p.errorf(nameTok, "duplicate gate definition %q", m.name)
	}

	if t := p.peek(); t.kind == tokSymbol && t.text == "(" {
		p.advance()
		if t := p.peek(); !(t.kind == tokSymbol && t.text == ")") {
			for {
				id, err := p.expectIdent()
				if err != nil {
					return err
				}
				m.params = append(m.params, id.text)
				t := p.advance()
				if t.kind == tokSymbol && t.text == ")" {
					break
				}
				if t.kind != tokSymbol || t.text != "," {
					return p.errorf(t, "expected ',' or ')' in gate parameter list")
				}
			}
		} else {
			p.advance() // consume ")"
		}
	}

	for {
		id, err := p.expectIdent()
		if err != nil {
			return err
		}
		m.qubits = append(m.qubits, id.text)
		t := p.peek()
		if t.kind == tokSymbol && t.text == "," {
			p.advance()
			continue
		}
		break
	}
	if err := p.expectSymbol("{"); err != nil {
		return err
	}

	paramSet := map[string]bool{}
	for _, name := range m.params {
		paramSet[name] = true
	}
	qubitSet := map[string]bool{}
	for _, name := range m.qubits {
		qubitSet[name] = true
	}

	for {
		t := p.peek()
		if t.kind == tokSymbol && t.text == "}" {
			p.advance()
			break
		}
		if t.kind == tokEOF {
			return p.errorf(t, "unexpected EOF in gate body")
		}
		if t.kind != tokIdent {
			return p.errorf(t, "expected gate application in gate body, got %q", t.text)
		}
		if t.text == "barrier" {
			p.advance()
			if err := p.skipToSemicolon(); err != nil {
				return err
			}
			continue
		}
		op, err := p.parseMacroOp(paramSet, qubitSet)
		if err != nil {
			return err
		}
		m.body = append(m.body, op)
	}
	p.macros[m.name] = m
	return nil
}

// parseMacroOp parses one gate application inside a macro body, where
// operands are bare formal qubit names.
func (p *parser) parseMacroOp(params, qubits map[string]bool) (macroOp, error) {
	nameTok, err := p.expectIdent()
	if err != nil {
		return macroOp{}, err
	}
	op := macroOp{name: nameTok.text, line: nameTok.line}
	if t := p.peek(); t.kind == tokSymbol && t.text == "(" {
		p.advance()
		for {
			e, err := p.parseExpr(params)
			if err != nil {
				return macroOp{}, err
			}
			op.params = append(op.params, e)
			t := p.advance()
			if t.kind == tokSymbol && t.text == ")" {
				break
			}
			if t.kind != tokSymbol || t.text != "," {
				return macroOp{}, p.errorf(t, "expected ',' or ')' in parameter list")
			}
		}
	}
	for {
		id, err := p.expectIdent()
		if err != nil {
			return macroOp{}, err
		}
		if !qubits[id.text] {
			return macroOp{}, p.errorf(id, "unknown qubit %q in gate body", id.text)
		}
		op.operands = append(op.operands, id.text)
		t := p.advance()
		if t.kind == tokSymbol && t.text == ";" {
			return op, nil
		}
		if t.kind != tokSymbol || t.text != "," {
			return macroOp{}, p.errorf(t, "expected ',' or ';' after operand")
		}
	}
}

// resolve maps a QASM gate name to either a registered gate spec or a
// macro.
func (p *parser) resolve(name string) (*gate.Spec, *macro, error) {
	if m, ok := p.macros[name]; ok {
		return nil, m, nil
	}
	resolved := name
	if alias, ok := gateAliases[name]; ok {
		resolved = alias
	}
	spec, err := gate.Lookup(resolved)
	if err != nil {
		return nil, nil, err
	}
	return spec, nil, nil
}

// expand emits one gate (builtin or macro, recursively) onto the circuit.
func (p *parser) expand(c *circuit.Circuit, name string, params []float64, qubits []int, depth, line int) error {
	if depth > 64 {
		return fmt.Errorf("qasm: line %d: gate expansion too deep (recursive definition?)", line)
	}
	spec, m, err := p.resolve(name)
	if err != nil {
		return fmt.Errorf("qasm: line %d: %w", line, err)
	}
	if spec != nil {
		resolved := name
		if alias, ok := gateAliases[name]; ok {
			resolved = alias
		}
		if err := c.Append(resolved, qubits, params); err != nil {
			return fmt.Errorf("qasm: line %d: %w", line, err)
		}
		return nil
	}
	if len(params) != len(m.params) {
		return fmt.Errorf("qasm: line %d: gate %s expects %d params, got %d", line, name, len(m.params), len(params))
	}
	if len(qubits) != len(m.qubits) {
		return fmt.Errorf("qasm: line %d: gate %s expects %d qubits, got %d", line, name, len(m.qubits), len(qubits))
	}
	env := map[string]float64{}
	for i, pn := range m.params {
		env[pn] = params[i]
	}
	qmap := map[string]int{}
	for i, qn := range m.qubits {
		qmap[qn] = qubits[i]
	}
	for _, op := range m.body {
		vals, err := evalExprs(op.params, env)
		if err != nil {
			return fmt.Errorf("qasm: line %d: %w", op.line, err)
		}
		qs := make([]int, len(op.operands))
		for i, qn := range op.operands {
			qs[i] = qmap[qn]
		}
		if err := p.expand(c, op.name, vals, qs, depth+1, op.line); err != nil {
			return err
		}
	}
	return nil
}

// operand is either one qubit or a whole register (for broadcast).
type operand struct {
	reg   register
	index int // -1 for whole register
}

func (p *parser) parseGateApplication() (func(*circuit.Circuit) error, error) {
	nameTok, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	name := nameTok.text
	spec, m, err := p.resolve(name)
	if err != nil {
		return nil, p.errorf(nameTok, "unknown gate %q", name)
	}
	wantParams := len(gateParams(spec, m))
	wantQubits := len(gateQubits(spec, m))

	var params []float64
	if t := p.peek(); t.kind == tokSymbol && t.text == "(" {
		p.advance()
		for {
			e, err := p.parseExpr(nil)
			if err != nil {
				return nil, err
			}
			v, err := e.eval(nil)
			if err != nil {
				return nil, p.errorf(nameTok, "%v", err)
			}
			params = append(params, v)
			t := p.advance()
			if t.kind == tokSymbol && t.text == ")" {
				break
			}
			if t.kind != tokSymbol || t.text != "," {
				return nil, p.errorf(t, "expected ',' or ')' in parameter list")
			}
		}
	}
	if len(params) != wantParams {
		return nil, p.errorf(nameTok, "gate %s expects %d params, got %d", name, wantParams, len(params))
	}

	var operands []operand
	for {
		regTok, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		reg, ok := p.regs[regTok.text]
		if !ok {
			return nil, p.errorf(regTok, "unknown register %q", regTok.text)
		}
		idx := -1
		if t := p.peek(); t.kind == tokSymbol && t.text == "[" {
			idx, err = p.parseIndex()
			if err != nil {
				return nil, err
			}
			if idx < 0 || idx >= reg.size {
				return nil, p.errorf(regTok, "index %d out of range for %s[%d]", idx, reg.name, reg.size)
			}
		}
		operands = append(operands, operand{reg: reg, index: idx})
		t := p.advance()
		if t.kind == tokSymbol && t.text == ";" {
			break
		}
		if t.kind != tokSymbol || t.text != "," {
			return nil, p.errorf(t, "expected ',' or ';' after operand")
		}
	}
	if len(operands) != wantQubits {
		return nil, p.errorf(nameTok, "gate %s expects %d qubits, got %d", name, wantQubits, len(operands))
	}

	line := nameTok.line
	return func(c *circuit.Circuit) error {
		// Broadcast: if any operand is a whole register, apply the gate
		// per element (all whole-register operands must agree in size).
		bcast := 0
		for _, o := range operands {
			if o.index == -1 {
				if bcast != 0 && o.reg.size != bcast {
					return fmt.Errorf("qasm: line %d: broadcast size mismatch", line)
				}
				bcast = o.reg.size
			}
		}
		reps := 1
		if bcast > 0 {
			reps = bcast
		}
		for r := 0; r < reps; r++ {
			qs := make([]int, len(operands))
			for i, o := range operands {
				if o.index == -1 {
					qs[i] = o.reg.offset + r
				} else {
					qs[i] = o.reg.offset + o.index
				}
			}
			if err := p.expand(c, name, params, qs, 0, line); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

func gateParams(spec *gate.Spec, m *macro) []struct{} {
	if spec != nil {
		return make([]struct{}, spec.Params)
	}
	return make([]struct{}, len(m.params))
}

func gateQubits(spec *gate.Spec, m *macro) []struct{} {
	if spec != nil {
		return make([]struct{}, spec.Qubits)
	}
	return make([]struct{}, len(m.qubits))
}
