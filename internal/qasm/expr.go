package qasm

import (
	"fmt"
	"math"
	"strconv"
)

// expr is a parameter expression AST node. Top-level gate applications
// evaluate with a nil environment; gate-macro bodies evaluate with the
// macro's formal parameters bound.
type expr interface {
	eval(env map[string]float64) (float64, error)
}

type numLit float64

func (n numLit) eval(map[string]float64) (float64, error) { return float64(n), nil }

type piLit struct{}

func (piLit) eval(map[string]float64) (float64, error) { return math.Pi, nil }

type paramRef string

func (r paramRef) eval(env map[string]float64) (float64, error) {
	if v, ok := env[string(r)]; ok {
		return v, nil
	}
	return 0, fmt.Errorf("qasm: unbound parameter %q", string(r))
}

type unaryExpr struct {
	neg bool
	x   expr
}

func (u unaryExpr) eval(env map[string]float64) (float64, error) {
	v, err := u.x.eval(env)
	if err != nil {
		return 0, err
	}
	if u.neg {
		return -v, nil
	}
	return v, nil
}

type binaryExpr struct {
	op   byte // + - * / ^
	l, r expr
}

func (b binaryExpr) eval(env map[string]float64) (float64, error) {
	l, err := b.l.eval(env)
	if err != nil {
		return 0, err
	}
	r, err := b.r.eval(env)
	if err != nil {
		return 0, err
	}
	switch b.op {
	case '+':
		return l + r, nil
	case '-':
		return l - r, nil
	case '*':
		return l * r, nil
	case '/':
		if r == 0 {
			return 0, fmt.Errorf("qasm: division by zero")
		}
		return l / r, nil
	case '^':
		return math.Pow(l, r), nil
	}
	return 0, fmt.Errorf("qasm: unknown operator %q", string(b.op))
}

type callExpr struct {
	name string
	fn   func(float64) float64
	arg  expr
}

func (c callExpr) eval(env map[string]float64) (float64, error) {
	v, err := c.arg.eval(env)
	if err != nil {
		return 0, err
	}
	return c.fn(v), nil
}

// Expression grammar: expr := term (('+'|'-') term)* ;
// term := factor (('*'|'/') factor)* ; factor := ('-'|'+') factor | primary
// primary := number | pi | param | fn '(' expr ')' | '(' expr ')'.
// params lists the identifiers allowed as parameter references (macro
// formals); outside macros it is nil and bare identifiers are errors.
func (p *parser) parseExpr(params map[string]bool) (expr, error) {
	v, err := p.parseTerm(params)
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "+" || t.text == "-") {
			p.advance()
			w, err := p.parseTerm(params)
			if err != nil {
				return nil, err
			}
			v = binaryExpr{op: t.text[0], l: v, r: w}
			continue
		}
		return v, nil
	}
}

func (p *parser) parseTerm(params map[string]bool) (expr, error) {
	v, err := p.parseFactor(params)
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "*" || t.text == "/" || t.text == "^") {
			p.advance()
			w, err := p.parseFactor(params)
			if err != nil {
				return nil, err
			}
			v = binaryExpr{op: t.text[0], l: v, r: w}
			continue
		}
		return v, nil
	}
}

func (p *parser) parseFactor(params map[string]bool) (expr, error) {
	t := p.peek()
	if t.kind == tokSymbol && (t.text == "-" || t.text == "+") {
		p.advance()
		v, err := p.parseFactor(params)
		if err != nil {
			return nil, err
		}
		return unaryExpr{neg: t.text == "-", x: v}, nil
	}
	return p.parsePrimary(params)
}

var mathFuncs = map[string]func(float64) float64{
	"sin":  math.Sin,
	"cos":  math.Cos,
	"tan":  math.Tan,
	"exp":  math.Exp,
	"ln":   math.Log,
	"sqrt": math.Sqrt,
}

func (p *parser) parsePrimary(params map[string]bool) (expr, error) {
	t := p.advance()
	switch {
	case t.kind == tokNumber:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errorf(t, "bad number %q", t.text)
		}
		return numLit(v), nil
	case t.kind == tokIdent && t.text == "pi":
		return piLit{}, nil
	case t.kind == tokIdent:
		if fn, ok := mathFuncs[t.text]; ok {
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			v, err := p.parseExpr(params)
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return callExpr{name: t.text, fn: fn, arg: v}, nil
		}
		if params != nil && params[t.text] {
			return paramRef(t.text), nil
		}
		return nil, p.errorf(t, "unknown identifier %q in expression", t.text)
	case t.kind == tokSymbol && t.text == "(":
		v, err := p.parseExpr(params)
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return v, nil
	}
	return nil, p.errorf(t, "unexpected token %q in expression", t.text)
}

// evalExprs evaluates a slice of expressions with the given environment.
func evalExprs(exprs []expr, env map[string]float64) ([]float64, error) {
	if len(exprs) == 0 {
		return nil, nil
	}
	out := make([]float64, len(exprs))
	for i, e := range exprs {
		v, err := e.eval(env)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
