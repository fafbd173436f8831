// Package rsl implements the Globus Resource Specification Language (RSL)
// used by GARA as its reservation-request format (paper §3.1: "resource
// specifications are described in Globus Resource Specification Language
// (RSL) and used as the input parameters for reservation purposes").
//
// The grammar implemented here is the classic RSL 1.0 attribute-relation
// form:
//
//	spec       = conjunction | disjunction | multirequest | relation
//	conjunction  = "&" spec-list
//	disjunction  = "|" spec-list
//	multirequest = "+" spec-list
//	spec-list    = "(" spec ")" { "(" spec ")" }
//	relation     = attribute op value
//	op           = "=" | "!=" | ">" | ">=" | "<" | "<="
//	value        = quoted string | bare word | number
//
// e.g. `&(count=10)(memory>=2048)(disk=15)(label="sla-3")`.
package rsl

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Op is a relational operator in an RSL relation.
type Op int

// Relational operators, in RSL surface syntax order.
const (
	OpEq Op = iota + 1 // =
	OpNe               // !=
	OpGt               // >
	OpGe               // >=
	OpLt               // <
	OpLe               // <=
)

// String returns the RSL surface syntax of the operator.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// NodeKind discriminates the Node variants.
type NodeKind int

// Node kinds.
const (
	KindRelation NodeKind = iota + 1
	KindConjunction
	KindDisjunction
	KindMultiRequest
)

// Node is a parsed RSL expression tree.
type Node struct {
	Kind NodeKind

	// Relation fields (Kind == KindRelation).
	Attribute string
	Op        Op
	Value     Value

	// Children (boolean kinds).
	Children []*Node
}

// Value is an RSL literal: either a number or a string.
type Value struct {
	Raw      string  // surface text (unquoted)
	Num      float64 // parsed number when IsNum
	IsNum    bool
	WasQuote bool // value appeared in double quotes
}

// String renders the value in RSL surface syntax.
func (v Value) String() string {
	if v.WasQuote {
		return string(AppendQuoted(make([]byte, 0, len(v.Raw)+2), v.Raw))
	}
	return v.Raw
}

// AppendQuoted appends s to dst as an RSL quoted string and returns the
// extended buffer. RSL has no backslash escapes: a quote inside the value
// is doubled, and every other byte is copied as is, so the parser reads
// back exactly s.
func AppendQuoted(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			dst = append(dst, '"')
		}
		dst = append(dst, s[i])
	}
	return append(dst, '"')
}

// ParseError describes a syntax error with its byte offset in the input.
type ParseError struct {
	Offset int
	Msg    string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("rsl: parse error at offset %d: %s", e.Offset, e.Msg)
}

// ErrEmpty is returned when the input contains no specification.
var ErrEmpty = errors.New("rsl: empty specification")

// Parse parses an RSL specification.
func Parse(input string) (*Node, error) {
	p := &parser{src: input}
	p.skipSpace()
	if p.eof() {
		return nil, ErrEmpty
	}
	n, err := p.parseSpec()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if !p.eof() {
		return nil, &ParseError{Offset: p.pos, Msg: "trailing input"}
	}
	return n, nil
}

type parser struct {
	src string
	pos int
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) skipSpace() {
	for !p.eof() {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *parser) parseSpec() (*Node, error) {
	p.skipSpace()
	switch p.peek() {
	case '&':
		p.pos++
		return p.parseList(KindConjunction)
	case '|':
		p.pos++
		return p.parseList(KindDisjunction)
	case '+':
		p.pos++
		return p.parseList(KindMultiRequest)
	default:
		return p.parseRelation()
	}
}

func (p *parser) parseList(kind NodeKind) (*Node, error) {
	n := &Node{Kind: kind}
	p.skipSpace()
	if p.peek() != '(' {
		return nil, &ParseError{Offset: p.pos, Msg: "expected '(' after boolean operator"}
	}
	for {
		p.skipSpace()
		if p.peek() != '(' {
			break
		}
		p.pos++ // consume '('
		child, err := p.parseSpec()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.peek() != ')' {
			return nil, &ParseError{Offset: p.pos, Msg: "expected ')'"}
		}
		p.pos++
		n.Children = append(n.Children, child)
	}
	if len(n.Children) == 0 {
		return nil, &ParseError{Offset: p.pos, Msg: "boolean operator with no clauses"}
	}
	return n, nil
}

func (p *parser) parseRelation() (*Node, error) {
	p.skipSpace()
	start := p.pos
	attr := p.scanWord()
	if attr == "" {
		return nil, &ParseError{Offset: start, Msg: "expected attribute name"}
	}
	p.skipSpace()
	op, err := p.scanOp()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	val, err := p.scanValue()
	if err != nil {
		return nil, err
	}
	return &Node{Kind: KindRelation, Attribute: attr, Op: op, Value: val}, nil
}

func (p *parser) scanWord() string {
	start := p.pos
	for !p.eof() {
		c := p.src[p.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' ||
			c == '(' || c == ')' || c == '=' || c == '!' || c == '<' || c == '>' || c == '"' {
			break
		}
		p.pos++
	}
	return p.src[start:p.pos]
}

func (p *parser) scanOp() (Op, error) {
	if p.eof() {
		return 0, &ParseError{Offset: p.pos, Msg: "expected operator"}
	}
	two := ""
	if p.pos+1 < len(p.src) {
		two = p.src[p.pos : p.pos+2]
	}
	switch two {
	case "!=":
		p.pos += 2
		return OpNe, nil
	case ">=":
		p.pos += 2
		return OpGe, nil
	case "<=":
		p.pos += 2
		return OpLe, nil
	}
	switch p.src[p.pos] {
	case '=':
		p.pos++
		return OpEq, nil
	case '>':
		p.pos++
		return OpGt, nil
	case '<':
		p.pos++
		return OpLt, nil
	}
	return 0, &ParseError{Offset: p.pos, Msg: fmt.Sprintf("expected operator, found %q", p.src[p.pos])}
}

func (p *parser) scanValue() (Value, error) {
	if p.eof() {
		return Value{}, &ParseError{Offset: p.pos, Msg: "expected value"}
	}
	if p.src[p.pos] == '"' {
		p.pos++
		// A value with no "" escape is the input between its quotes: slice
		// it instead of copying it byte by byte.
		if i := strings.IndexByte(p.src[p.pos:], '"'); i >= 0 {
			end := p.pos + i
			if end+1 == len(p.src) || p.src[end+1] != '"' {
				raw := p.src[p.pos:end]
				p.pos = end + 1
				return Value{Raw: raw, WasQuote: true}, nil
			}
		}
		var sb strings.Builder
		for {
			if p.eof() {
				return Value{}, &ParseError{Offset: p.pos, Msg: "unterminated string"}
			}
			c := p.src[p.pos]
			if c == '"' {
				// "" is an escaped quote.
				if p.pos+1 < len(p.src) && p.src[p.pos+1] == '"' {
					sb.WriteByte('"')
					p.pos += 2
					continue
				}
				p.pos++
				return Value{Raw: sb.String(), WasQuote: true}, nil
			}
			sb.WriteByte(c)
			p.pos++
		}
	}
	word := p.scanWord()
	if word == "" {
		return Value{}, &ParseError{Offset: p.pos, Msg: "expected value"}
	}
	// Only finite parses count as numbers. ParseFloat accepts "inf",
	// "nan" and overflows like "1e999" (returning ±Inf with ErrRange);
	// letting those through as numeric poisons every evaluator
	// comparison and any capacity math reading the value via Num().
	if f, err := strconv.ParseFloat(word, 64); err == nil && !math.IsInf(f, 0) && !math.IsNaN(f) {
		return Value{Raw: word, Num: f, IsNum: true}, nil
	}
	return Value{Raw: word}, nil
}

// String renders the node back to canonical RSL surface syntax. Parsing the
// result yields a tree equal to n.
func (n *Node) String() string {
	var sb strings.Builder
	n.write(&sb)
	return sb.String()
}

func (n *Node) write(sb *strings.Builder) {
	switch n.Kind {
	case KindRelation:
		sb.WriteString(n.Attribute)
		sb.WriteString(n.Op.String())
		sb.WriteString(n.Value.String())
	case KindConjunction, KindDisjunction, KindMultiRequest:
		switch n.Kind {
		case KindConjunction:
			sb.WriteByte('&')
		case KindDisjunction:
			sb.WriteByte('|')
		case KindMultiRequest:
			sb.WriteByte('+')
		}
		for _, c := range n.Children {
			sb.WriteByte('(')
			c.write(sb)
			sb.WriteByte(')')
		}
	}
}

// Bindings maps attribute names to offered values for evaluation.
type Bindings map[string]Value

// Eval reports whether the offer described by b satisfies the
// specification n. Relations over attributes absent from b are false.
// Multirequests evaluate like conjunctions (every sub-request must be
// satisfiable by the single offer); callers that dispatch sub-requests to
// different managers should use SubRequests instead.
func (n *Node) Eval(b Bindings) bool {
	switch n.Kind {
	case KindRelation:
		v, ok := b[n.Attribute]
		if !ok {
			return false
		}
		return evalRelation(n.Op, v, n.Value)
	case KindConjunction, KindMultiRequest:
		for _, c := range n.Children {
			if !c.Eval(b) {
				return false
			}
		}
		return true
	case KindDisjunction:
		for _, c := range n.Children {
			if c.Eval(b) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

func evalRelation(op Op, have, want Value) bool {
	if have.IsNum && want.IsNum {
		switch op {
		case OpEq:
			return have.Num == want.Num
		case OpNe:
			return have.Num != want.Num
		case OpGt:
			return have.Num > want.Num
		case OpGe:
			return have.Num >= want.Num
		case OpLt:
			return have.Num < want.Num
		case OpLe:
			return have.Num <= want.Num
		}
		return false
	}
	switch op {
	case OpEq:
		return have.Raw == want.Raw
	case OpNe:
		return have.Raw != want.Raw
	case OpGt:
		return have.Raw > want.Raw
	case OpGe:
		return have.Raw >= want.Raw
	case OpLt:
		return have.Raw < want.Raw
	case OpLe:
		return have.Raw <= want.Raw
	}
	return false
}

// SubRequests splits a multirequest into its component specifications; for
// any other node it returns the node itself as the single element.
func (n *Node) SubRequests() []*Node {
	if n.Kind == KindMultiRequest {
		return append([]*Node(nil), n.Children...)
	}
	return []*Node{n}
}

// Lookup returns the value of the first `attr = value` relation found in a
// pre-order walk of conjunctions (the common way GARA specs carry scalar
// parameters), and whether one was found.
func (n *Node) Lookup(attr string) (Value, bool) {
	var (
		found Value
		ok    bool
	)
	n.walk(func(r *Node) {
		if !ok && r.Kind == KindRelation && r.Attribute == attr && r.Op == OpEq {
			found, ok = r.Value, true
		}
	})
	return found, ok
}

// Num returns the numeric value of the first `attr = n` relation, or def
// when absent or non-numeric.
func (n *Node) Num(attr string, def float64) float64 {
	if v, ok := n.Lookup(attr); ok && v.IsNum {
		return v.Num
	}
	return def
}

// Str returns the string value of the first `attr = s` relation, or def
// when absent.
func (n *Node) Str(attr, def string) string {
	if v, ok := n.Lookup(attr); ok {
		return v.Raw
	}
	return def
}

func (n *Node) walk(f func(*Node)) {
	f(n)
	for _, c := range n.Children {
		c.walk(f)
	}
}
