package tablestore

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"azurebench/internal/storecommon"
)

// FilterExpr is a parsed OData-subset filter expression, the query
// language of the Table service ($filter). The supported grammar:
//
//	expr       := and-expr { "or" and-expr }
//	and-expr   := unary { "and" unary }
//	unary      := "not" unary | "(" expr ")" | comparison | bool-operand
//	comparison := operand ("eq"|"ne"|"gt"|"ge"|"lt"|"le") operand
//	operand    := Identifier | literal
//	literal    := 'string' | integer | integer"L" | float | "true" | "false"
//	            | datetime'RFC3339' | guid'...'
//
// Identifiers name entity properties; PartitionKey, RowKey and Timestamp
// resolve to the system properties. Comparing values of incompatible types
// yields false (and comparisons against missing properties yield false),
// mirroring the service's permissive matching.
type FilterExpr struct {
	root node
	src  string
}

// String returns the original filter text.
func (f *FilterExpr) String() string { return f.src }

// ParseFilter parses an OData-subset filter.
func ParseFilter(src string) (*FilterExpr, error) {
	toks, err := lexFilter(src)
	if err != nil {
		return nil, err
	}
	p := &filterParser{toks: toks, src: src}
	root, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, invalidQuery(src, "trailing input %q", p.peek().text)
	}
	return &FilterExpr{root: root, src: src}, nil
}

// Eval evaluates the filter against a row.
func (f *FilterExpr) Eval(r Row) (bool, error) {
	return f.root.eval(r)
}

// keyRange is a half-open interval [lo, hi) of keys; unbounded above
// until hi is set. The zero value holds every key.
type keyRange struct {
	lo, hi  string
	bounded bool
}

func (r *keyRange) atLeast(k string) {
	if k > r.lo {
		r.lo = k
	}
}

func (r *keyRange) below(k string) {
	if !r.bounded || k < r.hi {
		r.hi, r.bounded = k, true
	}
}

// past reports whether k, and so every key after it, lies above the range.
func (r keyRange) past(k string) bool { return r.bounded && k >= r.hi }

// narrow intersects the range with the keys satisfying "key op 'v'".
// Keys order bytewise, so v's successor is v+"\x00".
func (r *keyRange) narrow(op, v string) {
	switch op {
	case "eq":
		r.atLeast(v)
		r.below(v + "\x00")
	case "ge":
		r.atLeast(v)
	case "gt":
		r.atLeast(v + "\x00")
	case "le":
		r.below(v + "\x00")
	case "lt":
		r.below(v)
	}
}

// keyBounds compiles the filter's leading key comparisons into a range of
// partition keys and a range of row keys such that, on any entity outside
// either, Eval returns (false, nil). Query uses them to seek and to stop;
// it still puts every entity inside to the whole filter, so the ranges
// only have to be safe, not tight.
//
// "Returns (false, nil)" is the whole contract, and the nil matters: a
// filter's errors are part of its result, so a scan may skip an entity
// only if evaluating the filter on it could not have failed. Evaluation
// runs the conjuncts of the top-level "and" chain left to right and stops
// at the first false one. A key comparison therefore bounds the scan if
// every conjunct before it is unable to fail — "PartitionKey eq 'p' and
// Flag" is bounded by its first conjunct, "Flag and PartitionKey eq 'p'"
// is not. Nothing is inferred through "or" or "not", and only from
// "Key op 'string literal'": against any other literal type the
// comparison is false for every entity, which the full filter finds out
// for itself.
func (f *FilterExpr) keyBounds() (pks, rks keyRange) {
	boundKeys(f.root, &pks, &rks)
	return pks, rks
}

// boundKeys narrows the ranges by the conjuncts of n, in evaluation order,
// up to the first that can fail. It reports whether it got through all of
// n, that is, whether n cannot fail.
func boundKeys(n node, pks, rks *keyRange) bool {
	switch n := n.(type) {
	case *binaryNode:
		if n.op == "and" {
			return boundKeys(n.left, pks, rks) && boundKeys(n.right, pks, rks)
		}
	case *cmpNode:
		key, isKey := n.left.(identOperand)
		lit, isLit := n.right.(literalOperand)
		if isKey && isLit && lit.v.Type == TypeString {
			switch key.name {
			case "PartitionKey":
				pks.narrow(n.op, lit.v.S)
			case "RowKey":
				rks.narrow(n.op, lit.v.S)
			}
		}
	}
	return !canFail(n)
}

// canFail reports whether evaluating n can return an error: only a bare
// operand used as a boolean can (boolOperandNode, on a non-boolean value).
func canFail(n node) bool {
	switch n := n.(type) {
	case *binaryNode:
		return canFail(n.left) || canFail(n.right)
	case *notNode:
		return canFail(n.inner)
	case *boolOperandNode:
		return true
	}
	return false
}

// --- AST ---

type node interface {
	eval(r Row) (bool, error)
}

type binaryNode struct {
	op          string // "and" | "or"
	left, right node
}

func (n *binaryNode) eval(r Row) (bool, error) {
	l, err := n.left.eval(r)
	if err != nil {
		return false, err
	}
	if n.op == "and" && !l {
		return false, nil
	}
	if n.op == "or" && l {
		return true, nil
	}
	return n.right.eval(r)
}

type notNode struct{ inner node }

func (n *notNode) eval(r Row) (bool, error) {
	v, err := n.inner.eval(r)
	return !v, err
}

type cmpNode struct {
	op          string // eq ne gt ge lt le
	left, right operand
}

func (n *cmpNode) eval(r Row) (bool, error) {
	lv, lok := n.left.value(r)
	rv, rok := n.right.value(r)
	if !lok || !rok {
		return false, nil // missing property never matches
	}
	if n.op == "eq" || n.op == "ne" {
		eq := lv.Equal(rv)
		if n.op == "eq" {
			return eq, nil
		}
		return !eq, nil
	}
	cmp, ok := lv.compare(rv)
	if !ok {
		return false, nil // incomparable types never match an ordering
	}
	switch n.op {
	case "gt":
		return cmp > 0, nil
	case "ge":
		return cmp >= 0, nil
	case "lt":
		return cmp < 0, nil
	case "le":
		return cmp <= 0, nil
	}
	return false, invalidQuery(n.op, "unknown comparison operator")
}

// boolOperandNode lets a bare boolean property or literal act as an
// expression ("IsActive and Size gt 5").
type boolOperandNode struct{ op operand }

func (n *boolOperandNode) eval(r Row) (bool, error) {
	v, ok := n.op.value(r)
	if !ok {
		return false, nil
	}
	if v.Type != TypeBool {
		return false, invalidQuery("", "non-boolean operand used as an expression")
	}
	return v.B, nil
}

type operand interface {
	value(r Row) (Value, bool)
}

type identOperand struct{ name string }

func (o identOperand) value(r Row) (Value, bool) {
	switch o.name {
	case "PartitionKey":
		return String(r.PartitionKey()), true
	case "RowKey":
		return String(r.RowKey()), true
	case "Timestamp":
		return DateTime(r.Timestamp()), true
	}
	return r.Prop(o.name)
}

type literalOperand struct{ v Value }

func (o literalOperand) value(Row) (Value, bool) { return o.v, true }

// --- Lexer ---

type tokKind int

const (
	tokIdent tokKind = iota
	tokLiteral
	tokLParen
	tokRParen
	tokOp      // eq ne gt ge lt le
	tokLogical // and or not
)

type token struct {
	kind tokKind
	text string
	val  Value // tokLiteral
}

func lexFilter(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '(':
			toks = append(toks, token{kind: tokLParen, text: "("})
			i++
		case c == ')':
			toks = append(toks, token{kind: tokRParen, text: ")"})
			i++
		case c == '\'':
			s, next, err := lexString(src, i)
			if err != nil {
				return nil, err
			}
			toks = append(toks, token{kind: tokLiteral, text: s, val: String(s)})
			i = next
		case c == '-' || (c >= '0' && c <= '9'):
			tok, next, err := lexNumber(src, i)
			if err != nil {
				return nil, err
			}
			toks = append(toks, tok)
			i = next
		case isIdentStart(c):
			j := i + 1
			for j < len(src) && isIdentPart(src[j]) {
				j++
			}
			word := src[i:j]
			// Typed literals: datetime'...' and guid'...'.
			if (word == "datetime" || word == "guid") && j < len(src) && src[j] == '\'' {
				s, next, err := lexString(src, j)
				if err != nil {
					return nil, err
				}
				var v Value
				if word == "guid" {
					v = GUID(s)
				} else {
					t, err := parseDateTime(s)
					if err != nil {
						return nil, invalidQuery(src, "bad datetime literal %q", s)
					}
					v = DateTime(t)
				}
				toks = append(toks, token{kind: tokLiteral, text: s, val: v})
				i = next
				continue
			}
			switch word {
			case "eq", "ne", "gt", "ge", "lt", "le":
				toks = append(toks, token{kind: tokOp, text: word})
			case "and", "or", "not":
				toks = append(toks, token{kind: tokLogical, text: word})
			case "true":
				toks = append(toks, token{kind: tokLiteral, text: word, val: Bool(true)})
			case "false":
				toks = append(toks, token{kind: tokLiteral, text: word, val: Bool(false)})
			default:
				toks = append(toks, token{kind: tokIdent, text: word})
			}
			i = j
		default:
			return nil, invalidQuery(src, "unexpected character %q at offset %d", c, i)
		}
	}
	return toks, nil
}

func lexString(src string, start int) (string, int, error) {
	// src[start] == '\''. OData escapes a quote by doubling it.
	var b strings.Builder
	i := start + 1
	for i < len(src) {
		if src[i] == '\'' {
			if i+1 < len(src) && src[i+1] == '\'' {
				b.WriteByte('\'')
				i += 2
				continue
			}
			return b.String(), i + 1, nil
		}
		b.WriteByte(src[i])
		i++
	}
	return "", 0, invalidQuery(src, "unterminated string literal")
}

func lexNumber(src string, start int) (token, int, error) {
	j := start
	if src[j] == '-' {
		j++
	}
	isFloat := false
	for j < len(src) {
		c := src[j]
		if c >= '0' && c <= '9' {
			j++
			continue
		}
		if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') && isFloatContext(src, start, j) {
			isFloat = true
			j++
			continue
		}
		break
	}
	text := src[start:j]
	// Int64 literals carry an L suffix in OData.
	if j < len(src) && (src[j] == 'L' || src[j] == 'l') {
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return token{}, 0, invalidQuery(src, "bad int64 literal %q", text)
		}
		return token{kind: tokLiteral, text: text, val: Int64(n)}, j + 1, nil
	}
	if isFloat {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return token{}, 0, invalidQuery(src, "bad float literal %q", text)
		}
		return token{kind: tokLiteral, text: text, val: Double(f)}, j, nil
	}
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return token{}, 0, invalidQuery(src, "bad integer literal %q", text)
	}
	if n >= -1<<31 && n < 1<<31 {
		return token{kind: tokLiteral, text: text, val: Int32(int32(n))}, j, nil
	}
	return token{kind: tokLiteral, text: text, val: Int64(n)}, j, nil
}

// isFloatContext accepts '.', exponent markers and signs only inside a
// number body (crude but sufficient for the subset).
func isFloatContext(src string, start, j int) bool {
	c := src[j]
	if c == '.' {
		return true
	}
	if c == 'e' || c == 'E' {
		return j > start
	}
	// '+'/'-' only directly after an exponent marker.
	prev := src[j-1]
	return prev == 'e' || prev == 'E'
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}

func parseDateTime(s string) (time.Time, error) {
	for _, layout := range []string{time.RFC3339Nano, time.RFC3339, "2006-01-02T15:04:05", "2006-01-02"} {
		if t, err := time.Parse(layout, s); err == nil {
			return t, nil
		}
	}
	return time.Time{}, fmt.Errorf("unparseable datetime %q", s)
}

// --- Parser ---

type filterParser struct {
	toks []token
	pos  int
	src  string
}

func (p *filterParser) eof() bool { return p.pos >= len(p.toks) }

func (p *filterParser) peek() token { return p.toks[p.pos] }

func (p *filterParser) next() token {
	t := p.toks[p.pos]
	p.pos++
	return t
}

func (p *filterParser) parseOr() (node, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for !p.eof() && p.peek().kind == tokLogical && p.peek().text == "or" {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &binaryNode{op: "or", left: left, right: right}
	}
	return left, nil
}

func (p *filterParser) parseAnd() (node, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for !p.eof() && p.peek().kind == tokLogical && p.peek().text == "and" {
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &binaryNode{op: "and", left: left, right: right}
	}
	return left, nil
}

func (p *filterParser) parseUnary() (node, error) {
	if p.eof() {
		return nil, invalidQuery(p.src, "unexpected end of filter")
	}
	t := p.peek()
	if t.kind == tokLogical && t.text == "not" {
		p.next()
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &notNode{inner: inner}, nil
	}
	if t.kind == tokLParen {
		p.next()
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.eof() || p.peek().kind != tokRParen {
			return nil, invalidQuery(p.src, "missing closing parenthesis")
		}
		p.next()
		return inner, nil
	}
	return p.parseComparison()
}

func (p *filterParser) parseComparison() (node, error) {
	left, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	if p.eof() || p.peek().kind != tokOp {
		// Bare boolean operand.
		return &boolOperandNode{op: left}, nil
	}
	op := p.next().text
	right, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	return &cmpNode{op: op, left: left, right: right}, nil
}

func (p *filterParser) parseOperand() (operand, error) {
	if p.eof() {
		return nil, invalidQuery(p.src, "expected operand, got end of filter")
	}
	t := p.next()
	switch t.kind {
	case tokIdent:
		return identOperand{name: t.text}, nil
	case tokLiteral:
		return literalOperand{v: t.val}, nil
	}
	return nil, invalidQuery(p.src, "expected operand, got %q", t.text)
}

func invalidQuery(src, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if src != "" {
		msg = fmt.Sprintf("%s (in filter %q)", msg, src)
	}
	return storecommon.Errf(storecommon.CodeInvalidQuery, 400, "%s", msg)
}
