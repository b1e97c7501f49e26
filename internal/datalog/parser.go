package datalog

import (
	"fmt"
	"strings"
)

// Parser turns LBTrust surface syntax into a Program. Rule bodies and
// constraint sides may use arbitrary nesting of conjunction (,),
// disjunction (;), and negation (!); the parser normalizes them to
// disjunctive normal form and splits alternatives into separate rules, as
// Section 2.1 of the paper prescribes.
type parser struct {
	toks    []token
	pos     int
	inQuote bool
	blankN  int
}

// ParseProgram parses a full program: a sequence of labeled or unlabeled
// rules, facts, and constraints.
func ParseProgram(src string) (*Program, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := &Program{}
	for p.peek().kind != tokEOF {
		if err := p.statement(prog); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// MustParseProgram parses a program and panics on error. It is intended for
// the library's own embedded rule sets, which are compile-time constants.
func MustParseProgram(src string) *Program {
	prog, err := ParseProgram(src)
	if err != nil {
		panic("datalog: embedded program: " + err.Error())
	}
	return prog
}

// ParseClause parses a single rule or fact (no constraints).
func ParseClause(src string) (*Rule, error) {
	prog, err := ParseProgram(src)
	if err != nil {
		return nil, err
	}
	if len(prog.Constraints) != 0 || len(prog.Rules) != 1 {
		return nil, fmt.Errorf("datalog: expected exactly one clause in %q", src)
	}
	return prog.Rules[0], nil
}

// EnsureDot trims surrounding white space from a single clause's source
// and appends the clause terminator if it lacks one, so callers taking
// one fact or rule from a user or the wire accept it with or without
// the final dot.
func EnsureDot(src string) string {
	s := strings.TrimSpace(src)
	if !strings.HasSuffix(s, ".") {
		s += "."
	}
	return s
}

// MustParseClause parses a single clause and panics on error.
func MustParseClause(src string) *Rule {
	r, err := ParseClause(src)
	if err != nil {
		panic("datalog: embedded clause: " + err.Error())
	}
	return r
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) peekAt(k int) token {
	if p.pos+k >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+k]
}
func (p *parser) advance() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) expect(k tokKind) (token, error) {
	t := p.peek()
	if t.kind != k {
		return t, p.errf("expected %v, found %v", k, t.kind)
	}
	return p.advance(), nil
}

func (p *parser) errf(format string, args ...any) error {
	t := p.peek()
	return &SyntaxError{Pos: Pos{Line: t.line, Col: t.col}, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) freshBlank() Var {
	p.blankN++
	return Var(fmt.Sprintf("_G%d", p.blankN))
}

// ---- formulas -------------------------------------------------------------

type formula interface{ isFormula() }

type fLit struct{ lit Literal }
type fNot struct{ f formula }
type fAnd struct{ fs []formula }
type fOr struct{ fs []formula }

func (fLit) isFormula() {}
func (fNot) isFormula() {}
func (fAnd) isFormula() {}
func (fOr) isFormula()  {}

// dnf converts a formula to disjunctive normal form: a list of
// alternatives, each a conjunction of (possibly negated) literals.
func dnf(f formula) [][]Literal {
	switch f := nnf(f, false).(type) {
	case fLit:
		return [][]Literal{{f.lit}}
	case fAnd:
		alts := [][]Literal{{}}
		for _, sub := range f.fs {
			subAlts := dnf(sub)
			var next [][]Literal
			for _, a := range alts {
				for _, s := range subAlts {
					merged := make([]Literal, 0, len(a)+len(s))
					merged = append(merged, a...)
					merged = append(merged, s...)
					next = append(next, merged)
				}
			}
			alts = next
		}
		return alts
	case fOr:
		var alts [][]Literal
		for _, sub := range f.fs {
			alts = append(alts, dnf(sub)...)
		}
		return alts
	}
	panic("datalog: non-normalized formula")
}

// nnf pushes negations down to literals.
func nnf(f formula, neg bool) formula {
	switch f := f.(type) {
	case fLit:
		if neg {
			l := f.lit
			l.Negated = !l.Negated
			return fLit{lit: l}
		}
		return f
	case fNot:
		return nnf(f.f, !neg)
	case fAnd:
		out := make([]formula, len(f.fs))
		for i, sub := range f.fs {
			out[i] = nnf(sub, neg)
		}
		if neg {
			return fOr{fs: out}
		}
		return fAnd{fs: out}
	case fOr:
		out := make([]formula, len(f.fs))
		for i, sub := range f.fs {
			out[i] = nnf(sub, neg)
		}
		if neg {
			return fAnd{fs: out}
		}
		return fOr{fs: out}
	}
	panic("datalog: unknown formula")
}

// ---- statements ------------------------------------------------------------

func (p *parser) statement(prog *Program) error {
	start := p.peek()
	stmtPos := Pos{Line: start.line, Col: start.col}
	label := ""
	if p.peek().kind == tokIdent && p.peekAt(1).kind == tokColon {
		label = p.advance().text
		p.advance()
	}
	lhs, err := p.formula()
	if err != nil {
		return err
	}
	switch p.peek().kind {
	case tokDot: // facts
		p.advance()
		heads, err := headsOf(lhs)
		if err != nil {
			return p.errf("invalid fact: %v", err)
		}
		for i := range heads {
			pos := heads[i].Pos
			if !pos.IsValid() {
				pos = stmtPos
			}
			prog.Rules = append(prog.Rules, &Rule{Label: label, Heads: []Atom{heads[i]}, Pos: pos})
		}
		return nil
	case tokLeftArrow:
		p.advance()
		var agg *AggSpec
		if p.peek().kind == tokIdent && p.peek().text == "agg" && p.peekAt(1).kind == tokAggOpen {
			agg, err = p.aggSpec()
			if err != nil {
				return err
			}
		}
		body, err := p.formula()
		if err != nil {
			return err
		}
		if _, err := p.expect(tokDot); err != nil {
			return err
		}
		heads, err := headsOf(lhs)
		if err != nil {
			return p.errf("invalid rule head: %v", err)
		}
		for _, alt := range dnf(body) {
			r := &Rule{Label: label, Heads: heads, Body: alt, Agg: agg, Pos: stmtPos}
			prog.Rules = append(prog.Rules, r.Clone()) // clone: alternatives must not share terms
		}
		return nil
	case tokRightArrow:
		p.advance()
		if p.peek().kind == tokDot { // pure declaration
			p.advance()
			for _, alt := range dnf(lhs) {
				prog.Constraints = append(prog.Constraints, &Constraint{Label: label, LHS: alt, Pos: stmtPos})
			}
			return nil
		}
		rhs, err := p.formula()
		if err != nil {
			return err
		}
		if _, err := p.expect(tokDot); err != nil {
			return err
		}
		rhsAlts := dnf(rhs)
		for _, alt := range dnf(lhs) {
			prog.Constraints = append(prog.Constraints, &Constraint{Label: label, LHS: alt, RHS: rhsAlts, Pos: stmtPos})
		}
		return nil
	}
	return p.errf("expected '.', '<-' or '->' after clause head, found %v", p.peek().kind)
}

// headsOf flattens a formula into a list of positive atoms, for rule heads
// and facts.
func headsOf(f formula) ([]Atom, error) {
	switch f := f.(type) {
	case fLit:
		if f.lit.Negated {
			return nil, fmt.Errorf("negated atom not allowed here")
		}
		return []Atom{f.lit.Atom}, nil
	case fAnd:
		var out []Atom
		for _, sub := range f.fs {
			hs, err := headsOf(sub)
			if err != nil {
				return nil, err
			}
			out = append(out, hs...)
		}
		return out, nil
	}
	return nil, fmt.Errorf("disjunction or negation not allowed here")
}

func (p *parser) aggSpec() (*AggSpec, error) {
	p.advance() // agg
	p.advance() // <<
	v, err := p.expect(tokVar)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokEq); err != nil {
		return nil, err
	}
	fn, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	switch fn.text {
	case "count", "total", "sum", "min", "max":
	default:
		return nil, p.errf("unknown aggregate function %q", fn.text)
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	over, err := p.expect(tokVar)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokAggClose); err != nil {
		return nil, err
	}
	// The canonical rendering separates the agg spec from the body with a
	// comma; surface syntax traditionally omits it. Accept both.
	if p.peek().kind == tokComma {
		p.advance()
	}
	name := fn.text
	if name == "sum" {
		name = "total"
	}
	return &AggSpec{Result: v.text, Fn: name, Over: over.text}, nil
}

// ---- formula parsing -------------------------------------------------------

// formula := conj (';' conj)*
func (p *parser) formula() (formula, error) {
	first, err := p.conj()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokSemi {
		return first, nil
	}
	or := fOr{fs: []formula{first}}
	for p.peek().kind == tokSemi {
		p.advance()
		next, err := p.conj()
		if err != nil {
			return nil, err
		}
		or.fs = append(or.fs, next)
	}
	return or, nil
}

// conj := unary (',' unary)*
func (p *parser) conj() (formula, error) {
	first, err := p.unary()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokComma {
		return first, nil
	}
	and := fAnd{fs: []formula{first}}
	for p.peek().kind == tokComma {
		p.advance()
		next, err := p.unary()
		if err != nil {
			return nil, err
		}
		and.fs = append(and.fs, next)
	}
	return and, nil
}

// unary := '!' unary | '(' formula ')' | literal
func (p *parser) unary() (formula, error) {
	switch p.peek().kind {
	case tokBang:
		p.advance()
		f, err := p.unary()
		if err != nil {
			return nil, err
		}
		return fNot{f: f}, nil
	case tokLParen:
		p.advance()
		f, err := p.formula()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return f, nil
	}
	lit, err := p.literal()
	if err != nil {
		return nil, err
	}
	return fLit{lit: lit}, nil
}

// literal parses an atom, a pattern metavariable literal (in quotes), or a
// comparison between terms.
func (p *parser) literal() (Literal, error) {
	t := p.peek()
	// Concrete atom: ident followed by '(' or '[' partition.
	if t.kind == tokIdent && (p.peekAt(1).kind == tokLParen || p.peekAt(1).kind == tokLBracket) {
		a, err := p.atom()
		if err != nil {
			return Literal{}, err
		}
		return Literal{Atom: a}, nil
	}
	// Pattern metavariable forms, only inside quoted code.
	if t.kind == tokVar && p.inQuote {
		switch p.peekAt(1).kind {
		case tokLParen: // P(...) metavariable functor
			name := p.advance().text
			args, argStar, err := p.argList()
			if err != nil {
				return Literal{}, err
			}
			return Literal{Atom: Atom{PredVar: name, Args: args, ArgStar: argStar, Pos: Pos{Line: t.line, Col: t.col}}}, nil
		case tokStar: // A* rest-of-body
			if k := p.peekAt(2).kind; k == tokComma || k == tokDot || k == tokQuoteClose || k == tokRParen {
				name := p.advance().text
				p.advance() // *
				return Literal{Atom: Atom{AtomVar: name, Star: true, Pos: Pos{Line: t.line, Col: t.col}}}, nil
			}
		case tokComma, tokDot, tokQuoteClose, tokRParen, tokSemi, tokLeftArrow, tokRightArrow:
			name := p.advance().text
			return Literal{Atom: Atom{AtomVar: name, Pos: Pos{Line: t.line, Col: t.col}}}, nil
		}
	}
	// Otherwise: a term followed by a comparison operator.
	left, err := p.term()
	if err != nil {
		return Literal{}, err
	}
	var op string
	switch p.peek().kind {
	case tokEq:
		op = "="
	case tokNeq:
		op = "!="
	case tokLt:
		op = "<"
	case tokLe:
		op = "<="
	case tokGt:
		op = ">"
	case tokGe:
		op = ">="
	default:
		return Literal{}, p.errf("expected comparison operator after term, found %v", p.peek().kind)
	}
	p.advance()
	right, err := p.term()
	if err != nil {
		return Literal{}, err
	}
	return Literal{Atom: Atom{Pred: op, Args: []Term{left, right}, Pos: Pos{Line: t.line, Col: t.col}}}, nil
}

// sizedTypes are type predicates that accept a bit-width suffix, e.g.
// int[64](N); the suffix is accepted and ignored.
var sizedTypes = map[string]bool{"int": true, "uint": true, "float": true, "decimal": true}

// atom parses a concrete atom: name, optional partition argument or size
// suffix, and an argument list.
func (p *parser) atom() (Atom, error) {
	nameTok := p.advance()
	name := nameTok.text
	a := Atom{Pred: name, Pos: Pos{Line: nameTok.line, Col: nameTok.col}}
	if p.peek().kind == tokLBracket {
		// Disambiguate int[64](N) size suffixes from p[X](..) partitions.
		if sizedTypes[name] && p.peekAt(1).kind == tokInt && p.peekAt(2).kind == tokRBracket {
			p.advance()
			p.advance()
			p.advance()
		} else {
			p.advance()
			part, err := p.term()
			if err != nil {
				return a, err
			}
			if _, err := p.expect(tokRBracket); err != nil {
				return a, err
			}
			a.Part = part
		}
	}
	if p.peek().kind != tokLParen {
		return a, p.errf("expected argument list after predicate %q", name)
	}
	args, argStar, err := p.argList()
	if err != nil {
		return a, err
	}
	a.Args, a.ArgStar = args, argStar
	return a, nil
}

// argList parses '(' term, ... ')' and reports whether the final argument
// was a Kleene-starred metavariable.
func (p *parser) argList() ([]Term, bool, error) {
	if _, err := p.expect(tokLParen); err != nil {
		return nil, false, err
	}
	var args []Term
	star := false
	if p.peek().kind != tokRParen {
		for {
			t, err := p.term()
			if err != nil {
				return nil, false, err
			}
			args = append(args, t)
			if _, ok := t.(StarVar); ok {
				star = true
			}
			if p.peek().kind != tokComma {
				break
			}
			if star {
				return nil, false, p.errf("starred argument must be last")
			}
			p.advance()
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, false, err
	}
	return args, star, nil
}

// ---- terms -----------------------------------------------------------------

// term := additive
func (p *parser) term() (Term, error) { return p.additive() }

func (p *parser) additive() (Term, error) {
	left, err := p.multiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op byte
		switch p.peek().kind {
		case tokPlus:
			op = '+'
		case tokMinus:
			op = '-'
		default:
			return left, nil
		}
		p.advance()
		right, err := p.multiplicative()
		if err != nil {
			return nil, err
		}
		left = Arith{Op: op, L: left, R: right}
	}
}

func (p *parser) multiplicative() (Term, error) {
	left, err := p.primaryTerm()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek().kind {
		case tokStar:
			// "T*" at end of argument list is a starred metavariable, not
			// multiplication; multiplication requires a term to follow.
			if v, ok := left.(Var); ok && p.inQuote && !p.startsTerm(p.peekAt(1)) {
				p.advance()
				return StarVar(v), nil
			}
			p.advance()
			right, err := p.primaryTerm()
			if err != nil {
				return nil, err
			}
			left = Arith{Op: '*', L: left, R: right}
		case tokSlash:
			p.advance()
			right, err := p.primaryTerm()
			if err != nil {
				return nil, err
			}
			left = Arith{Op: '/', L: left, R: right}
		default:
			return left, nil
		}
	}
}

func (p *parser) startsTerm(t token) bool {
	switch t.kind {
	case tokInt, tokString, tokVar, tokIdent, tokLParen, tokQuoteOpen, tokMinus:
		return true
	}
	return false
}

func (p *parser) primaryTerm() (Term, error) {
	t := p.peek()
	switch t.kind {
	case tokInt:
		p.advance()
		return Const{Val: Int(t.num)}, nil
	case tokMinus:
		p.advance()
		n, err := p.expect(tokInt)
		if err != nil {
			return nil, err
		}
		return Const{Val: Int(-n.num)}, nil
	case tokString:
		p.advance()
		return Const{Val: String(t.text)}, nil
	case tokVar:
		p.advance()
		if t.text == "_" {
			return p.freshBlank(), nil
		}
		return Var(t.text), nil
	case tokIdent:
		p.advance()
		if p.peek().kind == tokLBracket {
			// Partition reference term, e.g. export[P] in predNode rules.
			p.advance()
			arg, err := p.term()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRBracket); err != nil {
				return nil, err
			}
			return TermPart{Pred: t.text, Arg: arg}, nil
		}
		return Const{Val: Sym(t.text)}, nil
	case tokQuoteOpen:
		return p.quote()
	case tokLParen:
		p.advance()
		inner, err := p.term()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return inner, nil
	}
	return nil, p.errf("expected a term, found %v", t.kind)
}

// quote parses a quoted code term [| heads [<- body] [.] |].
func (p *parser) quote() (Term, error) {
	open, err := p.expect(tokQuoteOpen)
	if err != nil {
		return nil, err
	}
	quotePos := Pos{Line: open.line, Col: open.col}
	saved := p.inQuote
	p.inQuote = true
	defer func() { p.inQuote = saved }()

	lhs, err := p.formula()
	if err != nil {
		return nil, err
	}
	r := &Rule{Pos: quotePos}
	heads, err := headsOf(lhs)
	if err != nil {
		return nil, p.errf("invalid quoted head: %v", err)
	}
	r.Heads = heads
	if p.peek().kind == tokLeftArrow {
		p.advance()
		body, err := p.formula()
		if err != nil {
			return nil, err
		}
		alts := dnf(body)
		if len(alts) != 1 {
			return nil, p.errf("disjunction is not supported inside quoted code")
		}
		r.Body = alts[0]
	}
	if p.peek().kind == tokDot {
		p.advance()
	}
	if _, err := p.expect(tokQuoteClose); err != nil {
		return nil, err
	}
	return Quote{Pat: r}, nil
}
