package datalog

import (
	"fmt"
	"strconv"
	"unicode"
)

// tokKind enumerates lexical token kinds of the LBTrust surface syntax.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokVar    // uppercase-initial identifier or _
	tokInt    // integer literal
	tokString // "quoted string"
	tokLParen
	tokRParen
	tokLBracket
	tokRBracket
	tokComma
	tokSemi
	tokBang
	tokDot
	tokColon
	tokLeftArrow  // <- and :-
	tokRightArrow // ->
	tokQuoteOpen  // [|
	tokQuoteClose // |]
	tokAggOpen    // <<
	tokAggClose   // >>
	tokEq         // =
	tokNeq        // !=
	tokLt
	tokLe
	tokGt
	tokGe
	tokPlus
	tokMinus
	tokStar
	tokSlash
	tokAt
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokVar:
		return "variable"
	case tokInt:
		return "integer"
	case tokString:
		return "string"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBracket:
		return "'['"
	case tokRBracket:
		return "']'"
	case tokComma:
		return "','"
	case tokSemi:
		return "';'"
	case tokBang:
		return "'!'"
	case tokDot:
		return "'.'"
	case tokColon:
		return "':'"
	case tokLeftArrow:
		return "'<-'"
	case tokRightArrow:
		return "'->'"
	case tokQuoteOpen:
		return "'[|'"
	case tokQuoteClose:
		return "'|]'"
	case tokAggOpen:
		return "'<<'"
	case tokAggClose:
		return "'>>'"
	case tokEq:
		return "'='"
	case tokNeq:
		return "'!='"
	case tokLt:
		return "'<'"
	case tokLe:
		return "'<='"
	case tokGt:
		return "'>'"
	case tokGe:
		return "'>='"
	case tokPlus:
		return "'+'"
	case tokMinus:
		return "'-'"
	case tokStar:
		return "'*'"
	case tokSlash:
		return "'/'"
	case tokAt:
		return "'@'"
	}
	return "unknown token"
}

type token struct {
	kind tokKind
	text string
	num  int64
	line int
	col  int
}

// lexer tokenizes LBTrust program text. Identifiers may contain ':' joined
// segments with no surrounding whitespace (message:id, rsa:3:c1ebab5d),
// which keeps rule labels ("exp1: ...") unambiguous as long as the label
// colon is followed by whitespace, as in all of the paper's listings.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (l *lexer) errf(format string, args ...any) error {
	return &SyntaxError{Pos: Pos{Line: l.line, Col: l.col}, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) peekAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '%':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case c == '/' && l.peekAt(1) == '/':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case c == '/' && l.peekAt(1) == '*':
			l.advance()
			l.advance()
			for {
				if l.pos >= len(l.src) {
					return l.errf("unterminated block comment")
				}
				if l.peekByte() == '*' && l.peekAt(1) == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool { return c == '_' || unicode.IsLetter(rune(c)) }
func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// identEnd returns the end of the identifier that starts at src[start]
// (which must satisfy isIdentStart). It continues through ':' when
// immediately followed by an identifier character, so message:id and
// rsa:3:c1ebab5d are single identifiers while "m2: rule" is not.
func identEnd(src string, start int) int {
	at := func(i int) byte {
		if i >= len(src) {
			return 0
		}
		return src[i]
	}
	i := start + 1
	for {
		switch {
		case isIdentPart(at(i)):
			i++
		case at(i) == ':' && isIdentPart(at(i+1)) && at(i+1) != '_':
			i += 2
		default:
			return i
		}
	}
}

// isVarName reports whether an identifier is a variable rather than a
// symbol: it starts with an upper-case letter or an underscore.
func isVarName(ident string) bool {
	return ident[0] == '_' || unicode.IsUpper(rune(ident[0]))
}

// IsSymbolToken reports whether s lexes as exactly one symbol token —
// the condition under which a Sym or predicate name written into canonical
// text re-parses as itself. The reserved forms (lb:entity:atom:17,
// rsa:3:c1ebab5d, hmac:…) qualify.
func IsSymbolToken(s string) bool {
	return s != "" && isIdentStart(s[0]) && !isVarName(s) && identEnd(s, 0) == len(s)
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	t := token{line: l.line, col: l.col}
	if l.pos >= len(l.src) {
		t.kind = tokEOF
		return t, nil
	}
	c := l.peekByte()
	switch {
	case isIdentStart(c):
		text := l.src[l.pos:identEnd(l.src, l.pos)]
		l.pos += len(text)
		l.col += len(text)
		if isVarName(text) {
			t.kind, t.text = tokVar, text
		} else {
			t.kind, t.text = tokIdent, text
		}
		return t, nil
	case unicode.IsDigit(rune(c)):
		start := l.pos
		for l.pos < len(l.src) && unicode.IsDigit(rune(l.peekByte())) {
			l.advance()
		}
		text := l.src[start:l.pos]
		var n int64
		if _, err := fmt.Sscanf(text, "%d", &n); err != nil {
			return t, l.errf("bad integer %q", text)
		}
		t.kind, t.text, t.num = tokInt, text, n
		return t, nil
	case c == '"':
		// Scan to the matching unescaped quote, then let strconv handle
		// the full Go escape repertoire (the canonical encoder uses
		// strconv.Quote, so \x, \u and \U forms must round-trip).
		start := l.pos
		l.advance()
		for {
			if l.pos >= len(l.src) {
				return t, l.errf("unterminated string literal")
			}
			ch := l.advance()
			if ch == '\\' {
				if l.pos >= len(l.src) {
					return t, l.errf("unterminated escape sequence")
				}
				l.advance()
				continue
			}
			if ch == '"' {
				break
			}
		}
		text, err := strconv.Unquote(l.src[start:l.pos])
		if err != nil {
			return t, l.errf("bad string literal: %v", err)
		}
		t.kind, t.text = tokString, text
		return t, nil
	}
	// Punctuation, maximal munch.
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "[|":
		l.advance()
		l.advance()
		t.kind = tokQuoteOpen
		return t, nil
	case "|]":
		l.advance()
		l.advance()
		t.kind = tokQuoteClose
		return t, nil
	case "<-", ":-":
		l.advance()
		l.advance()
		t.kind = tokLeftArrow
		return t, nil
	case "->":
		l.advance()
		l.advance()
		t.kind = tokRightArrow
		return t, nil
	case "<<":
		l.advance()
		l.advance()
		t.kind = tokAggOpen
		return t, nil
	case ">>":
		l.advance()
		l.advance()
		t.kind = tokAggClose
		return t, nil
	case "!=":
		l.advance()
		l.advance()
		t.kind = tokNeq
		return t, nil
	case "<=":
		l.advance()
		l.advance()
		t.kind = tokLe
		return t, nil
	case ">=":
		l.advance()
		l.advance()
		t.kind = tokGe
		return t, nil
	}
	l.advance()
	switch c {
	case '(':
		t.kind = tokLParen
	case ')':
		t.kind = tokRParen
	case '[':
		t.kind = tokLBracket
	case ']':
		t.kind = tokRBracket
	case ',':
		t.kind = tokComma
	case ';':
		t.kind = tokSemi
	case '!':
		t.kind = tokBang
	case '.':
		t.kind = tokDot
	case ':':
		t.kind = tokColon
	case '=':
		t.kind = tokEq
	case '<':
		t.kind = tokLt
	case '>':
		t.kind = tokGt
	case '+':
		t.kind = tokPlus
	case '-':
		t.kind = tokMinus
	case '*':
		t.kind = tokStar
	case '/':
		t.kind = tokSlash
	case '@':
		t.kind = tokAt
	default:
		return t, l.errf("unexpected character %q", c)
	}
	return t, nil
}

// lexAll tokenizes the whole input.
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	var out []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}
