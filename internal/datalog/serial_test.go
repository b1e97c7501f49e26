package datalog

import (
	"testing"
)

func TestValueEncodingRoundTrip(t *testing.T) {
	code := NewCode(MustParseClause(`says(alice, bob, [| access(P, o1, "read\nwrite"). |]).`))
	values := []Value{
		Sym("alice"),
		Sym("rsa:priv:alice"),
		String("hello\tworld\nline"),
		String(""),
		Int(-42),
		Int(0),
		Entity{Sort: "atom", ID: 17},
		Entity{Sort: "term", ID: 9},
		code,
		PartRef{Pred: "export", Arg: Sym("bob")},
		PartRef{Pred: "box", Arg: PartRef{Pred: "inner", Arg: Int(3)}},
	}
	for _, v := range values {
		enc := EncodeValue(v)
		got, err := DecodeValue(enc)
		if err != nil {
			t.Fatalf("DecodeValue(%q): %v", enc, err)
		}
		if got.Key() != v.Key() {
			t.Errorf("round trip of %s: got %s, want %s", enc, got.Key(), v.Key())
		}
		if got.Kind() != v.Kind() {
			t.Errorf("round trip of %s: kind %v, want %v", enc, got.Kind(), v.Kind())
		}
	}
	tup := TupleOf(values)
	line := EncodeTupleLine(tup)
	back, err := DecodeTupleLine(line)
	if err != nil {
		t.Fatalf("DecodeTupleLine: %v", err)
	}
	if back.Key() != tup.Key() {
		t.Errorf("tuple round trip: got %q, want %q", back.Key(), tup.Key())
	}
	if empty, err := DecodeTupleLine(EncodeTupleLine(NewTuple())); err != nil || empty.Len() != 0 {
		t.Errorf("empty tuple round trip: %v, len %d", err, empty.Len())
	}
}

func TestValueDecodingRejectsCorruptInput(t *testing.T) {
	for _, bad := range []string{
		"", "q\"x\"", "y", "yalice", `y"alice`, "i", "inotanint", "e\"atom\"",
		"e\"atom\"x", `c"says(X"`, `c"not a ( clause"`, `p"export"`, `y"a"y"b"`,
	} {
		if v, err := DecodeValue(bad); err == nil {
			t.Errorf("DecodeValue(%q) = %v, want error", bad, v)
		}
	}
	for _, bad := range []string{"y\"a\"\tzzz", "y\"a\"\t", "\ty\"a\"", "y\"a\"\t\ty\"b\"", "\t"} {
		if tu, err := DecodeTupleLine(bad); err == nil {
			t.Errorf("DecodeTupleLine(%q) = %v, want error", bad, tu)
		}
		if tu, err := NewDecoder().DecodeTupleLine(bad); err == nil {
			t.Errorf("Decoder.DecodeTupleLine(%q) = %v, want error", bad, tu)
		}
	}
}

// TestIsSymbolTokenAgreesWithLexer: IsSymbolToken(s) holds exactly when
// the lexer reads s as one identifier token spanning all of s, so a
// symbol that passes it re-parses from canonical text as itself.
func TestIsSymbolTokenAgreesWithLexer(t *testing.T) {
	for _, s := range []string{
		"alice", "a1", "a_b", "message:id", "lb:entity:atom:17", "rsa:3:c1ebab5d", "hmac:k1", "agg",
		"", "a b", "a\tb", "a):-b(c", "x). evil(y", "Var", "_", "_x", "1a", "a:", "a::b", "a:_b", ":a",
		"a.", "a-b", "a//c", "a\n", " a", "a ", "\"a\"", "[|a|]", "a[b]", "a(b)", "üñí", "a\x00",
	} {
		toks, err := lexAll(s)
		want := err == nil && len(toks) == 2 && toks[0].kind == tokIdent && toks[0].text == s
		if got := IsSymbolToken(s); got != want {
			t.Errorf("IsSymbolToken(%q) = %v, lexer says %v", s, got, want)
		}
		if want {
			if r, err := ParseClause("t(" + s + ")."); err != nil || !r.IsFact() {
				t.Errorf("symbol token %q does not parse as a constant: %v", s, err)
			} else if v, ground, err := EvalGroundTerm(r.Heads[0].AllArgs()[0]); err != nil || !ground || v != Sym(s) {
				t.Errorf("symbol token %q re-parses as %v", s, v)
			}
		}
	}
}

func TestCanonicalConstraintRoundTrip(t *testing.T) {
	srcs := []string{
		`exp0: export[U1](U2,R,S) -> prin(U1), prin(U2).`,
		`msg(M,U) -> registered(U).`,
		`p(X) -> q(X); r(X, "lit\n").`,
		`says(S, me, R), !muted(S) -> trusted(S).`,
		`decl(X) -> .`,
	}
	for _, src := range srcs {
		prog, err := ParseProgram(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		for _, c := range prog.Constraints {
			canon := CanonicalConstraint(c)
			back, err := ParseConstraint(canon, c.Label)
			if err != nil {
				t.Fatalf("reparse %q (from %q): %v", canon, src, err)
			}
			if got := CanonicalConstraint(back); got != canon {
				t.Errorf("constraint %q not stable: %q -> %q", src, canon, got)
			}
			if back.Label != c.Label {
				t.Errorf("label lost: %q vs %q", back.Label, c.Label)
			}
		}
	}
}
