package datalog

import (
	"sort"
	"strings"
	"testing"
)

// mustEval parses the program, loads facts, runs to fixpoint, and returns
// the evaluator.
func mustEval(t *testing.T, src string) *Evaluator {
	t.Helper()
	prog, err := ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	db := NewDatabase()
	ev := NewEvaluator(db, NewBuiltinSet())
	var rules []*Rule
	for _, r := range prog.Rules {
		if r.IsFact() && len(r.Heads[0].Args) >= 0 && groundAtom(&r.Heads[0]) {
			tuple, err := factTuple(&r.Heads[0])
			if err != nil {
				t.Fatalf("fact %s: %v", r.Heads[0].String(), err)
			}
			db.Rel(r.Heads[0].Pred, tuple.Len()).Insert(tuple)
			continue
		}
		rules = append(rules, r)
	}
	if err := ev.SetRules(rules); err != nil {
		t.Fatalf("set rules: %v", err)
	}
	if err := ev.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return ev
}

func groundAtom(a *Atom) bool {
	for _, t := range a.AllArgs() {
		if _, ok := t.(Const); !ok {
			if _, ok := t.(Quote); !ok {
				return false
			}
		}
	}
	return true
}

func factTuple(a *Atom) (Tuple, error) {
	en := newEnv()
	args := a.AllArgs()
	vs := make([]Value, len(args))
	for i, t := range args {
		v, _, err := evalTerm(t, en)
		if err != nil {
			return Tuple{}, err
		}
		vs[i] = v
	}
	return TupleOf(vs), nil
}

// rows renders a relation's sorted contents compactly for comparison.
func rows(ev *Evaluator, pred string) string {
	rel, ok := ev.DB.Get(pred)
	if !ok {
		return ""
	}
	var out []string
	for _, t := range rel.Sorted() {
		var parts []string
		for _, v := range t.Values() {
			parts = append(parts, v.String())
		}
		out = append(out, strings.Join(parts, ","))
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

func TestTransitiveClosure(t *testing.T) {
	ev := mustEval(t, `
		edge(a,b). edge(b,c). edge(c,d).
		path(X,Y) <- edge(X,Y).
		path(X,Z) <- path(X,Y), edge(Y,Z).
	`)
	want := "a,b a,c a,d b,c b,d c,d"
	if got := rows(ev, "path"); got != want {
		t.Errorf("path = %q, want %q", got, want)
	}
}

func TestDisjunctionAndNesting(t *testing.T) {
	ev := mustEval(t, `
		p(a). q(b). r(c).
		s(X) <- p(X); q(X).
		u(X) <- (p(X); r(X)), !q(X).
	`)
	if got := rows(ev, "s"); got != "a b" {
		t.Errorf("s = %q, want %q", got, "a b")
	}
	if got := rows(ev, "u"); got != "a c" {
		t.Errorf("u = %q, want %q", got, "a c")
	}
}

func TestStratifiedNegation(t *testing.T) {
	ev := mustEval(t, `
		node(a). node(b). node(c).
		edge(a,b).
		connected(X) <- edge(X,_); edge(_,X).
		isolated(X) <- node(X), !connected(X).
	`)
	if got := rows(ev, "isolated"); got != "c" {
		t.Errorf("isolated = %q, want %q", got, "c")
	}
}

func TestNegationThroughRecursionRejected(t *testing.T) {
	prog, err := ParseProgram(`p(X) <- q(X), !p(X).`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ev := NewEvaluator(NewDatabase(), NewBuiltinSet())
	if err := ev.SetRules(prog.Rules); err == nil {
		t.Fatal("expected stratification error, got nil")
	}
}

func TestComparisonsAndArithmetic(t *testing.T) {
	ev := mustEval(t, `
		n(1). n(2). n(3). n(4).
		big(X) <- n(X), X > 2.
		sumsTo5(X,Y) <- n(X), n(Y), X + Y = 5, X < Y.
		next(X,Y) <- n(X), n(Y), Y = X + 1.
	`)
	if got := rows(ev, "big"); got != "3 4" {
		t.Errorf("big = %q, want %q", got, "3 4")
	}
	if got := rows(ev, "sumsTo5"); got != "1,4 2,3" {
		t.Errorf("sumsTo5 = %q, want %q", got, "1,4 2,3")
	}
	if got := rows(ev, "next"); got != "1,2 2,3 3,4" {
		t.Errorf("next = %q, want %q", got, "1,2 2,3 3,4")
	}
}

func TestCountAggregation(t *testing.T) {
	ev := mustEval(t, `
		vote(brE, alice). vote(brE, bob). vote(brE, carol).
		vote(brF, dave).
		votes(C,N) <- agg<<N = count(U)>> vote(C,U).
		winner(C) <- votes(C,N), N >= 3.
	`)
	if got := rows(ev, "votes"); got != "brE,3 brF,1" {
		t.Errorf("votes = %q, want %q", got, "brE,3 brF,1")
	}
	if got := rows(ev, "winner"); got != "brE" {
		t.Errorf("winner = %q, want %q", got, "brE")
	}
}

func TestTotalAggregation(t *testing.T) {
	ev := mustEval(t, `
		score(alice, 3). score(bob, 5).
		weight(W) <- agg<<W = total(S)>> score(_, S).
	`)
	if got := rows(ev, "weight"); got != "8" {
		t.Errorf("weight = %q, want %q", got, "8")
	}
}

func TestMinMaxAggregation(t *testing.T) {
	ev := mustEval(t, `
		n(4). n(7). n(2).
		lo(X) <- agg<<X = min(V)>> n(V).
		hi(X) <- agg<<X = max(V)>> n(V).
	`)
	if got := rows(ev, "lo"); got != "2" {
		t.Errorf("lo = %q, want %q", got, "2")
	}
	if got := rows(ev, "hi"); got != "7" {
		t.Errorf("hi = %q, want %q", got, "7")
	}
}

func TestIncrementalInsertion(t *testing.T) {
	prog := MustParseProgram(`
		path(X,Y) <- edge(X,Y).
		path(X,Z) <- path(X,Y), edge(Y,Z).
	`)
	db := NewDatabase()
	ev := NewEvaluator(db, NewBuiltinSet())
	if err := ev.SetRules(prog.Rules); err != nil {
		t.Fatalf("set rules: %v", err)
	}
	edge := db.Rel("edge", 2)
	edge.Insert(NewTuple(Sym("a"), Sym("b")))
	edge.Insert(NewTuple(Sym("b"), Sym("c")))
	if err := ev.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := rows(ev, "path"); got != "a,b a,c b,c" {
		t.Fatalf("path = %q", got)
	}
	// Incremental: add edge(c,d); paths a-d, b-d, c-d should appear.
	nt := NewTuple(Sym("c"), Sym("d"))
	edge.Insert(nt)
	if err := ev.RunDelta(map[string][]Tuple{"edge": {nt}}); err != nil {
		t.Fatalf("run delta: %v", err)
	}
	want := "a,b a,c a,d b,c b,d c,d"
	if got := rows(ev, "path"); got != want {
		t.Errorf("after delta, path = %q, want %q", got, want)
	}
}

func TestIncrementalRefusesNegation(t *testing.T) {
	prog := MustParseProgram(`
		q(X) <- base(X).
		r(X) <- all(X), !q(X).
	`)
	db := NewDatabase()
	ev := NewEvaluator(db, NewBuiltinSet())
	if err := ev.SetRules(prog.Rules); err != nil {
		t.Fatalf("set rules: %v", err)
	}
	db.Rel("all", 1).Insert(NewTuple(Sym("a")))
	if err := ev.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	nt := NewTuple(Sym("a"))
	db.Rel("base", 1).Insert(nt)
	err := ev.RunDelta(map[string][]Tuple{"base": {nt}})
	if err != ErrNeedsFullEval {
		t.Errorf("RunDelta error = %v, want ErrNeedsFullEval", err)
	}
}

func TestPartitionedPredicate(t *testing.T) {
	ev := mustEval(t, `
		p(alice, x, 1). p(bob, y, 2).
		q[U](X,N) <- p(U,X,N).
		aliceRows(X,N) <- q[alice](X,N).
	`)
	if got := rows(ev, "aliceRows"); got != "x,1" {
		t.Errorf("aliceRows = %q, want %q", got, "x,1")
	}
	if got := rows(ev, "q"); got != "alice,x,1 bob,y,2" {
		t.Errorf("q = %q, want %q", got, "alice,x,1 bob,y,2")
	}
}

func TestPartRefValues(t *testing.T) {
	ev := mustEval(t, `
		loc(alice, n1). loc(bob, n2).
		predNode(export[P], N) <- loc(P, N).
	`)
	if got := rows(ev, "predNode"); got != "export[alice],n1 export[bob],n2" {
		t.Errorf("predNode = %q", got)
	}
}

func TestCodeValuesAsData(t *testing.T) {
	ev := mustEval(t, `
		said(bob, [| access(p, o, read). |]).
		said(bob, [| access(q, o2, write). |]).
		gotSomething(U) <- said(U, _).
	`)
	if got := rows(ev, "gotSomething"); got != "bob" {
		t.Errorf("gotSomething = %q, want %q", got, "bob")
	}
	rel, _ := ev.DB.Get("said")
	if rel.Len() != 2 {
		t.Errorf("said has %d tuples, want 2 (distinct code values)", rel.Len())
	}
}

func TestCodeValueEqualityModuloVariableNames(t *testing.T) {
	r1 := MustParseClause(`p(X,Y) <- q(X,Y).`)
	r2 := MustParseClause(`p(A,B) <- q(A,B).`)
	r3 := MustParseClause(`p(X,Y) <- q(Y,X).`)
	if NewCode(r1).Key() != NewCode(r2).Key() {
		t.Error("alpha-equivalent rules should have equal code values")
	}
	if NewCode(r1).Key() == NewCode(r3).Key() {
		t.Error("different rules should have different code values")
	}
}

func TestHeadQuoteTemplateInstantiation(t *testing.T) {
	ev := mustEval(t, `
		neighbor(n1). item(5).
		send(Z, [| notify(Z, V). |]) <- neighbor(Z), item(V).
	`)
	rel, ok := ev.DB.Get("send")
	if !ok || rel.Len() != 1 {
		t.Fatalf("send relation missing or wrong size")
	}
	var code Code
	rel.Each(func(tu Tuple) bool {
		code = tu.At(1).(Code)
		return false
	})
	want := NewCode(MustParseClause("notify(n1, 5).")).Key()
	if code.Key() != want {
		t.Errorf("generated code = %s, want notify(n1,5)", code.String())
	}
}

func TestQueryHelper(t *testing.T) {
	ev := mustEval(t, `
		edge(a,b). edge(b,c).
		path(X,Y) <- edge(X,Y).
		path(X,Z) <- path(X,Y), edge(Y,Z).
	`)
	q := &Atom{Pred: "path", Args: []Term{Var("X"), Const{Val: Sym("c")}}}
	got, err := ev.Query(q)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(got) != 2 {
		t.Errorf("query returned %d tuples, want 2", len(got))
	}
	// Variable join: path(X,X) should be empty.
	q2 := &Atom{Pred: "path", Args: []Term{Var("X"), Var("X")}}
	got2, err := ev.Query(q2)
	if err != nil {
		t.Fatalf("query2: %v", err)
	}
	if len(got2) != 0 {
		t.Errorf("path(X,X) returned %d tuples, want 0", len(got2))
	}
}

func TestSafetyErrors(t *testing.T) {
	cases := []string{
		`p(X) <- q(Y).`,          // head var unbound
		`p(X) <- q(X), !r(X,Y).`, // negated-only var
	}
	for _, src := range cases {
		prog, err := ParseProgram(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		ev := NewEvaluator(NewDatabase(), NewBuiltinSet())
		if err := ev.SetRules(prog.Rules); err == nil {
			t.Errorf("SetRules(%q) accepted unsafe rule", src)
		}
	}
}

func TestArityConflictRejected(t *testing.T) {
	prog := MustParseProgram(`
		p(X) <- q(X).
		p(X,Y) <- q(X), q(Y).
	`)
	ev := NewEvaluator(NewDatabase(), NewBuiltinSet())
	if err := ev.SetRules(prog.Rules); err == nil {
		t.Error("expected arity conflict error")
	}
}

func TestBlankVariables(t *testing.T) {
	ev := mustEval(t, `
		pair(a,b). pair(a,c). pair(d,e).
		hasPartner(X) <- pair(X,_).
	`)
	if got := rows(ev, "hasPartner"); got != "a d" {
		t.Errorf("hasPartner = %q, want %q", got, "a d")
	}
}

func TestMultiHeadRule(t *testing.T) {
	ev := mustEval(t, `
		in(x).
		a(X), b(X) <- in(X).
	`)
	if got := rows(ev, "a"); got != "x" {
		t.Errorf("a = %q", got)
	}
	if got := rows(ev, "b"); got != "x" {
		t.Errorf("b = %q", got)
	}
}

func TestStringAndIntLiterals(t *testing.T) {
	ev := mustEval(t, `
		f(1, "hello").
		g(S) <- f(_, S).
		h(N) <- f(N, _), N >= 1.
	`)
	if got := rows(ev, "g"); got != `"hello"` {
		t.Errorf("g = %q", got)
	}
	if got := rows(ev, "h"); got != "1" {
		t.Errorf("h = %q", got)
	}
}

func TestQualifiedIdentifiers(t *testing.T) {
	ev := mustEval(t, `
		message:id(m1, 7).
		pubkey(bob, rsa:3:c1ebab5d).
		known(K) <- pubkey(bob, K).
	`)
	if got := rows(ev, "known"); got != "rsa:3:c1ebab5d" {
		t.Errorf("known = %q", got)
	}
	if got := rows(ev, "message:id"); got != "m1,7" {
		t.Errorf("message:id = %q", got)
	}
}

func TestLabelsAndComments(t *testing.T) {
	ev := mustEval(t, `
		// line comment
		% datalog comment
		/* block
		   comment */
		b1: p(a).
		b2: q(X) <- p(X).
	`)
	if got := rows(ev, "q"); got != "a" {
		t.Errorf("q = %q", got)
	}
}

func TestEnsureDot(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"p(a)", "p(a)."},
		{"p(a).", "p(a)."},
		{"p(a).\r\n", "p(a)."},
		{"p(a) \t\r\n", "p(a)."},
		{"  p(a)", "p(a)."},
		{"", "."},
	} {
		got := EnsureDot(tc.in)
		if got != tc.want {
			t.Errorf("EnsureDot(%q) = %q, want %q", tc.in, got, tc.want)
		}
		if _, err := ParseClause(got); (err != nil) != (tc.in == "") {
			t.Errorf("ParseClause(EnsureDot(%q)): err = %v", tc.in, err)
		}
	}
}
