package datalog

import (
	"strings"
	"testing"
)

// TestSafeNegExemptsDeclaredPredicates covers the constraint checker's
// fail(L) <- LHS, !aux(...) shape: aux grows monotonically in a lower
// stratum, so a caller can declare its negation delta-safe and keep
// RunDelta incremental where the default classification would bail.
func TestSafeNegExemptsDeclaredPredicates(t *testing.T) {
	prog := MustParseProgram(`
		aux(X) <- lhs(X), rhs(X).
		bad(X) <- lhs(X), !aux(X).
	`)
	db := NewDatabase()
	ev := NewEvaluator(db, NewBuiltinSet())
	if err := ev.SetRules(prog.Rules); err != nil {
		t.Fatalf("set rules: %v", err)
	}
	db.Rel("lhs", 1).Insert(NewTuple(Sym("a")))
	db.Rel("rhs", 1).Insert(NewTuple(Sym("a")))
	if err := ev.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := rows(ev, "bad"); got != "" {
		t.Fatalf("bad = %q, want empty (aux(a) suppresses)", got)
	}

	fresh := NewTuple(Sym("b"))
	db.Rel("lhs", 1).Insert(fresh)
	delta := map[string][]Tuple{"lhs": {fresh}}
	if err := ev.RunDelta(delta); err != ErrNeedsFullEval {
		t.Fatalf("without SafeNeg, RunDelta = %v, want ErrNeedsFullEval", err)
	}
	ev.SafeNeg = func(pred string) bool { return strings.HasPrefix(pred, "aux") }
	if err := ev.RunDelta(delta); err != nil {
		t.Fatalf("with SafeNeg, RunDelta = %v", err)
	}
	if got := rows(ev, "bad"); got != "b" {
		t.Errorf("bad = %q, want %q (lhs(b) has no rhs witness)", got, "b")
	}

	// With the exemption withdrawn the same delta bails again: aux is in
	// the affected closure of rhs and is consulted under negation.
	ev.SafeNeg = nil
	nt := NewTuple(Sym("b"))
	db.Rel("rhs", 1).Insert(nt)
	if err := ev.RunDelta(map[string][]Tuple{"rhs": {nt}}); err != ErrNeedsFullEval {
		t.Errorf("rhs delta = %v, want ErrNeedsFullEval (aux affected under negation)", err)
	}
}

// TestRunDeltaPropagatesAcrossStrata: tuples derived in a lower stratum
// must drive higher-stratum rules in the same RunDelta. Higher-stratum
// bodies are only evaluated forced-first over seeded predicates, so DB
// visibility alone is not enough — the stratum's derived delta has to be
// folded into the seed (regression: it was dropped after the semi-naive
// loop, silently losing r below).
func TestRunDeltaPropagatesAcrossStrata(t *testing.T) {
	prog := MustParseProgram(`
		p(X) <- q(X).
		r(X) <- p(X), !s(X).
	`)
	db := NewDatabase()
	ev := NewEvaluator(db, NewBuiltinSet())
	if err := ev.SetRules(prog.Rules); err != nil {
		t.Fatalf("set rules: %v", err)
	}
	if err := ev.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	nt := NewTuple(Sym("a"))
	db.Rel("q", 1).Insert(nt)
	// s is untouched by the delta, so the classification admits it.
	if err := ev.RunDelta(map[string][]Tuple{"q": {nt}}); err != nil {
		t.Fatalf("run delta: %v", err)
	}
	if got := rows(ev, "p"); got != "a" {
		t.Fatalf("p = %q, want %q", got, "a")
	}
	if got := rows(ev, "r"); got != "a" {
		t.Errorf("r = %q, want %q (stratum-0 derivation must seed stratum 1)", got, "a")
	}
}

// TestOnDeriveObservesEveryDerivation distinguishes OnDerive from OnNew:
// OnNew fires once per newly inserted tuple, OnDerive once per successful
// body instantiation, so re-derivations (here the same head through two
// rules) are visible with their distinct premise sets.
func TestOnDeriveObservesEveryDerivation(t *testing.T) {
	prog := MustParseProgram(`
		p(X) <- a(X).
		p(X) <- b(X).
	`)
	db := NewDatabase()
	ev := NewEvaluator(db, NewBuiltinSet())
	if err := ev.SetRules(prog.Rules); err != nil {
		t.Fatalf("set rules: %v", err)
	}
	db.Rel("a", 1).Insert(NewTuple(Sym("x")))
	db.Rel("b", 1).Insert(NewTuple(Sym("x")))

	inserted, derived := 0, 0
	var preds []string
	ev.OnNew = func(pred string, tu Tuple) { inserted++ }
	ev.OnDerive = func(pred string, tu Tuple, r *Rule, premises []Premise) {
		derived++
		for _, pr := range premises {
			preds = append(preds, pr.Pred)
		}
	}
	if err := ev.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if inserted != 1 {
		t.Errorf("OnNew fired %d times, want 1 (single fresh tuple)", inserted)
	}
	if derived != 2 {
		t.Errorf("OnDerive fired %d times, want 2 (one per deriving rule)", derived)
	}
	joined := strings.Join(preds, ",")
	if !strings.Contains(joined, "a") || !strings.Contains(joined, "b") {
		t.Errorf("premises = %q, want both a and b derivations observed", joined)
	}
}
