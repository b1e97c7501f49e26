package workspace

import (
	"errors"
	"strings"
	"testing"

	"lbtrust/internal/datalog"
	"lbtrust/internal/obs"
)

func TestLoadProgramAndQuery(t *testing.T) {
	w := New("alice")
	err := w.LoadProgram(`
		edge(a,b). edge(b,c).
		path(X,Y) <- edge(X,Y).
		path(X,Z) <- path(X,Y), edge(Y,Z).
	`)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	got, err := w.Query(`path(a, X)`)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(got) != 2 {
		t.Errorf("path(a,X) returned %d rows, want 2", len(got))
	}
}

func TestConstraintViolationRollsBack(t *testing.T) {
	w := New("alice")
	err := w.LoadProgram(`
		principal(alice). principal(bob).
		access(P,O,M) -> principal(P).
		access(alice, file1, read).
	`)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	// mallory is not a principal: the paper's Section 3.2 example.
	err = w.Update(func(tx *Tx) error { return tx.Assert(`access(mallory, file1, read)`) })
	var verr *ViolationError
	if !errors.As(err, &verr) {
		t.Fatalf("expected ViolationError, got %v", err)
	}
	// The violating fact must be gone and prior state intact.
	if n := w.Count("access"); n != 1 {
		t.Errorf("access has %d rows after rollback, want 1", n)
	}
	if got, _ := w.Query(`access(alice, file1, read)`); len(got) != 1 {
		t.Error("pre-existing fact lost in rollback")
	}
}

func TestUserFailRule(t *testing.T) {
	w := New("alice")
	err := w.LoadProgram(`
		principal(alice).
		noMallory: fail() <- access(P,_,_), !principal(P).
		access(alice, o, read).
	`)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	err = w.Update(func(tx *Tx) error { return tx.Assert(`access(eve, o, read)`) })
	var verr *ViolationError
	if !errors.As(err, &verr) {
		t.Fatalf("expected ViolationError from fail() rule, got %v", err)
	}
	if verr.Violations[0].Constraint != "noMallory" {
		t.Errorf("violation label = %q, want noMallory", verr.Violations[0].Constraint)
	}
}

func TestTypeDeclarationConstraint(t *testing.T) {
	w := New("alice")
	// Paper Section 3.2: every argument constrained.
	err := w.LoadProgram(`
		principal(alice). object(file1). mode(read).
		access(P,O,M) -> principal(P), object(O), mode(M).
		access(alice, file1, read).
	`)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := w.Update(func(tx *Tx) error { return tx.Assert(`access(alice, file1, destroy)`) }); err == nil {
		t.Error("unknown mode should violate the type constraint")
	}
}

func TestMultiValueViolationMessage(t *testing.T) {
	w := New("alice")
	err := w.LoadProgram(`
		lim: hasLimit(U) -> limit(U,N), N > 0.
		limit(bob, 0).
	`)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	err = w.Update(func(tx *Tx) error { return tx.Assert(`hasLimit(bob)`) })
	if err == nil {
		t.Fatal("expected violation")
	}
	if !strings.Contains(err.Error(), "lim") {
		t.Errorf("error %q should mention constraint label lim", err)
	}
}

func TestMetaConstraintOwnerAccess(t *testing.T) {
	// The Section 3.3 example: a principal may only read predicates they
	// have been granted access to. (The paper's declaration owner(R,P)
	// puts the rule first; its meta-constraint listing flips the
	// arguments. We follow the declaration.)
	w := New("alice")
	err := w.LoadProgram(`
		mcr: owner([| A <- P(T2*), A*. |], U) -> access(U,P,read).
		access(alice, public, read).
	`)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	// alice owns a rule reading public: allowed.
	err = w.Update(func(tx *Tx) error {
		return tx.AddRuleSrc(`derived(X) <- public(X)`)
	})
	if err != nil {
		t.Fatalf("allowed rule rejected: %v", err)
	}
	// alice owns a rule reading secret: rejected, and rolled back.
	err = w.Update(func(tx *Tx) error {
		return tx.AddRuleSrc(`leak(X) <- secret(X)`)
	})
	var verr *ViolationError
	if !errors.As(err, &verr) {
		t.Fatalf("expected meta-constraint violation, got %v", err)
	}
	if len(w.ActiveRules()) != 1 {
		t.Errorf("active rules = %d after rollback, want 1", len(w.ActiveRules()))
	}
}

func TestSaysActivation(t *testing.T) {
	// says1: rules said to me become active (Section 4.1).
	w := New("alice")
	err := w.LoadProgram(`
		says0: says(U1,U2,R) -> .
		says1: active(R) <- says(_, me, R).
		data(1). data(2).
	`)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	err = w.Update(func(tx *Tx) error {
		return tx.Assert(`says(bob, me, [| doubled(X) <- data(X). |])`)
	})
	if err != nil {
		t.Fatalf("say rule: %v", err)
	}
	if got, _ := w.Query(`doubled(X)`); len(got) != 2 {
		t.Errorf("doubled has %d rows, want 2 (said rule should be active)", len(got))
	}
	// A fact (empty-body rule) can also be communicated.
	err = w.Update(func(tx *Tx) error {
		return tx.Assert(`says(bob, me, [| data(3). |])`)
	})
	if err != nil {
		t.Fatalf("say fact: %v", err)
	}
	if got, _ := w.Query(`doubled(3)`); len(got) != 1 {
		t.Error("fact said by bob should flow through the activated rule")
	}
}

func TestSpeaksFor(t *testing.T) {
	// sf0: alice activates anything bob says (Section 4.2).
	w := New("alice")
	err := w.LoadProgram(`
		sf0: active(R) <- says(bob, me, R).
	`)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := w.Update(func(tx *Tx) error {
		return tx.Assert(`says(bob, me, [| ok(1). |])`)
	}); err != nil {
		t.Fatalf("update: %v", err)
	}
	if got, _ := w.Query(`ok(1)`); len(got) != 1 {
		t.Error("bob speaks for alice: ok(1) should hold")
	}
	// carol does not speak for alice.
	if err := w.Update(func(tx *Tx) error {
		return tx.Assert(`says(carol, me, [| bad(1). |])`)
	}); err != nil {
		t.Fatalf("update: %v", err)
	}
	if got, _ := w.Query(`bad(1)`); len(got) != 0 {
		t.Error("carol must not speak for alice")
	}
}

func TestPatternConstraintMayRead(t *testing.T) {
	// Section 4.1 authorization: says rules are only accepted from
	// principals with mayRead on every body predicate.
	w := New("alice")
	err := w.LoadProgram(`
		mayR: says(U, me, [| A <- P(T*), A*. |]) -> mayRead(U,P).
		mayRead(bob, data).
	`)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := w.Update(func(tx *Tx) error {
		return tx.Assert(`says(bob, me, [| out(X) <- data(X). |])`)
	}); err != nil {
		t.Fatalf("authorized says rejected: %v", err)
	}
	err = w.Update(func(tx *Tx) error {
		return tx.Assert(`says(bob, me, [| out(X) <- secret(X). |])`)
	})
	if err == nil {
		t.Error("says reading secret should violate mayRead")
	}
}

func TestThresholdDelegation(t *testing.T) {
	// Section 4.2.2: credit OK when at least 3 bureaus concur.
	w := New("bank")
	err := w.LoadProgram(`
		wd0: creditOK(C) -> customer(C).
		wd1: creditOK(C) <- creditOKCount(C,N), N >= 3.
		wd2: creditOKCount(C,N) <- agg<<N = count(U)>>
			pringroup(U, creditBureau),
			says(U, me, [| creditOK(C). |]).
		customer(carol).
		pringroup(b1, creditBureau). pringroup(b2, creditBureau). pringroup(b3, creditBureau).
	`)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	say := func(bureau string) error {
		return w.Update(func(tx *Tx) error {
			return tx.Assert(`says(` + bureau + `, me, [| creditOK(carol). |])`)
		})
	}
	if err := say("b1"); err != nil {
		t.Fatalf("b1: %v", err)
	}
	if err := say("b2"); err != nil {
		t.Fatalf("b2: %v", err)
	}
	if got, _ := w.Query(`creditOK(carol)`); len(got) != 0 {
		t.Error("2 of 3 bureaus should not satisfy the threshold")
	}
	if err := say("b3"); err != nil {
		t.Fatalf("b3: %v", err)
	}
	if got, _ := w.Query(`creditOK(carol)`); len(got) != 1 {
		t.Error("3 bureaus should satisfy the threshold")
	}
}

func TestWeightedThreshold(t *testing.T) {
	w := New("bank")
	err := w.LoadProgram(`
		creditOK(C) <- creditWeight(C,N), N >= 10.
		creditWeight(C,N) <- agg<<N = total(Wt)>>
			reliability(U, Wt),
			says(U, me, [| creditOK(C). |]).
		reliability(b1, 4). reliability(b2, 7).
	`)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := w.Update(func(tx *Tx) error {
		return tx.Assert(`says(b1, me, [| creditOK(carol). |])`)
	}); err != nil {
		t.Fatalf("b1: %v", err)
	}
	if got, _ := w.Query(`creditOK(carol)`); len(got) != 0 {
		t.Error("weight 4 below threshold 10")
	}
	if err := w.Update(func(tx *Tx) error {
		return tx.Assert(`says(b2, me, [| creditOK(carol). |])`)
	}); err != nil {
		t.Fatalf("b2: %v", err)
	}
	if got, _ := w.Query(`creditOK(carol)`); len(got) != 1 {
		t.Error("weight 11 should pass threshold 10")
	}
}

func TestRetraction(t *testing.T) {
	w := New("alice")
	err := w.LoadProgram(`
		path(X,Y) <- edge(X,Y).
		path(X,Z) <- path(X,Y), edge(Y,Z).
		edge(a,b). edge(b,c).
	`)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got, _ := w.Query(`path(a,c)`); len(got) != 1 {
		t.Fatal("path(a,c) should hold")
	}
	if err := w.Update(func(tx *Tx) error { return tx.Retract(`edge(b,c)`) }); err != nil {
		t.Fatalf("retract: %v", err)
	}
	if got, _ := w.Query(`path(a,c)`); len(got) != 0 {
		t.Error("path(a,c) should be withdrawn after retraction")
	}
	if got, _ := w.Query(`path(a,b)`); len(got) != 1 {
		t.Error("path(a,b) should survive")
	}
}

func TestRemoveRule(t *testing.T) {
	w := New("alice")
	if err := w.LoadProgram(`
		p(X) <- q(X).
		q(1).
	`); err != nil {
		t.Fatalf("load: %v", err)
	}
	if got, _ := w.Query(`p(1)`); len(got) != 1 {
		t.Fatal("p(1) should hold")
	}
	rules := w.ActiveRules()
	if len(rules) != 1 {
		t.Fatalf("active rules = %d, want 1", len(rules))
	}
	if err := w.Update(func(tx *Tx) error { return tx.RemoveRule(rules[0]) }); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if got, _ := w.Query(`p(1)`); len(got) != 0 {
		t.Error("p(1) should be withdrawn after rule removal")
	}
}

func TestProvenance(t *testing.T) {
	w := New("alice")
	if err := w.EnableProvenance(0); err != nil {
		t.Fatalf("enable provenance: %v", err)
	}
	if err := w.LoadProgram(`
		tc1: path(X,Y) <- edge(X,Y).
		tc2: path(X,Z) <- path(X,Y), edge(Y,Z).
		edge(a,b). edge(b,c).
	`); err != nil {
		t.Fatalf("load: %v", err)
	}
	tup := datalog.NewTuple(datalog.Sym("a"), datalog.Sym("c"))
	proof, err := w.Explain("path", tup)
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	if proof.Rule == nil || proof.Rule.Label != "tc2" {
		t.Fatalf("path(a,c) should be derived by tc2, got %+v", proof)
	}
	why := proof.Render()
	for _, want := range []string{"tc2", "edge(b, c)", "base fact"} {
		if !strings.Contains(why, want) {
			t.Errorf("rendered proof missing %q:\n%s", want, why)
		}
	}
	if err := w.VerifyProof(proof); err != nil {
		t.Errorf("proof does not verify: %v\n%s", err, why)
	}
}

// TestProvenanceLateEnable proves EnableProvenance captures state loaded
// before the call: OnDerive fires on every instantiation, so the full run
// at enable time rebuilds the DAG.
func TestProvenanceLateEnable(t *testing.T) {
	w := New("alice")
	if err := w.LoadProgram(`
		tc1: path(X,Y) <- edge(X,Y).
		tc2: path(X,Z) <- path(X,Y), edge(Y,Z).
		edge(a,b). edge(b,c).
	`); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := w.EnableProvenance(0); err != nil {
		t.Fatalf("enable provenance: %v", err)
	}
	tup := datalog.NewTuple(datalog.Sym("a"), datalog.Sym("c"))
	proof, err := w.Explain("path", tup)
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	if proof.Rule == nil {
		t.Fatal("late-enabled provenance recorded no derivation for path(a,c)")
	}
	if err := w.VerifyProof(proof); err != nil {
		t.Errorf("proof does not verify: %v", err)
	}
}

func TestMeSpecialization(t *testing.T) {
	w := New("alice")
	if err := w.LoadProgram(`
		mine(X) <- holds(me, X).
		holds(me, key1).
		holds(bob, key2).
	`); err != nil {
		t.Fatalf("load: %v", err)
	}
	got, err := w.Query(`mine(X)`)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(got) != 1 || got[0].At(0).Key() != datalog.Sym("key1").Key() {
		t.Errorf("mine = %v, want [key1]", got)
	}
	// me in queries also resolves to the local principal.
	if got, _ := w.Query(`holds(me, X)`); len(got) != 1 {
		t.Error("holds(me,X) should resolve me to alice")
	}
}

func TestTransactionalRuleGeneration(t *testing.T) {
	// del1-style code generation: a delegation fact generates a speaks-for
	// rule (Section 4.2).
	w := New("alice")
	err := w.LoadProgram(`
		del1: active([| active(R) <- says(U2, me, R), R = [| P(T*) <- A*. |]. |]) <-
			delegates(me, U2, P).
	`)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := w.Update(func(tx *Tx) error {
		return tx.Assert(`delegates(me, bob, credit)`)
	}); err != nil {
		t.Fatalf("delegate: %v", err)
	}
	// bob can now assert credit rules...
	if err := w.Update(func(tx *Tx) error {
		return tx.Assert(`says(bob, me, [| credit(carol). |])`)
	}); err != nil {
		t.Fatalf("says: %v", err)
	}
	if got, _ := w.Query(`credit(carol)`); len(got) != 1 {
		t.Error("delegated predicate should be derivable from bob's say")
	}
	// ...but not other predicates.
	if err := w.Update(func(tx *Tx) error {
		return tx.Assert(`says(bob, me, [| other(x). |])`)
	}); err != nil {
		t.Fatalf("says other: %v", err)
	}
	if got, _ := w.Query(`other(x)`); len(got) != 0 {
		t.Error("non-delegated predicate must not activate")
	}
}

func TestDuplicateRuleIsNoop(t *testing.T) {
	w := New("alice")
	if err := w.LoadProgram(`p(X) <- q(X).`); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := w.Update(func(tx *Tx) error {
		return tx.AddRuleSrc(`p(Y) <- q(Y)`) // alpha-equivalent
	}); err != nil {
		t.Fatalf("re-add: %v", err)
	}
	if n := len(w.ActiveRules()); n != 1 {
		t.Errorf("active rules = %d, want 1 (alpha-equivalent rules are identical)", n)
	}
}

func TestPartitionedDeclaration(t *testing.T) {
	w := New("alice")
	if err := w.LoadProgram(`
		exp0: export[U1](U2,R,S) -> .
	`); err != nil {
		t.Fatalf("load: %v", err)
	}
	parts := w.PartitionedPredicates()
	if len(parts) != 1 || parts[0] != "export" {
		t.Errorf("partitioned = %v, want [export]", parts)
	}
}

func TestErrorInTxFunctionRollsBack(t *testing.T) {
	w := New("alice")
	if err := w.LoadProgram(`base(1).`); err != nil {
		t.Fatalf("load: %v", err)
	}
	sentinel := errors.New("boom")
	err := w.Update(func(tx *Tx) error {
		if err := tx.Assert(`base(2)`); err != nil {
			return err
		}
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if n := w.Count("base"); n != 1 {
		t.Errorf("base has %d rows after rollback, want 1", n)
	}
}

func TestFlushDeltaReportsAssertedAndDerived(t *testing.T) {
	w := New("alice")
	if err := w.LoadProgram(`
		d0: out[U1](M) -> prin(U1).
		derive: out[bob](M) <- in(M).
	`); err != nil {
		t.Fatal(err)
	}
	var deltas []FlushDelta
	w.AddOnFlush(func(d FlushDelta) { deltas = append(deltas, d) })

	if err := w.Update(func(tx *Tx) error {
		if err := tx.Assert("prin(bob)"); err != nil {
			return err
		}
		return tx.Assert("in(hello)")
	}); err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 1 {
		t.Fatalf("hooks fired %d times, want 1", len(deltas))
	}
	d := deltas[0]
	if d.Rebuilt {
		t.Fatal("pure insertion flagged as rebuilt")
	}
	if got := d.Changed["in"]; len(got) != 1 {
		t.Errorf("asserted base fact missing from delta: %v", d.Changed)
	}
	// The derived out tuple must be in the delta without rescanning.
	if got := d.Changed["out"]; len(got) != 1 || !got[0].Equal(datalog.NewTuple(datalog.Sym("bob"), datalog.Sym("hello"))) {
		t.Errorf("derived tuple missing from delta: %v", d.Changed["out"])
	}

	// A second flush reports only the second flush's tuples.
	if err := w.Update(func(tx *Tx) error { return tx.Assert("in(again)") }); err != nil {
		t.Fatal(err)
	}
	d = deltas[1]
	if got := d.Changed["out"]; len(got) != 1 || !got[0].Equal(datalog.NewTuple(datalog.Sym("bob"), datalog.Sym("again"))) {
		t.Errorf("second delta = %v, want only the fresh derivation", d.Changed["out"])
	}

	// Retractions rebuild derived state: no per-tuple delta, Rebuilt set.
	if err := w.Update(func(tx *Tx) error { return tx.Retract("in(hello)") }); err != nil {
		t.Fatal(err)
	}
	d = deltas[2]
	if !d.Rebuilt || d.Changed != nil {
		t.Errorf("retraction delta = %+v, want Rebuilt with nil Changed", d)
	}

	// Failed transactions fire no hook.
	n := len(deltas)
	if err := w.Update(func(tx *Tx) error { return tx.Assert("out[nobody](x)") }); err == nil {
		t.Fatal("constraint violation expected")
	}
	if len(deltas) != n {
		t.Errorf("hook fired on a rolled-back transaction")
	}
}

// TestPristineFailedUpdateDoesNotRebuild: a transaction whose fn fails
// before recording any change has nothing to roll back, so it must not
// pay the rebuild-from-base (which replaces the database and, under RSA,
// re-signs every export while holding the workspace lock).
func TestPristineFailedUpdateDoesNotRebuild(t *testing.T) {
	o := &obs.Obs{Registry: obs.NewRegistry()}
	w := New("alice")
	w.SetObs(o)
	if err := w.LoadProgram(`edge(a,b). path(X,Y) <- edge(X,Y).`); err != nil {
		t.Fatalf("load: %v", err)
	}
	fullRuns := o.Registry.Counter("lb_eval_runs_total", "", "mode", "full")
	db, runs := w.DB(), fullRuns.Value()
	for _, src := range []string{"garbage((", "p(X) <- q(X)"} {
		if err := w.Update(func(tx *Tx) error { return tx.Retract(src) }); err == nil {
			t.Fatalf("Retract(%q) succeeded", src)
		}
	}
	if w.DB() != db {
		t.Error("failed pristine Update replaced the database")
	}
	if got := fullRuns.Value(); got != runs {
		t.Errorf("failed pristine Update ran %d full evaluations, want 0", got-runs)
	}

	// A failure after a recorded change still unwinds it.
	err := w.Update(func(tx *Tx) error {
		if err := tx.Assert("edge(b,c)"); err != nil {
			return err
		}
		return tx.Retract("garbage((")
	})
	if err == nil {
		t.Fatal("update with unparsable retract succeeded")
	}
	if n := w.Count("path"); n != 1 {
		t.Errorf("path has %d rows after rollback, want 1", n)
	}
}

// TestAssertAcceptsAnyTrailingSpace: a fact arriving with a CRLF line
// ending (a Windows-edited file, a telnet-style client) is the same fact.
func TestAssertAcceptsAnyTrailingSpace(t *testing.T) {
	w := New("alice")
	for _, src := range []string{"p(a)", "p(a).", "p(a).\r\n", "p(a) \t\r\n"} {
		if err := w.Update(func(tx *Tx) error { return tx.Assert(src) }); err != nil {
			t.Errorf("Assert(%q): %v", src, err)
		}
	}
	if n := w.Count("p"); n != 1 {
		t.Errorf("p has %d rows, want 1", n)
	}
	if err := w.Update(func(tx *Tx) error { return tx.Retract("p(a).\r\n") }); err != nil {
		t.Errorf("Retract with CRLF: %v", err)
	}
	if n := w.Count("p"); n != 0 {
		t.Errorf("p has %d rows after retract, want 0", n)
	}
}

// TestCheckStatsReadsSumAcrossWorkspaces: the constraint-check family
// reads every attached workspace's CheckStats at scrape time, summed, and
// attaching the same workspace twice does not double its share.
func TestCheckStatsReadsSumAcrossWorkspaces(t *testing.T) {
	o := &obs.Obs{Registry: obs.NewRegistry()}
	a, b := New("alice"), New("bob")
	a.SetObs(o)
	b.SetObs(o)
	a.SetObs(o)
	for _, w := range []*Workspace{a, b, a} {
		if err := w.Update(func(tx *Tx) error { return tx.Assert("edge(a,b)") }); err != nil {
			t.Fatal(err)
		}
	}
	want := a.CheckStats().Skipped + b.CheckStats().Skipped
	if want != 3 {
		t.Fatalf("skipped checks = %d, want 3", want)
	}
	var sb strings.Builder
	o.Registry.WritePrometheus(&sb)
	if line := `lb_workspace_constraint_checks_total{path="skipped"} 3`; !strings.Contains(sb.String(), line) {
		t.Errorf("exposition missing %q in:\n%s", line, sb.String())
	}
}
