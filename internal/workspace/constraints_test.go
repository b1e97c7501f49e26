package workspace

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// checkProgram exercises every check shape the incremental path handles:
// a schema constraint (aux + fail lowering), a positive-body user fail()
// rule, and a fail() rule with a negated premise (delta-safe only while
// the negated predicate is untouched).
const checkProgram = `
reg: msg(M,U) -> registered(U).
noBanned: fail(U) <- msg(_,U), banned(U).
needOK: fail(X) <- flag(X), !ok(X).
`

func assertOne(t *testing.T, w *Workspace, fact string) error {
	t.Helper()
	return w.Update(func(tx *Tx) error { return tx.Assert(fact) })
}

func TestIncrementalCheckPathTaken(t *testing.T) {
	w := New("alice")
	if err := w.LoadProgram(`reg: msg(M,U) -> registered(U).` + "\nregistered(u0)."); err != nil {
		t.Fatalf("load: %v", err)
	}
	before := w.CheckStats()
	for i := 0; i < 5; i++ {
		if err := assertOne(t, w, fmt.Sprintf("msg(%d, u0)", i)); err != nil {
			t.Fatalf("flush %d: %v", i, err)
		}
	}
	after := w.CheckStats()
	if got := after.Incremental - before.Incremental; got != 5 {
		t.Errorf("incremental checks = %d, want 5 (stats %+v)", got, after)
	}
	if after.Full != before.Full {
		t.Errorf("full checks grew by %d during insert-only flushes", after.Full-before.Full)
	}
	// A violating flush is also caught on the incremental path.
	err := assertOne(t, w, "msg(9, nobody)")
	var verr *ViolationError
	if !errors.As(err, &verr) {
		t.Fatalf("expected ViolationError, got %v", err)
	}
	if got := w.CheckStats().Incremental - after.Incremental; got != 1 {
		t.Errorf("violating flush used incremental path %d times, want 1", got)
	}
	if n := w.Count("msg"); n != 5 {
		t.Errorf("msg has %d rows after rollback, want 5", n)
	}
}

func TestNoConstraintsSkipsCheckEntirely(t *testing.T) {
	w := New("alice")
	if err := w.LoadProgram(`p(X) <- q(X).`); err != nil {
		t.Fatalf("load: %v", err)
	}
	before := w.CheckStats()
	if err := assertOne(t, w, "q(1)"); err != nil {
		t.Fatalf("assert: %v", err)
	}
	s := w.CheckStats()
	if s.Skipped-before.Skipped != 1 || s.Full != before.Full || s.Incremental != before.Incremental {
		t.Errorf("stats = %+v (before %+v), want exactly one skip", s, before)
	}
}

func TestUnrelatedPredicateSkipsCheck(t *testing.T) {
	w := New("alice")
	if err := w.LoadProgram(`reg: msg(M,U) -> registered(U).`); err != nil {
		t.Fatalf("load: %v", err)
	}
	base := w.CheckStats()
	// unrelated is not consulted by any check rule: the dependency index
	// lets the flush skip the check evaluator outright.
	if err := assertOne(t, w, "unrelated(1)"); err != nil {
		t.Fatalf("assert: %v", err)
	}
	s := w.CheckStats()
	if s.Skipped-base.Skipped != 1 {
		t.Errorf("stats = %+v, want a skip for an unindexed predicate", s)
	}
}

func TestUserFailRuleUnderDeltaPath(t *testing.T) {
	w := New("alice")
	if err := w.LoadProgram(`
		nb: fail(U) <- access(U), banned(U).
		access(alice).
	`); err != nil {
		t.Fatalf("load: %v", err)
	}
	before := w.CheckStats()
	err := assertOne(t, w, "banned(alice)")
	var verr *ViolationError
	if !errors.As(err, &verr) {
		t.Fatalf("expected ViolationError, got %v", err)
	}
	if verr.Violations[0].Constraint != "nb" {
		t.Errorf("label = %q, want nb", verr.Violations[0].Constraint)
	}
	if got := w.CheckStats().Incremental - before.Incremental; got != 1 {
		t.Errorf("fail() rule checked incrementally %d times, want 1", got)
	}
	if n := w.Count("banned"); n != 0 {
		t.Errorf("banned has %d rows after rollback, want 0", n)
	}
}

func TestNegatedPremiseGrowthFallsBackToFull(t *testing.T) {
	w := New("alice")
	if err := w.LoadProgram(`needOK: fail() <- flag(X), !ok(X).`); err != nil {
		t.Fatalf("load: %v", err)
	}
	base := w.CheckStats()
	// Growing the negated predicate can only remove violations, but the
	// classification is conservative: it must run the full check.
	if err := assertOne(t, w, "ok(1)"); err != nil {
		t.Fatalf("ok: %v", err)
	}
	s := w.CheckStats()
	if s.Full-base.Full != 1 || s.Incremental != base.Incremental {
		t.Errorf("stats after negated-pred growth = %+v, want one full check", s)
	}
	// A delta not touching the negated predicate stays incremental and
	// still sees the violation through the untouched negation.
	err := assertOne(t, w, "flag(2)")
	var verr *ViolationError
	if !errors.As(err, &verr) {
		t.Fatalf("expected ViolationError, got %v", err)
	}
	if got := w.CheckStats().Incremental - s.Incremental; got != 1 {
		t.Errorf("flag flush incremental checks = %d, want 1", got)
	}
	// The suppressed case also works incrementally.
	if err := assertOne(t, w, "flag(1)"); err != nil {
		t.Fatalf("flag(1) should be suppressed by ok(1): %v", err)
	}
}

func TestRetractionTriggersFullCheckAndCatchesViolation(t *testing.T) {
	w := New("alice")
	if err := w.LoadProgram(`
		c: p(X) -> q(X).
		q(a). p(a).
	`); err != nil {
		t.Fatalf("load: %v", err)
	}
	base := w.CheckStats()
	// Retracting q(a) makes the committed p(a) violate c — only the full
	// re-check can see a violation among old tuples.
	err := w.Update(func(tx *Tx) error { return tx.Retract("q(a)") })
	var verr *ViolationError
	if !errors.As(err, &verr) {
		t.Fatalf("expected ViolationError from retraction, got %v", err)
	}
	s := w.CheckStats()
	if s.Full == base.Full {
		t.Error("retraction flush did not run a full check")
	}
	if s.Incremental != base.Incremental {
		t.Error("retraction flush must not use the incremental path")
	}
	if got, _ := w.Query(`q(a)`); len(got) != 1 {
		t.Error("q(a) lost: violating retraction must roll back")
	}
}

func TestLateAddConstraintChecksExistingFacts(t *testing.T) {
	w := New("alice")
	if err := w.LoadProgram(`p(mallory).`); err != nil {
		t.Fatalf("load: %v", err)
	}
	// The constraint arrives after the violating fact: the full check must
	// run over the pre-existing database and reject the installation.
	err := w.Update(func(tx *Tx) error { return tx.AddConstraintSrc(`c: p(X) -> q(X).`) })
	var verr *ViolationError
	if !errors.As(err, &verr) {
		t.Fatalf("expected ViolationError installing late constraint, got %v", err)
	}
	// After satisfying it, installation succeeds and later flushes are
	// checked incrementally against the seeded aux state.
	if err := assertOne(t, w, "q(mallory)"); err != nil {
		t.Fatalf("q: %v", err)
	}
	if err := w.Update(func(tx *Tx) error { return tx.AddConstraintSrc(`c: p(X) -> q(X).`) }); err != nil {
		t.Fatalf("install: %v", err)
	}
	before := w.CheckStats()
	if err := w.Update(func(tx *Tx) error {
		if err := tx.Assert("q(bob)"); err != nil {
			return err
		}
		return tx.Assert("p(bob)")
	}); err != nil {
		t.Fatalf("ok flush: %v", err)
	}
	if err := assertOne(t, w, "p(eve)"); err == nil {
		t.Fatal("p(eve) without q(eve) should violate")
	}
	s := w.CheckStats()
	if s.Incremental-before.Incremental != 2 {
		t.Errorf("post-install flushes incremental = %d, want 2 (stats %+v)", s.Incremental-before.Incremental, s)
	}
}

func TestRemovedConstraintAuxDoesNotAliasNewConstraint(t *testing.T) {
	w := New("alice")
	if err := w.LoadProgram(`
		a: p(X) -> q(X).
		q(1). p(1).
	`); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := w.Update(func(tx *Tx) error {
		if !tx.RemoveConstraint("a") {
			return errors.New("constraint a not found")
		}
		return tx.AddConstraintSrc(`b: r(X) -> s(X).`)
	}); err != nil {
		t.Fatalf("swap: %v", err)
	}
	// Aux ids are never reused: leftover aux facts from a cannot suppress
	// b's violations.
	if err := assertOne(t, w, "r(1)"); err == nil {
		t.Fatal("r(1) without s(1) should violate b")
	}
	if err := assertOne(t, w, "p(2)"); err != nil {
		t.Fatalf("removed constraint a must no longer fire: %v", err)
	}
}

func TestDefaultConstraintLabelsNeverReused(t *testing.T) {
	w := New("alice")
	if err := w.Update(func(tx *Tx) error {
		if err := tx.AddConstraintSrc(`p(X) -> q(X).`); err != nil {
			return err
		}
		return tx.AddConstraintSrc(`r(X) -> s(X).`)
	}); err != nil {
		t.Fatalf("install: %v", err)
	}
	// Drop the first auto-labeled constraint, then add another unlabeled
	// one: its generated label must not collide with the surviving
	// constraint's (a positional default would reuse it, making the next
	// RemoveConstraint silently drop both).
	if err := w.Update(func(tx *Tx) error {
		if !tx.RemoveConstraint("constraint#1") {
			return fmt.Errorf("constraint#1 not found")
		}
		return tx.AddConstraintSrc(`t(X) -> u(X).`)
	}); err != nil {
		t.Fatalf("swap: %v", err)
	}
	labels := map[string]bool{}
	for _, cc := range w.constraints {
		if labels[cc.label] {
			t.Fatalf("duplicate constraint label %q", cc.label)
		}
		labels[cc.label] = true
	}
	if err := w.Update(func(tx *Tx) error {
		if !tx.RemoveConstraint("constraint#3") {
			return fmt.Errorf("constraint#3 not found")
		}
		return nil
	}); err != nil {
		t.Fatalf("remove: %v", err)
	}
	// The r -> s constraint must have survived both removals.
	if err := assertOne(t, w, "r(1)"); err == nil {
		t.Fatal("r(1) without s(1) should still violate the surviving constraint")
	}
}

// updateFullCheck is Update with the delta-seeded check path ruled out:
// a pending check-rule change makes the flush clear and re-evaluate every
// check from scratch, which is the reference the incremental path is
// compared against.
func updateFullCheck(w *Workspace, fn func(tx *Tx) error) error {
	w.mu.Lock()
	w.constraintsChanged = true
	w.mu.Unlock()
	return w.Update(fn)
}

func TestViolationReportDeterministicAndIdenticalAcrossPaths(t *testing.T) {
	build := func() *Workspace {
		w := New("alice")
		if err := w.LoadProgram(`
			c: t(X) -> u(X).
			j: fail() <- l(X), r(X).
		`); err != nil {
			t.Fatalf("load: %v", err)
		}
		return w
	}
	// Two violating t facts plus a fail() rule whose premises are
	// reachable from two delta seed positions: the report must come out
	// deduplicated and sorted identically either way.
	violate := func(tx *Tx) error {
		for _, f := range []string{"t(2)", "t(1)", "l(9)", "r(9)"} {
			if err := tx.Assert(f); err != nil {
				return err
			}
		}
		return nil
	}
	incr, full := build(), build()
	errIncr, errFull := incr.Update(violate), updateFullCheck(full, violate)
	if errIncr == nil || errFull == nil {
		t.Fatalf("expected violations, got incr=%v full=%v", errIncr, errFull)
	}
	if errIncr.Error() != errFull.Error() {
		t.Errorf("paths disagree:\n incr: %s\n full: %s", errIncr, errFull)
	}
	var verr *ViolationError
	if !errors.As(errIncr, &verr) {
		t.Fatalf("expected ViolationError, got %v", errIncr)
	}
	if len(verr.Violations) != 3 {
		t.Errorf("violations = %d, want 3 (c twice, j once deduplicated): %v", len(verr.Violations), errIncr)
	}
	if incr.CheckStats().Incremental == 0 {
		t.Error("incremental workspace did not use the delta path")
	}
	if full.CheckStats().Incremental != 0 {
		t.Error("forced-full workspace used the delta path")
	}
}

// TestIncrementalFullEquivalenceRandomized replays the same randomized
// flush sequence (asserts, retractions, violating and non-violating, all
// three check shapes) into an incremental and a forced-full workspace and
// requires byte-identical outcomes after every flush.
func TestIncrementalFullEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	incr, full := New("alice"), New("alice")
	for _, w := range []*Workspace{incr, full} {
		if err := w.LoadProgram(checkProgram); err != nil {
			t.Fatalf("load: %v", err)
		}
	}
	users := []string{"u0", "u1", "u2", "u3"}
	ops := 0
	step := func(i int) (string, func(tx *Tx) error) {
		switch rng.Intn(10) {
		case 0, 1:
			u := users[rng.Intn(len(users))]
			return "register " + u, func(tx *Tx) error { return tx.Assert("registered(" + u + ")") }
		case 2, 3, 4:
			u := users[rng.Intn(len(users))]
			f := fmt.Sprintf("msg(%d, %s)", i, u)
			return "assert " + f, func(tx *Tx) error { return tx.Assert(f) }
		case 5:
			u := users[rng.Intn(len(users))]
			return "ban " + u, func(tx *Tx) error { return tx.Assert("banned(" + u + ")") }
		case 6:
			f := fmt.Sprintf("flag(%d)", rng.Intn(8))
			return "assert " + f, func(tx *Tx) error { return tx.Assert(f) }
		case 7:
			f := fmt.Sprintf("ok(%d)", rng.Intn(8))
			return "assert " + f, func(tx *Tx) error { return tx.Assert(f) }
		case 8:
			u := users[rng.Intn(len(users))]
			return "unregister " + u, func(tx *Tx) error { return tx.Retract("registered(" + u + ")") }
		default:
			f := fmt.Sprintf("msg(%d, %s)", rng.Intn(i+1), users[rng.Intn(len(users))])
			return "retract " + f, func(tx *Tx) error { return tx.Retract(f) }
		}
	}
	for i := 0; i < 300; i++ {
		desc, fn := step(i)
		errI, errF := incr.Update(fn), updateFullCheck(full, fn)
		switch {
		case (errI == nil) != (errF == nil):
			t.Fatalf("op %d (%s): incr err %v, full err %v", i, desc, errI, errF)
		case errI != nil && errI.Error() != errF.Error():
			t.Fatalf("op %d (%s) error text diverged:\n incr: %s\n full: %s", i, desc, errI, errF)
		case errI == nil:
			ops++
		}
		for _, pred := range []string{"msg", "registered", "banned", "flag", "ok"} {
			fi, ff := incr.Facts(pred), full.Facts(pred)
			if len(fi) != len(ff) {
				t.Fatalf("op %d (%s): %s diverged: %d vs %d rows", i, desc, pred, len(fi), len(ff))
			}
			for j := range fi {
				if fi[j].Key() != ff[j].Key() {
					t.Fatalf("op %d (%s): %s[%d] = %s vs %s", i, desc, pred, j, fi[j], ff[j])
				}
			}
		}
	}
	if ops == 0 {
		t.Fatal("randomized sequence committed nothing")
	}
	si, sf := incr.CheckStats(), full.CheckStats()
	if si.Incremental == 0 {
		t.Errorf("incremental workspace never used the delta path: %+v", si)
	}
	if sf.Incremental != 0 {
		t.Errorf("forced-full workspace used the delta path: %+v", sf)
	}
}

func TestRuleActivationStaysIncremental(t *testing.T) {
	// Activating an ordinary (non-fail) rule must not force a full check:
	// the derived consequences ride the flush delta instead. This is the
	// says-import hot path.
	w := New("alice")
	if err := w.LoadProgram(`
		d0: data(X) -> src(X).
		says1: active(R) <- says(_, me, R).
		src(1). src(2).
	`); err != nil {
		t.Fatalf("load: %v", err)
	}
	before := w.CheckStats()
	if err := assertOne(t, w, `says(bob, me, [| data(X) <- src(X). |])`); err != nil {
		t.Fatalf("says: %v", err)
	}
	s := w.CheckStats()
	if s.Full != before.Full {
		t.Errorf("rule activation ran %d full checks, want 0 (stats %+v)", s.Full-before.Full, s)
	}
	if got, _ := w.Query(`data(X)`); len(got) != 2 {
		t.Fatalf("data = %d rows, want 2", len(got))
	}
	// A said fail() rule IS a check-rule change and must force a full check.
	if err := assertOne(t, w, `says(bob, me, [| fail() <- src(X), bad(X). |])`); err != nil {
		t.Fatalf("says fail rule: %v", err)
	}
	s2 := w.CheckStats()
	if s2.Full == s.Full {
		t.Error("activating a fail() rule did not force a full check")
	}
	// ...and the new check participates in later incremental flushes.
	if err := assertOne(t, w, "bad(1)"); err == nil {
		t.Fatal("bad(1) should violate the said fail() rule")
	}
}
