package workspace

import (
	"testing"

	"lbtrust/internal/datalog"
)

// replayCapture loads live's captured journals into a fresh workspace of
// the same principal, without finishing the restore.
func replayCapture(t *testing.T, live *Workspace, journals []*FlushJournal) *Workspace {
	t.Helper()
	re := New(string(live.principal))
	for _, j := range journals {
		if err := re.ApplyJournal(j); err != nil {
			t.Fatal(err)
		}
	}
	return re
}

// TestRestoreRebuildKeepsPatternActivations is the sendlog recovery shape
// in miniature: a pattern rule activates codes carried by says facts; a
// restore followed by a rebuild must re-derive the same activations.
func TestRestoreRebuildKeepsPatternActivations(t *testing.T) {
	src := `
		s0: says(U1,U2,R) -> prin(U1), prin(U2).
		lsAct: active(R) <- says(_, me, R), R = [| reach(me,D). |].
		prin(alice). prin(bob).
		says(bob, me, [| reach(me, x1). |]).
		says(bob, me, [| reach(me, x2). |]).
	`
	live := New("alice")
	if err := live.LoadProgram(src); err != nil {
		t.Fatal(err)
	}
	if got := live.Count("reach"); got != 2 {
		t.Fatalf("live reach = %d, want 2", got)
	}

	re := replayCapture(t, live, live.CaptureJournal())
	if err := re.FinishRestore(); err != nil {
		t.Fatal(err)
	}
	if got := re.Count("reach"); got != 2 {
		t.Errorf("restored reach = %d, want 2", got)
	}
	// Force a rebuild on both and compare.
	for name, w := range map[string]*Workspace{"live": live, "restored": re} {
		if err := w.Update(func(tx *Tx) error { return tx.Assert("scratch(s)") }); err != nil {
			t.Fatal(err)
		}
		if err := w.Update(func(tx *Tx) error { return tx.Retract("scratch(s)") }); err != nil {
			t.Fatal(err)
		}
		if got := w.Count("reach"); got != 2 {
			t.Errorf("%s after rebuild: reach = %d, want 2", name, got)
		}
		if got := w.Count("active"); got != live.Count("active") {
			t.Errorf("%s after rebuild: active = %d, want %d", name, got, live.Count("active"))
		}
	}
}

// TestRestoreRebuildImportedPatternActivations mirrors the sendlog
// recovery shape exactly: codes arrive in base import tuples, says is
// derived, and the pattern rule activates the carried codes.
func TestRestoreRebuildImportedPatternActivations(t *testing.T) {
	src := `
		imp0: import[U1](U2,R,S) -> prin(U1), prin(U2), string(S).
		exp2: says(U,me,R) <- import[me](U,R,S).
		lsAct: active(R) <- says(_, me, R), R = [| reach(me,D). |].
		prin(alice). prin(bob).
		import[me](bob, [| reach(me, x1). |], "sig1").
		import[me](bob, [| reach(me, x2). |], "sig2").
	`
	live := New("alice")
	if err := live.LoadProgram(src); err != nil {
		t.Fatal(err)
	}
	if got := live.Count("reach"); got != 2 {
		t.Fatalf("live reach = %d, want 2", got)
	}
	re := replayCapture(t, live, live.CaptureJournal())
	if err := re.FinishRestore(); err != nil {
		t.Fatal(err)
	}
	if got := re.Count("reach"); got != 2 {
		t.Errorf("restored reach = %d, want 2", got)
	}
	for name, w := range map[string]*Workspace{"live": live, "restored": re} {
		if err := w.Update(func(tx *Tx) error { return tx.Assert("scratch(s)") }); err != nil {
			t.Fatal(err)
		}
		if err := w.Update(func(tx *Tx) error { return tx.Retract("scratch(s)") }); err != nil {
			t.Fatal(err)
		}
		if got := w.Count("reach"); got != 2 {
			t.Errorf("%s after rebuild: reach = %d, want 2", name, got)
		}
	}
}

// TestFinishRestoreRebuildPath forces the rebuild path (as a logged
// scheme-change does) and checks pattern activations re-derive.
func TestFinishRestoreRebuildPath(t *testing.T) {
	src := `
		imp0: import[U1](U2,R,S) -> prin(U1), prin(U2), string(S).
		exp2: says(U,me,R) <- import[me](U,R,S).
		lsAct: active(R) <- says(_, me, R), R = [| reach(me,D). |].
		prin(alice). prin(bob).
		import[me](bob, [| reach(me, x1). |], "sig1").
		import[me](bob, [| reach(me, x2). |], "sig2").
	`
	live := New("alice")
	if err := live.LoadProgram(src); err != nil {
		t.Fatal(err)
	}
	re := replayCapture(t, live, live.CaptureJournal())
	if err := re.ApplyJournal(&FlushJournal{Rebuilt: true}); err != nil {
		t.Fatal(err)
	}
	if err := re.FinishRestore(); err != nil {
		t.Fatal(err)
	}
	if got, want := re.Count("reach"), live.Count("reach"); got != want {
		t.Errorf("rebuild-restored reach = %d, want %d", got, want)
	}
	if got, want := re.Count("active"), live.Count("active"); got != want {
		t.Errorf("rebuild-restored active = %d, want %d", got, want)
	}
	if got, want := re.Count("says"), live.Count("says"); got != want {
		t.Errorf("rebuild-restored says = %d, want %d", got, want)
	}
}

// TestFinishRestoreRebuildPathReparsedCodes mirrors real recovery: rule
// codes are re-parsed from their canonical text (as WAL/snapshot records
// store them), not shared with the live AST.
func TestFinishRestoreRebuildPathReparsedCodes(t *testing.T) {
	src := `
		imp0: import[U1](U2,R,S) -> prin(U1), prin(U2), string(S).
		exp2: says(U,me,R) <- import[me](U,R,S).
		lsAct: active(R) <- says(_, me, R), R = [| reach(me,D). |].
		prin(alice). prin(bob).
		import[me](bob, [| reach(me, x1). |], "sig1").
		import[me](bob, [| reach(me, x2). |], "sig2").
	`
	live := New("alice")
	if err := live.LoadProgram(src); err != nil {
		t.Fatal(err)
	}
	journals := live.CaptureJournal()
	for i, op := range journals[0].Schema {
		if op.Kind != SchemaRuleAdd {
			continue
		}
		reparsed, err := datalog.ParseClause(string(op.Rule.Code.Canonical()))
		if err != nil {
			t.Fatalf("reparse %s: %v", op.Rule.Code.Canonical(), err)
		}
		journals[0].Schema[i].Rule.Code = datalog.NewCode(reparsed)
		if journals[0].Schema[i].Rule.Code.Key() != op.Rule.Code.Key() {
			t.Fatalf("canonical key drift for %s", op.Rule.Code.Canonical())
		}
	}
	re := replayCapture(t, live, journals)
	if err := re.ApplyJournal(&FlushJournal{Rebuilt: true}); err != nil {
		t.Fatal(err)
	}
	if err := re.FinishRestore(); err != nil {
		t.Fatal(err)
	}
	if got, want := re.Count("reach"), live.Count("reach"); got != want {
		t.Errorf("reparsed-rebuild reach = %d, want %d", got, want)
	}
	if got, want := re.Count("active"), live.Count("active"); got != want {
		t.Errorf("reparsed-rebuild active = %d, want %d", got, want)
	}
}

// TestApplyJournalAddThenRemoveSameRule replays a transaction that adds
// and then removes the same rule: the recovered workspace must end with
// the rule inactive, exactly as it committed.
func TestApplyJournalAddThenRemoveSameRule(t *testing.T) {
	live := New("alice")
	if err := live.LoadProgram("src(a)."); err != nil {
		t.Fatal(err)
	}
	var captured *FlushJournal
	live.SetJournal(func(j *FlushJournal) { captured = j })
	r, err := datalog.ParseClause("out(X) <- src(X).")
	if err != nil {
		t.Fatal(err)
	}
	code := SpecializeCode(r, "alice")
	if err := live.Update(func(tx *Tx) error {
		if err := tx.AddRule(r); err != nil {
			return err
		}
		return tx.RemoveRule(code)
	}); err != nil {
		t.Fatal(err)
	}
	if captured == nil {
		t.Fatal("no journal captured")
	}
	if n := len(live.ActiveRules()); n != 0 {
		t.Fatalf("live has %d active rules, want 0", n)
	}
	re := New("alice")
	if err := re.ApplyJournal(captured); err != nil {
		t.Fatal(err)
	}
	if err := re.FinishRestore(); err != nil {
		t.Fatal(err)
	}
	for _, c := range re.ActiveRules() {
		if c.Key() == code.Key() {
			t.Error("removed rule resurrected by replay")
		}
	}
	if got := re.Count("out"); got != 0 {
		t.Errorf("replayed workspace derives out (%d tuples) through a removed rule", got)
	}
}

// constraintIDs lists the aux ids of w's installed constraints by label.
func constraintIDs(w *Workspace) map[string]int {
	out := map[string]int{}
	for _, op := range w.CaptureJournal()[0].Schema {
		if op.Kind == SchemaConstraintAdd {
			out[op.Constraint.Label] = op.Constraint.AuxID
		}
	}
	return out
}

// TestCaptureCarriesDeclsAndAuxSeq pins what a capture must say that its
// schema list cannot: a partitioned declaration outlives the constraint
// that declared it, and the aux id counter outlives removed constraints.
// A workspace restored from a capture agrees with one restored from the
// flush log on both, and a constraint added afterwards gets the id the
// never-restarted workspace hands out — never one still in use.
func TestCaptureCarriesDeclsAndAuxSeq(t *testing.T) {
	live := New("alice")
	var log []*FlushJournal
	live.SetJournal(func(j *FlushJournal) { log = append(log, j) })
	if err := live.LoadProgram(`
		e0: export[U1](U2) -> prin(U1), prin(U2).
		c1: src(X) -> allowed(X).
		c2: allowed(X) -> allowed(X).
		prin(alice). prin(bob). allowed(a). src(a). export[bob](alice).
	`); err != nil {
		t.Fatal(err)
	}
	if err := live.Update(func(tx *Tx) error {
		if !tx.RemoveConstraint("e0") || !tx.RemoveConstraint("c2") {
			t.Error("constraints e0 and c2 were not installed")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	fromLog := replayCapture(t, live, log)
	fromCapture := replayCapture(t, live, live.CaptureJournal())
	all := map[string]*Workspace{"live": live, "log replay": fromLog, "capture replay": fromCapture}
	for name, w := range all {
		if w != live {
			if err := w.FinishRestore(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if got := w.PartitionedPredicates(); len(got) != 1 || got[0] != "export" {
			t.Errorf("%s: partitioned predicates = %v, want [export] to survive e0's removal", name, got)
		}
		if rel, ok := w.DB().Get("export"); !ok || !rel.Partitioned || rel.Len() != 1 {
			t.Errorf("%s: export relation lost its tuple or its partitioned flag", name)
		}
		if got, want := w.Decls(), live.Decls(); len(got) != len(want) {
			t.Errorf("%s: %d declarations, want %d", name, len(got), len(want))
		}
		if err := w.Update(func(tx *Tx) error { return tx.AddConstraintSrc("c3: src(X) -> src(X).") }); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	want := constraintIDs(live)
	if want["c3"] <= want["c1"] || len(want) != 2 {
		t.Fatalf("live constraint ids = %v, want c1 and a later c3", want)
	}
	for name, w := range all {
		got := constraintIDs(w)
		if got["c1"] != want["c1"] || got["c3"] != want["c3"] {
			t.Errorf("%s: constraint ids = %v, want %v (c3 past every id ever issued)", name, got, want)
		}
	}
}

// TestCaptureSplitsLargeWorkspaces: a workspace larger than captureChunk
// is captured as several journals — schema in the first — and replays to
// the same contents.
func TestCaptureSplitsLargeWorkspaces(t *testing.T) {
	live := New("alice")
	if err := live.LoadProgram("r1: out(X) <- src(X)."); err != nil {
		t.Fatal(err)
	}
	if err := live.Update(func(tx *Tx) error {
		for i := 0; i < captureChunk+10; i++ {
			if err := tx.AssertTuple("src", datalog.NewTuple(datalog.Int(int64(i)))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	journals := live.CaptureJournal()
	if len(journals) < 3 {
		t.Fatalf("captured %d journals for %d tuples, want at least 3", len(journals), 2*(captureChunk+10))
	}
	for i, j := range journals {
		n := len(j.Facts)
		for _, tuples := range j.Changed {
			n += len(tuples)
		}
		if n > captureChunk {
			t.Errorf("journal %d carries %d tuples, want at most %d", i, n, captureChunk)
		}
		if i > 0 && (len(j.Schema) != 0 || len(j.Decls) != 0 || j.AuxSeq != 0) {
			t.Errorf("journal %d repeats schema state", i)
		}
	}
	re := replayCapture(t, live, journals)
	if err := re.FinishRestore(); err != nil {
		t.Fatal(err)
	}
	for _, pred := range []string{"src", "out", "active", "rule"} {
		if got, want := re.Count(pred), live.Count(pred); got != want {
			t.Errorf("%s: restored %d tuples, want %d", pred, got, want)
		}
	}
	if got, want := len(re.BaseFacts("src")), captureChunk+10; got != want {
		t.Errorf("restored %d base src facts, want %d", got, want)
	}
}
