package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"lbtrust/internal/store"
	"lbtrust/internal/workspace"
)

// queryStrings renders query results for byte-level comparison. Results
// are sorted: Query enumerates the relation's hash map, so its order was
// never deterministic, pre- or post-recovery.
func queryStrings(t *testing.T, p *Principal, q string) []string {
	t.Helper()
	rows, err := p.Query(q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.Key()
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// buildDurableSystem stands up a two-principal RSA system with traffic.
func buildDurableSystem(t *testing.T, dir string, fsync store.FsyncPolicy) *System {
	t.Helper()
	sys, err := OpenSystem(dir, DurableOptions{Fsync: fsync})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	alice, err := sys.AddPrincipal("alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := sys.AddPrincipal("bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.EstablishRSA("alice"); err != nil {
		t.Fatal(err)
	}
	if err := sys.EstablishRSA("bob"); err != nil {
		t.Fatal(err)
	}
	if err := alice.UseScheme(SchemeRSA); err != nil {
		t.Fatal(err)
	}
	if err := bob.UseScheme(SchemeRSA); err != nil {
		t.Fatal(err)
	}
	if err := bob.TrustAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := alice.Say("bob", fmt.Sprintf("greeting(g%d).", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	return sys
}

// TestRecoverFromWALOnly restarts a system that never checkpointed: the
// whole state comes from WAL replay.
func TestRecoverFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	sys := buildDurableSystem(t, dir, store.FsyncOff)
	bob, _ := sys.Principal("bob")
	alice, _ := sys.Principal("alice")
	wantGreetings := queryStrings(t, bob, "greeting(X)")
	wantSays := queryStrings(t, bob, "says(alice, me, R)")
	wantExports := queryStrings(t, alice, "export(bob, R, S)")
	if len(wantGreetings) != 5 {
		t.Fatalf("pre-crash greetings = %d, want 5", len(wantGreetings))
	}
	preStats := sys.Stats()
	if err := sys.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re, err := OpenSystem(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	bob2, ok := re.Principal("bob")
	if !ok {
		t.Fatal("bob not recovered")
	}
	alice2, _ := re.Principal("alice")
	if got := queryStrings(t, bob2, "greeting(X)"); !equalStrings(got, wantGreetings) {
		t.Errorf("recovered greetings = %v, want %v", got, wantGreetings)
	}
	if got := queryStrings(t, bob2, "says(alice, me, R)"); !equalStrings(got, wantSays) {
		t.Errorf("recovered says differ")
	}
	if got := queryStrings(t, alice2, "export(bob, R, S)"); !equalStrings(got, wantExports) {
		t.Errorf("recovered exports differ")
	}
	if alice2.Scheme() != SchemeRSA {
		t.Errorf("recovered scheme = %s, want rsa", alice2.Scheme())
	}
	// A post-recovery Sync must not re-deliver anything: the shipped set
	// was restored, and nothing new was asserted.
	if err := re.Sync(); err != nil {
		t.Fatalf("post-recovery sync: %v", err)
	}
	post := re.Stats()
	if got := post.TuplesDelivered(); got != 0 {
		t.Errorf("post-recovery sync delivered %d tuples, want 0 (pre-crash total was %d)",
			got, preStats.TuplesDelivered())
	}
	if got := post.Totals().MessagesSent; got != 0 {
		t.Errorf("post-recovery sync sent %d messages, want 0", got)
	}
	// The recovered system keeps working: new statements flow end-to-end,
	// signed with the recovered keys.
	if err := alice2.Say("bob", "greeting(after)."); err != nil {
		t.Fatal(err)
	}
	if err := re.Sync(); err != nil {
		t.Fatalf("sync after recovery: %v", err)
	}
	if got := queryStrings(t, bob2, "greeting(X)"); len(got) != 6 {
		t.Errorf("greetings after new Say = %d, want 6", len(got))
	}
}

// TestRecoverFromSnapshotPlusWAL checkpoints mid-run, keeps working, then
// restarts: state comes from the snapshot plus the log tail.
func TestRecoverFromSnapshotPlusWAL(t *testing.T) {
	dir := t.TempDir()
	sys := buildDurableSystem(t, dir, store.FsyncOff)
	if err := sys.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	alice, _ := sys.Principal("alice")
	bob, _ := sys.Principal("bob")
	// Post-checkpoint traffic lands in the rotated log.
	for i := 0; i < 3; i++ {
		if err := alice.Say("bob", fmt.Sprintf("late(l%d).", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Sync(); err != nil {
		t.Fatal(err)
	}
	wantGreetings := queryStrings(t, bob, "greeting(X)")
	wantLate := queryStrings(t, bob, "late(X)")
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenSystem(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	bob2, _ := re.Principal("bob")
	if bob2 == nil {
		t.Fatal("bob not recovered")
	}
	if got := queryStrings(t, bob2, "greeting(X)"); !equalStrings(got, wantGreetings) {
		t.Errorf("recovered greetings = %v, want %v", got, wantGreetings)
	}
	if got := queryStrings(t, bob2, "late(X)"); !equalStrings(got, wantLate) {
		t.Errorf("recovered late = %v, want %v", got, wantLate)
	}
	if err := re.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := re.Stats().TuplesDelivered(); got != 0 {
		t.Errorf("post-recovery sync delivered %d tuples, want 0", got)
	}
}

// TestRecoverAfterRetraction exercises the rebuild path: a logged
// retraction voids the logged deltas, so recovery recomputes derived
// state from base facts and must reach the same answers.
func TestRecoverAfterRetraction(t *testing.T) {
	dir := t.TempDir()
	sys, err := OpenSystem(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	alice, err := sys.AddPrincipal("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.LoadProgram(`
		e0: edge(X,Y) -> .
		path(X,Y) <- edge(X,Y).
		path(X,Z) <- path(X,Y), edge(Y,Z).
	`); err != nil {
		t.Fatal(err)
	}
	if err := alice.Update(func(tx *workspace.Tx) error {
		for _, f := range []string{"edge(a,b)", "edge(b,c)", "edge(c,d)"} {
			if err := tx.Assert(f); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := alice.Update(func(tx *workspace.Tx) error { return tx.Retract("edge(b,c)") }); err != nil {
		t.Fatal(err)
	}
	want := queryStrings(t, alice, "path(X,Y)")
	if len(want) != 2 { // a-b, c-d
		t.Fatalf("paths after retraction = %v, want 2", want)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenSystem(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	alice2, _ := re.Principal("alice")
	if got := queryStrings(t, alice2, "path(X,Y)"); !equalStrings(got, want) {
		t.Errorf("recovered paths = %v, want %v", got, want)
	}
	// Incremental evaluation keeps working after the rebuild-recovery.
	if err := alice2.Update(func(tx *workspace.Tx) error { return tx.Assert("edge(b,c)") }); err != nil {
		t.Fatal(err)
	}
	if got := queryStrings(t, alice2, "path(X,Y)"); len(got) != 6 {
		t.Errorf("paths after re-assert = %d, want 6", len(got))
	}
}

// copyFixture copies one testdata/v1 file — written by the build before
// snapshot format version 2 — into dir.
func copyFixture(t *testing.T, name, dir string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "v1", name))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o600); err != nil {
		t.Fatal(err)
	}
}

// TestV1SnapshotRefused: replace, not fork. A version 1 snapshot (ws-*
// records) is well-formed, so recovery does not fall back from it; the
// one interpreter refuses it with an error naming both versions.
func TestV1SnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	copyFixture(t, "snap-00000001.snap", dir)
	sys, err := OpenSystem(dir, DurableOptions{})
	if err == nil {
		sys.Close()
		t.Fatal("OpenSystem accepted a version 1 snapshot")
	}
	if msg := err.Error(); !strings.Contains(msg, "version 1 ") || !strings.Contains(msg, "version 2 ") {
		t.Errorf("refusal does not name both versions: %v", err)
	}
}

// TestV1LogStillOpens: the flush record only gained op lines, so a
// directory the earlier build never checkpointed replays as it always
// did.
func TestV1LogStillOpens(t *testing.T) {
	dir := t.TempDir()
	copyFixture(t, "wal-00000000.log", dir)
	sys, err := OpenSystem(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("OpenSystem on a version 1 log: %v", err)
	}
	defer sys.Close()
	alice, ok := sys.Principal("alice")
	if !ok {
		t.Fatal("alice not recovered")
	}
	if got := queryStrings(t, alice, "greeting(X)"); len(got) != 1 {
		t.Errorf("recovered greetings = %v, want the one logged", got)
	}
}
