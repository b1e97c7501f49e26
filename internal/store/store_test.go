package store

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"lbtrust/internal/datalog"
	"lbtrust/internal/workspace"
)

func testJournal() *workspace.FlushJournal {
	code := datalog.NewCode(datalog.MustParseClause(`says(alice, bob, [| access(P, o1, read). |]).`))
	return &workspace.FlushJournal{
		Facts: []workspace.FactChange{
			{Pred: "says", Tuple: datalog.NewTuple(datalog.Sym("alice"), datalog.Sym("bob"), code)},
			{Pred: "old", Tuple: datalog.NewTuple(datalog.Int(-3), datalog.String("x\ty\nz")), Retract: true},
			{Pred: "prin", Tuple: datalog.NewTuple(datalog.Sym("alice"))},
		},
		Changed: map[string][]datalog.Tuple{
			"rule": {datalog.NewTuple(code)},
			"arg":  {datalog.NewTuple(datalog.Entity{Sort: "atom", ID: 4}, datalog.Int(1), datalog.Entity{Sort: "term", ID: 5})},
		},
		Schema: []workspace.SchemaChange{
			{Kind: workspace.SchemaRuleAdd, Rule: workspace.RuleChange{Code: code, Owner: datalog.Sym("alice")}},
			{Kind: workspace.SchemaRuleAdd, Rule: workspace.RuleChange{Code: code, Derived: true}},
			{Kind: workspace.SchemaRuleRemove, Code: code},
			{Kind: workspace.SchemaConstraintAdd, Constraint: workspace.ConstraintChange{AuxID: 3, Label: "exp3", Source: "p(V0)->q(V0)."}},
			{Kind: workspace.SchemaConstraintRemove, Label: "exp3"},
		},
	}
}

// captureJournal is testJournal plus the two fields only a capture sets.
func captureJournal() *workspace.FlushJournal {
	j := testJournal()
	j.AuxSeq = 7
	j.Decls = []workspace.Decl{{Name: "export", Arity: 2, Partitioned: true}, {Name: "odd name", Arity: 0}}
	return j
}

// nodeSnapshot is a Checkpoint capture whose body is one node record per
// name.
func nodeSnapshot(names ...string) func() (uint64, [][]byte, error) {
	return func() (uint64, [][]byte, error) {
		var payloads [][]byte
		for _, n := range names {
			payloads = append(payloads, (&Record{Kind: KindNode, Fields: []string{n}}).Encode())
		}
		return 0, payloads, nil
	}
}

// kinds lists the kinds of recovered records, in order.
func kinds(records []*Record) string {
	var out []string
	for _, r := range records {
		out = append(out, r.Kind)
	}
	return strings.Join(out, " ")
}

func TestFlushRecordRoundTrip(t *testing.T) {
	j := captureJournal()
	payload := EncodeFlushPayload("alice", j)
	r, err := parseRecord(payload)
	if err != nil {
		t.Fatalf("parseRecord: %v", err)
	}
	principal, back, err := DecodeFlush(r)
	if err != nil {
		t.Fatalf("DecodeFlush: %v", err)
	}
	if principal != "alice" {
		t.Errorf("principal = %q", principal)
	}
	if len(back.Facts) != len(j.Facts) {
		t.Fatalf("facts round trip: %d ops, want %d", len(back.Facts), len(j.Facts))
	}
	for i, f := range back.Facts {
		want := j.Facts[i]
		if f.Pred != want.Pred || f.Retract != want.Retract || !f.Tuple.Equal(want.Tuple) {
			t.Errorf("facts[%d] = %+v, want %+v (order and retract flags must survive)", i, f, want)
		}
	}
	if len(back.Changed["rule"]) != 1 || len(back.Changed["arg"]) != 1 {
		t.Errorf("changed round trip: %+v", back.Changed)
	}
	if !back.Changed["arg"][0].Equal(j.Changed["arg"][0]) {
		t.Errorf("entity tuple changed: %v vs %v", back.Changed["arg"][0], j.Changed["arg"][0])
	}
	if back.AuxSeq != j.AuxSeq || !slices.Equal(back.Decls, j.Decls) {
		t.Errorf("capture fields round trip: aux %d decls %+v, want %d %+v", back.AuxSeq, back.Decls, j.AuxSeq, j.Decls)
	}
	// Boundary rule (a): the two capture-only op lines are the whole
	// difference; an ordinary flush's bytes do not change.
	plain := string(EncodeFlushPayload("alice", testJournal()))
	if want := strings.Replace(string(payload), "\naux 7\ndecl \"export\" 2 1\ndecl \"odd name\" 0 0", "", 1); plain != want {
		t.Errorf("ordinary flush payload differs from the capture's beyond the aux/decl lines:\n%s\nvs\n%s", plain, want)
	}
	if len(back.Schema) != len(j.Schema) {
		t.Fatalf("schema round trip: %d ops, want %d", len(back.Schema), len(j.Schema))
	}
	for i, op := range back.Schema {
		want := j.Schema[i]
		if op.Kind != want.Kind {
			t.Errorf("schema[%d] kind = %d, want %d (order must be preserved)", i, op.Kind, want.Kind)
		}
		switch op.Kind {
		case workspace.SchemaRuleAdd:
			if op.Rule.Owner != want.Rule.Owner || op.Rule.Derived != want.Rule.Derived || op.Rule.Code.Key() != want.Rule.Code.Key() {
				t.Errorf("schema[%d] rule round trip: %+v", i, op.Rule)
			}
		case workspace.SchemaRuleRemove:
			if op.Code.Key() != want.Code.Key() {
				t.Errorf("schema[%d] rule-remove round trip", i)
			}
		case workspace.SchemaConstraintAdd:
			if op.Constraint != want.Constraint {
				t.Errorf("schema[%d] constraint round trip: %+v", i, op.Constraint)
			}
		case workspace.SchemaConstraintRemove:
			if op.Label != want.Label {
				t.Errorf("schema[%d] constraint-remove round trip", i)
			}
		}
	}
}

// TestWALTruncationAtEveryOffset simulates a crash after every possible
// byte count: the recovered prefix must always be a clean record
// sequence, never an error or panic.
func TestWALTruncationAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	j := testJournal()
	const records = 5
	for i := 0; i < records; i++ {
		if err := st.LogFlush("alice", j); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := walPath(dir, 0)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recordSize := len(full) / records

	for cut := 0; cut <= len(full); cut += 7 {
		sub := t.TempDir()
		cutPath := walPath(sub, 0)
		if err := os.WriteFile(cutPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st2, rec, err := Open(sub, Options{Fsync: FsyncOff})
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		wantRecords := cut / recordSize
		if len(rec.Records) != wantRecords {
			t.Errorf("cut=%d: recovered %d records, want %d", cut, len(rec.Records), wantRecords)
		}
		if (cut%recordSize != 0) != rec.Truncated {
			t.Errorf("cut=%d: truncated=%v", cut, rec.Truncated)
		}
		// The reopened log must accept appends after the truncation point
		// and recover them on the next open.
		if err := st2.LogFlush("alice", j); err != nil {
			t.Fatalf("cut=%d: append after truncate: %v", cut, err)
		}
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
		_, rec2, err := Open(sub, Options{Fsync: FsyncOff})
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if len(rec2.Records) != wantRecords+1 {
			t.Errorf("cut=%d: after re-append recovered %d records, want %d", cut, len(rec2.Records), wantRecords+1)
		}
	}
}

// TestWALBitFlipEndsPrefix flips one byte in the middle of the log: the
// CRC must reject the damaged record and everything after it.
func TestWALBitFlipEndsPrefix(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	j := testJournal()
	for i := 0; i < 4; i++ {
		if err := st.LogFlush("alice", j); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	path := walPath(dir, 0)
	data, _ := os.ReadFile(path)
	recordSize := len(data) / 4
	// Flip a payload byte inside the third record.
	data[2*recordSize+frameHeaderSize+10] ^= 0x40
	os.WriteFile(path, data, 0o644)

	_, rec, err := Open(dir, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 2 || !rec.Truncated {
		t.Errorf("recovered %d records (truncated=%v), want 2 truncated", len(rec.Records), rec.Truncated)
	}
}

// TestTornSnapshotFallsBack verifies that a snapshot missing its end
// marker is ignored in favor of the previous generation.
func TestTornSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(nodeSnapshot("n1")); err != nil {
		t.Fatal(err)
	}
	oldSeq := st.Seq()
	// Grow the log so the next checkpoint rotates to a new generation (an
	// empty tip segment is reused, not rotated).
	if err := st.LogFlush("alice", testJournal()); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(nodeSnapshot("n1", "n2")); err != nil {
		t.Fatal(err)
	}
	newSeq := st.Seq()
	if newSeq == oldSeq {
		t.Fatalf("checkpoint over a grown log did not rotate (seq %d)", newSeq)
	}
	st.Close()

	// Only the newest generation survives a checkpoint; recreate an older
	// one, then tear the newest snapshot.
	_, body, _ := nodeSnapshot("n1")()
	if err := writeSnapshotFile(dir, snapPath(dir, oldSeq), 0, body); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(walPath(dir, oldSeq), nil, 0o644)
	data, err := os.ReadFile(snapPath(dir, newSeq))
	if err != nil {
		t.Fatal(err)
	}
	os.WriteFile(snapPath(dir, newSeq), data[:len(data)-4], 0o644) // cut the end marker's frame

	_, rec, err := Open(dir, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if got := kinds(rec.Records); got != "snap-begin node" {
		t.Fatalf("recovery did not fall back to generation 1: recovered %q", got)
	}
}

func TestCheckpointRotatesAndDeletes(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	j := testJournal()
	st.LogFlush("alice", j)
	if err := st.Checkpoint(nodeSnapshot("local")); err != nil {
		t.Fatal(err)
	}
	st.LogFlush("alice", j)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 {
		t.Fatalf("dir holds %v, want exactly one snapshot + one log", names)
	}
	if _, err := os.Stat(walPath(dir, 0)); !os.IsNotExist(err) {
		t.Error("old log generation not deleted")
	}
	_, rec, err := Open(dir, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if got := kinds(rec.Records); got != "snap-begin node flush" {
		t.Errorf("recovered %q, want the snapshot's records then 1 log record", got)
	}
}

// TestFsyncAlwaysDurableBeforeReturn checks the record is on disk when
// Append returns under FsyncAlways.
func TestFsyncAlwaysDurableBeforeReturn(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.LogFlush("alice", testJournal()); err != nil {
		t.Fatal(err)
	}
	// Read the file without closing the store: the record must be there.
	f, err := os.Open(walPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	payloads, _, truncated, err := readFrames(f)
	if err != nil || truncated || len(payloads) != 1 {
		t.Fatalf("on-disk log after FsyncAlways append: %d records, truncated=%v, err=%v", len(payloads), truncated, err)
	}
}

// TestSnapshotWorkspaceRoundTrip takes a workspace through the path
// a checkpoint and recovery take: CaptureJournal → flush payloads →
// records → DecodeFlush → ApplyJournal + FinishRestore.
func TestSnapshotWorkspaceRoundTrip(t *testing.T) {
	ws := workspace.New("alice")
	if err := ws.LoadProgram(`
		e0: export[U1](U2) -> prin(U1), prin(U2).
		r1: out(X) <- src(X).
		c1: src(X) -> allowed(X).
		allowed(a). allowed(b). src(a). prin(alice). prin(bob).
	`); err != nil {
		t.Fatal(err)
	}
	re := workspace.New("alice")
	dec := datalog.NewDecoder()
	for _, j := range ws.CaptureJournal() {
		parsed, err := parseRecord(EncodeFlushPayload("alice", j))
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		principal, back, err := DecodeFlushWith(parsed, dec)
		if err != nil || principal != "alice" {
			t.Fatalf("decode: principal %q, err %v", principal, err)
		}
		if err := re.ApplyJournal(back); err != nil {
			t.Fatalf("apply: %v", err)
		}
	}
	if err := re.FinishRestore(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	for _, pred := range []string{"allowed", "src", "out", "prin", "active"} {
		want := ws.Facts(pred)
		gotFacts := re.Facts(pred)
		if len(want) != len(gotFacts) {
			t.Errorf("%s: %d vs %d facts", pred, len(gotFacts), len(want))
			continue
		}
		for i := range want {
			if !want[i].Equal(gotFacts[i]) {
				t.Errorf("%s[%d]: %v vs %v", pred, i, gotFacts[i], want[i])
			}
		}
	}
	if !slices.Equal(re.Decls(), ws.Decls()) {
		t.Errorf("declarations: %+v vs %+v", re.Decls(), ws.Decls())
	}
	// The restored workspace enforces the restored constraint.
	err := re.Update(func(tx *workspace.Tx) error { return tx.Assert("src(zzz)") })
	if err == nil {
		t.Error("restored constraint c1 not enforced")
	}
	if err := ws.Update(func(tx *workspace.Tx) error { return tx.Assert("src(zzz)") }); err == nil {
		t.Error("original constraint c1 not enforced (test invalid)")
	}
}

func TestGenerationsScan(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"snap-00000003.snap", "wal-00000003.log", "wal-00000007.log", "junk.txt"} {
		os.WriteFile(filepath.Join(dir, name), nil, 0o644)
	}
	got, err := generations(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Errorf("generations = %v, want [3 7]", got)
	}
}

func TestRecordHeaderRejectsGarbage(t *testing.T) {
	for _, bad := range [][]byte{
		[]byte(""),
		[]byte(`flush "unterminated`),
		[]byte("flush noquotes"),
	} {
		if r, err := parseRecord(bad); err == nil && len(r.Fields) > 0 {
			t.Errorf("parseRecord(%q) accepted fields %v", bad, r.Fields)
		}
	}
	// A record with a bad op line must error in DecodeFlush, not panic.
	r, err := parseRecord([]byte("flush \"alice\" \"0\"\n?? bogus"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeFlush(r); err == nil {
		t.Error("DecodeFlush accepted bogus op line")
	}
}

func TestFrameScannerStopsAtOversizedLength(t *testing.T) {
	var buf bytes.Buffer
	frame := appendFrame(nil, []byte("hello"))
	buf.Write(frame)
	// A frame claiming 2GB: scanner must stop, not allocate.
	buf.Write([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	payloads, _, truncated, err := readFrames(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 1 || !truncated {
		t.Errorf("scan = %d records truncated=%v, want 1 truncated", len(payloads), truncated)
	}
}

// TestCorruptOnlySnapshotErrors: a directory whose only snapshot is
// unreadable must fail to open, not come up as a silently empty system.
func TestCorruptOnlySnapshotErrors(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	st.LogFlush("alice", testJournal())
	if err := st.Checkpoint(nodeSnapshot("local")); err != nil {
		t.Fatal(err)
	}
	st.Close()
	data, err := os.ReadFile(snapPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	os.WriteFile(snapPath(dir, 1), data, 0o600)
	if _, _, err := Open(dir, Options{Fsync: FsyncOff}); err == nil {
		t.Fatal("Open accepted a directory whose only snapshot is corrupt")
	}
}

// TestInterruptedCheckpointReplaysBothSegments: a crash between log
// rotation and the snapshot write leaves snap-N, wal-N, wal-N+1;
// recovery must replay both segments on top of snap-N.
func TestInterruptedCheckpointReplaysBothSegments(t *testing.T) {
	dir := t.TempDir()
	_, body, _ := nodeSnapshot("local")()
	if err := writeSnapshotFile(dir, snapPath(dir, 1), 0, body); err != nil {
		t.Fatal(err)
	}
	j := testJournal()
	var walA, walB []byte
	walA = appendFrame(walA, EncodeFlushPayload("alice", j))
	walA = appendFrame(walA, EncodeFlushPayload("alice", j))
	walB = appendFrame(walB, EncodeFlushPayload("bob", j))
	os.WriteFile(walPath(dir, 1), walA, 0o600)
	os.WriteFile(walPath(dir, 2), walB, 0o600)

	st, rec, err := Open(dir, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if got := kinds(rec.Records); got != "snap-begin node flush flush flush" {
		t.Fatalf("recovered %q, want the snapshot then 3 records across both segments", got)
	}
	if p, _, _ := DecodeFlush(rec.Records[4]); p != "bob" {
		t.Errorf("segment order wrong: last record from %q, want bob", p)
	}
	// New appends must land in the newest segment.
	if err := st.LogFlush("carol", j); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec2, err := Open(dir, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if got := kinds(rec2.Records); got != "snap-begin node flush flush flush flush" {
		t.Errorf("after append: recovered %q, want 4 log records", got)
	}
}

// TestWALFilePermissions: the log carries key material; it must not be
// world-readable.
func TestWALFilePermissions(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	st.LogFlush("alice", testJournal())
	if err := st.Checkpoint(nodeSnapshot()); err != nil {
		t.Fatal(err)
	}
	st.Close()
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		if info.Mode().Perm()&0o077 != 0 {
			t.Errorf("%s has mode %v, want no group/other access", e.Name(), info.Mode())
		}
	}
}

// TestUnparsableRecordTruncatedAtItsOffset: a record that frames
// correctly but does not parse ends the usable prefix of the tip segment
// at its own first byte. Truncating after it instead would leave it in
// the file, and everything appended on later opens — acknowledged writes
// — would sit behind it and be dropped by every recovery.
func TestUnparsableRecordTruncatedAtItsOffset(t *testing.T) {
	dir := t.TempDir()
	node := func(n string) *Record { return &Record{Kind: KindNode, Fields: []string{n}} }
	st, _, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range [][]byte{node("n1").Encode(), []byte(" broken"), node("n2").Encode()} {
		if err := st.AppendPayload(payload); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	st, rec, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if got := kinds(rec.Records); got != "node" || !rec.Truncated {
		t.Fatalf("recovered %q truncated=%v, want the one record before the bad one, truncated", got, rec.Truncated)
	}
	if want := int64(len(appendFrame(nil, node("n1").Encode()))); st.LogSize() != want {
		t.Errorf("log size after truncation = %d, want %d (the bad record's offset)", st.LogSize(), want)
	}
	if err := st.Append(node("n3")); err != nil {
		t.Fatal(err)
	}
	st.Close()

	_, rec, err = Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 2 || rec.Records[1].Fields[0] != "n3" || rec.Truncated {
		t.Errorf("recovered %q truncated=%v, want n1 and the acknowledged n3 with a clean tail", kinds(rec.Records), rec.Truncated)
	}
}

// TestUnparsableRecordInOlderSegmentErrors: only the newest segment may
// end early. An unparsable record in an older one is damage in the middle
// of the log, and skipping the rest of that segment to carry on with the
// next would replay a log with a hole in it.
func TestUnparsableRecordInOlderSegmentErrors(t *testing.T) {
	dir := t.TempDir()
	good := (&Record{Kind: KindNode, Fields: []string{"n1"}}).Encode()
	older := appendFrame(appendFrame(appendFrame(nil, good), []byte(" broken")), good)
	os.WriteFile(walPath(dir, 1), older, 0o600)
	os.WriteFile(walPath(dir, 2), appendFrame(nil, good), 0o600)
	if _, _, err := Open(dir, Options{Fsync: FsyncOff}); err == nil {
		t.Fatal("Open replayed past an unparsable record in a non-tip segment")
	}
}

// TestSnapshotBracket: which snapshot files recovery takes, falls back
// from, or refuses outright. Structure — CRC, headers, bracket — decides
// fallback; the format version is the interpreter's to refuse, so a
// well-formed version 1 file is recovered here and rejected by
// DecodeSnapBegin with both versions named.
func TestSnapshotBracket(t *testing.T) {
	begin := snapBegin(9).Encode()
	end := (&Record{Kind: KindSnapEnd}).Encode()
	node := (&Record{Kind: KindNode, Fields: []string{"n1"}}).Encode()
	v1 := []byte(`snap-begin "1" "9"`)
	for _, tc := range []struct {
		name     string
		payloads [][]byte
		want     string // recovered kinds; "" = unreadable
	}{
		{"complete", [][]byte{begin, node, end}, "snap-begin node"},
		{"empty body", [][]byte{begin, end}, "snap-begin"},
		{"version 1", [][]byte{v1, node, []byte(`ws "alice" "0"`), end}, "snap-begin node ws"},
		{"no end marker", [][]byte{begin, node}, ""},
		{"no begin marker", [][]byte{node, end}, ""},
		{"records after end", [][]byte{begin, end, node}, ""},
		{"nested begin", [][]byte{begin, begin, end}, ""},
		{"unparsable header", [][]byte{begin, []byte(" broken"), end}, ""},
		{"empty file", nil, ""},
	} {
		dir := t.TempDir()
		var file []byte
		for _, p := range tc.payloads {
			file = appendFrame(file, p)
		}
		os.WriteFile(snapPath(dir, 1), file, 0o600)
		_, rec, err := Open(dir, Options{Fsync: FsyncOff})
		if tc.want == "" {
			if err == nil {
				t.Errorf("%s: Open accepted the snapshot (%q)", tc.name, kinds(rec.Records))
			}
			continue
		}
		if err != nil || kinds(rec.Records) != tc.want {
			t.Errorf("%s: recovered %q, err %v; want %q", tc.name, kinds(rec.Records), err, tc.want)
			continue
		}
		gen, err := DecodeSnapBegin(rec.Records[0])
		if tc.name == "version 1" {
			if err == nil || !strings.Contains(err.Error(), "version 1 ") || !strings.Contains(err.Error(), "version 2 ") {
				t.Errorf("version 1 snap-begin: err = %v, want a refusal naming versions 1 and 2", err)
			}
		} else if err != nil || gen != 9 {
			t.Errorf("%s: DecodeSnapBegin = %d, %v; want 9", tc.name, gen, err)
		}
	}
	for _, bad := range []string{`snap-begin "2"`, `snap-begin "2" "junk"`, `snap-begin "2" "-1"`, `snap-begin "2" ""`, `snap-begin`} {
		r, err := parseRecord([]byte(bad))
		if err != nil {
			t.Fatal(err)
		}
		if gen, err := DecodeSnapBegin(r); err == nil {
			t.Errorf("DecodeSnapBegin(%s) = %d, want an error", bad, gen)
		}
	}
}
