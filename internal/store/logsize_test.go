package store

import (
	"os"
	"testing"
)

// TestLogSizeAndNoWaitDurability covers the serving-layer additions to
// the store: LogSize tracks segment growth and resets on checkpoint, and
// LogFlushNoWait + WaitDurable together give FsyncAlways callers
// durability without an fsync inside their critical sections.
func TestLogSizeAndNoWaitDurability(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.LogSize(); got != 0 {
		t.Fatalf("fresh log size = %d", got)
	}
	if err := st.LogFlushNoWait("alice", testJournal()); err != nil {
		t.Fatal(err)
	}
	grown := st.LogSize()
	if grown <= 0 {
		t.Fatalf("log size did not grow after append: %d", grown)
	}
	if err := st.WaitDurable(); err != nil {
		t.Fatal(err)
	}
	// After the barrier the record is on disk.
	f, err := os.Open(walPath(dir, st.Seq()))
	if err != nil {
		t.Fatal(err)
	}
	payloads, valid, truncated, err := readFrames(f)
	f.Close()
	if err != nil || truncated || len(payloads) != 1 {
		t.Fatalf("after WaitDurable: %d records, truncated=%v, err=%v", len(payloads), truncated, err)
	}
	if valid != grown {
		t.Fatalf("on-disk valid prefix %d != LogSize %d", valid, grown)
	}

	// Checkpoint rotates: the new segment starts empty and the
	// generation advances.
	seq := st.Seq()
	if err := st.Checkpoint(nodeSnapshot()); err != nil {
		t.Fatal(err)
	}
	if st.Seq() != seq+1 {
		t.Fatalf("checkpoint did not advance generation: %d -> %d", seq, st.Seq())
	}
	if got := st.LogSize(); got != 0 {
		t.Fatalf("log size after rotation = %d, want 0", got)
	}
}

// TestLogSizeRecoveredPrefix reopens a directory and checks the tip
// segment's recovered bytes count toward LogSize (the auto-checkpoint
// trigger must see a grown log even before new appends).
func TestLogSizeRecoveredPrefix(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.LogFlush("alice", testJournal()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if len(rec.Records) != 1 {
		t.Fatalf("recovered %d records, want 1", len(rec.Records))
	}
	if st2.LogSize() <= 0 {
		t.Fatalf("reopened log size = %d, want the recovered prefix", st2.LogSize())
	}
}
