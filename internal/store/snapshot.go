package store

import (
	"fmt"
	"io"
	"os"
)

// readRecords is the one frames → records reader, shared by snapshot
// files and log segments. It stops at the first frame that is torn,
// fails its CRC, or — having framed correctly — no longer parses as a
// record, and reports the byte offset at which that frame starts: the
// length of the usable prefix, which is where a tip log segment is
// truncated so that new appends follow the last good record.
func readRecords(r io.Reader) (records []*Record, good int64, torn bool, err error) {
	payloads, _, torn, err := readFrames(r)
	if err != nil {
		return nil, 0, false, err
	}
	for _, p := range payloads {
		rec, perr := parseRecord(p)
		if perr != nil {
			return records, good, true, nil
		}
		records = append(records, rec)
		good += frameHeaderSize + int64(len(p))
	}
	return records, good, torn, nil
}

// writeSnapshotFile writes the bracketed record stream to path atomically:
// temp file, fsync, rename, directory fsync.
func writeSnapshotFile(dir, path string, gen uint64, payloads [][]byte) error {
	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	buf := appendFrame(nil, snapBegin(gen).Encode())
	for _, payload := range payloads {
		buf = appendFrame(buf, payload)
	}
	buf = appendFrame(buf, (&Record{Kind: KindSnapEnd}).Encode())
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// readSnapshotFile loads a snapshot file and checks what a torn or
// damaged write can break: every frame's CRC, every record header, and
// the snap-begin … snap-end bracket. It returns the records without the
// end marker. What the records mean — the format version included — is
// the replaying interpreter's business, and a failure there is a hard
// error, not a reason to fall back a generation.
func readSnapshotFile(path string) ([]*Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	records, _, torn, err := readRecords(f)
	if err != nil {
		return nil, err
	}
	if torn {
		return nil, fmt.Errorf("store: snapshot has a corrupt frame")
	}
	if len(records) == 0 || records[0].Kind != KindSnapBegin {
		return nil, fmt.Errorf("store: snapshot does not start with %s", KindSnapBegin)
	}
	body := records[:len(records)-1]
	if records[len(records)-1].Kind != KindSnapEnd {
		return nil, fmt.Errorf("store: snapshot missing end marker (torn write)")
	}
	for _, r := range body[1:] {
		if r.Kind == KindSnapBegin || r.Kind == KindSnapEnd {
			return nil, fmt.Errorf("store: %s record inside snapshot", r.Kind)
		}
	}
	return body, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Directory fsync is advisory on some platforms; ignore its error.
	_ = d.Sync()
	return nil
}
