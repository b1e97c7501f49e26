package store

import (
	"bytes"
	"testing"

	"lbtrust/internal/datalog"
	"lbtrust/internal/workspace"
)

// FuzzReadFrames feeds arbitrary bytes to the log scanner: it must never
// panic, must only return CRC-clean payloads, and the valid-prefix length
// it reports must itself rescan to the same records (the truncation
// recovery invariant).
func FuzzReadFrames(f *testing.F) {
	var good []byte
	good = appendFrame(good, []byte("flush \"alice\" \"0\""))
	good = appendFrame(good, EncodeFlushPayload("bob", testJournal()))
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		payloads, valid, truncated, err := readFrames(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("readFrames returned error: %v", err)
		}
		if valid > int64(len(data)) {
			t.Fatalf("valid prefix %d exceeds input %d", valid, len(data))
		}
		if !truncated && valid != int64(len(data)) {
			t.Fatalf("not truncated but valid %d != len %d", valid, len(data))
		}
		again, validAgain, _, _ := readFrames(bytes.NewReader(data[:valid]))
		if len(again) != len(payloads) || validAgain != valid {
			t.Fatalf("rescan of valid prefix: %d/%d records, %d/%d bytes",
				len(again), len(payloads), validAgain, valid)
		}
		// Every recovered payload must at worst fail to parse — never
		// panic — through the record and flush decoders.
		for _, p := range payloads {
			r, err := parseRecord(p)
			if err != nil {
				continue
			}
			if r.Kind == KindFlush {
				_, _, _ = DecodeFlush(r)
			}
		}
	})
}

// FuzzDecodeFlush feeds arbitrary payloads to the flush codec, which
// carries all durable workspace state — log flushes and snapshot captures
// alike. It must never panic, and a journal it accepts must re-encode to
// a fixed point: encode(decode(p)) decodes again, and encodes to the same
// bytes.
func FuzzDecodeFlush(f *testing.F) {
	f.Add(EncodeFlushPayload("alice", testJournal()))
	f.Add(EncodeFlushPayload("bob", captureJournal()))
	f.Add(EncodeFlushPayload("carol", &workspace.FlushJournal{Rebuilt: true}))
	for _, s := range []string{
		"flush \"alice\" \"0\"\naux 3\ndecl \"p\" 2 1",
		"flush \"alice\" \"0\"\naux -1",
		"flush \"alice\" \"0\"\naux 1x",
		"flush \"alice\" \"0\"\ndecl \"p\" 2",
		"flush \"alice\" \"0\"\ndecl \"p\" -2 0",
		"flush \"alice\" \"0\"\ndecl p 2 0",
		"flush \"alice\" \"0\"\n+ \"p\" y\"a\"\t",
		"flush \"alice\" \"0\"\nr+ \"alice\" 1 \"p(X) <- q(X).\"",
		"flush \"alice\" \"0\"\nc+ 2x \"l\" \"p(V0)->q(V0).\"",
		"flush \"alice\"",
		"node \"n1\"",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := parseRecord(payload)
		if err != nil {
			return
		}
		principal, j, err := DecodeFlush(r)
		if err != nil {
			return
		}
		enc := EncodeFlushPayload(principal, j)
		r2, err := parseRecord(enc)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", enc, payload, err)
		}
		principal2, j2, err := DecodeFlush(r2)
		if err != nil {
			t.Fatalf("re-decode of %q (from %q): %v", enc, payload, err)
		}
		if again := EncodeFlushPayload(principal2, j2); !bytes.Equal(again, enc) {
			t.Fatalf("not a fixed point:\n%q\nthen\n%q", enc, again)
		}
	})
}

// FuzzDecodeValue checks the tagged value codec never panics and
// round-trips whatever it accepts.
func FuzzDecodeValue(f *testing.F) {
	for _, s := range []string{
		`y"alice"`, `s"x\ty"`, `i-9`, `e"atom"3`, `c"p(V0)."`, `p"export"y"bob"`,
		`y"unterminated`, `q"nope"`, ``, `i`, `c"broken(`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := datalog.DecodeValue(s)
		if err != nil {
			return
		}
		enc := datalog.EncodeValue(v)
		back, err := datalog.DecodeValue(enc)
		if err != nil {
			t.Fatalf("re-decode of %q (from %q): %v", enc, s, err)
		}
		if back.Key() != v.Key() {
			t.Fatalf("round trip of %q: %q != %q", s, back.Key(), v.Key())
		}
	})
}
