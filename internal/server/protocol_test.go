package server

import (
	"net"
	"strings"
	"testing"

	"lbtrust/internal/datalog"
	"lbtrust/internal/dist"
)

func TestRowsRoundTrip(t *testing.T) {
	rows := []datalog.Tuple{
		datalog.NewTuple(datalog.Sym("u2"), datalog.String("two\nlines"), datalog.Int(-2)),
		datalog.NewTuple(datalog.Sym("u1"), datalog.NewCode(datalog.MustParseClause(`m(X) <- n(X, "q\"").`)), datalog.Int(1)),
		datalog.NewTuple(),
	}
	frame := string(encodeRows(rows))
	payload, ok := strings.CutPrefix(frame, "rows ")
	if !ok {
		t.Fatalf("frame %q does not start with the rows status", frame)
	}
	got, err := decodeRows(payload)
	if err != nil {
		t.Fatalf("decodeRows: %v", err)
	}
	if len(got) != len(rows) {
		t.Fatalf("decoded %d rows, want %d", len(got), len(rows))
	}
	for i := range rows { // encodeRows sorted rows in place
		if !got[i].Equal(rows[i]) {
			t.Errorf("row %d: decoded %v, want %v", i, got[i], rows[i])
		}
	}
}

func TestDecodeRowsRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"",
		"junk\n",
		"3junk\ny\"a\"\ny\"b\"\ny\"c\"\n", // count is not exactly a decimal
		"-1\n",
		"2\ny\"a\"\n",          // truncated
		"1\ny\"a\"\ny\"b\"\n",  // a row beyond the declared count
		"1\ny\"a\"\n\n",        // trailing bytes
		"1\ny\"a\"",            // last line unterminated
		"1\nt(a)\n",            // lbtrust-serve/1 row syntax
		"1\ne\"atom\"17\n",     // entity on the wire
		"1\ny\"a b\"\n",        // symbol is not a symbol token
		"1\ny\"x). evil(y\"\n", // clause text smuggled in a symbol
		"1\np\"a b\"y\"z\"\n",  // partition predicate is not a symbol token
		"1\ny\"a\"\t\n",        // trailing tab: an empty last column
		"999999999\n",
	} {
		if rows, err := decodeRows(bad); err == nil {
			t.Errorf("decodeRows(%q) accepted malformed input as %v", bad, rows)
		}
	}
}

// TestDialRefusesRetiredGreeting: a /1 server rendered rows as Datalog
// source; the client refuses it by name at the greeting.
func TestDialRefusesRetiredGreeting(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_ = dist.WriteFrame(conn, []byte("lbtrust-serve/1 system")) // the dial below fails if this does
	}()
	c, err := Dial(ln.Addr().String())
	if err == nil {
		c.Close()
		t.Fatal("Dial accepted an lbtrust-serve/1 greeting")
	}
	if !strings.Contains(err.Error(), `"lbtrust-serve/1"`) || !strings.Contains(err.Error(), Magic) {
		t.Fatalf("refusal %q does not name both versions", err)
	}
}
