package server

import (
	"strings"
	"testing"

	"lbtrust/internal/datalog"
)

// The two parsers a peer's bytes reach before any authentication: the
// request frame on the server side and the rows payload on the client
// side. Run with `go test -run Fuzz` for the seed corpus or
// `go test -fuzz FuzzParseRequest` to explore.

func FuzzParseRequest(f *testing.F) {
	for _, s := range []string{
		"hello alice", "auth 00ff", "query perm(U, O, read)", "explain greeting(X)",
		"assert color(red).", "retract color(red).", "say bob greeting(hello).",
		"say bob\nmulti(\n  line).", "sync", "stats",
		"", "query", "say bob", "say  ", "sync now", "launch missiles", "query\n", "\x00\xff",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := parseRequest(data) // must never panic
		if err != nil {
			return
		}
		switch req.verb {
		case "hello", "auth", "query", "explain", "assert", "retract":
			if req.text == "" {
				t.Fatalf("accepted %s without its argument: %q", req.verb, data)
			}
		case "say":
			if req.to == "" || req.text == "" {
				t.Fatalf("accepted say without destination or clause: %q", data)
			}
		case "sync", "stats":
		default:
			t.Fatalf("accepted unknown verb %q: %q", req.verb, data)
		}
	})
}

func FuzzDecodeRows(f *testing.F) {
	valid := encodeRows([]datalog.Tuple{
		datalog.NewTuple(datalog.Sym("u1"), datalog.String("x\ty"), datalog.Int(-3)),
		datalog.NewTuple(datalog.NewCode(datalog.MustParseClause(`says(X,me,[| m(1). |]).`)), datalog.PartRef{Pred: "export", Arg: datalog.Sym("bob")}),
		datalog.NewTuple(),
	})
	f.Add(strings.TrimPrefix(string(valid), "rows "))
	for _, s := range []string{
		"0\n", "1\ny\"a\"\n", "3junk\ny\"a\"\n", "1\ny\"a\"\ny\"b\"\n", "2\ny\"a\"\n",
		"-1\n", "999999999\n", "1\nt(a)\n", "1\ne\"atom\"17\n", "1\nc\"broken(\"\n", "",
		"1\ny\"a b\"\n", "1\ny\"x). evil(y\"\n", "1\np\"a b\"y\"z\"\n", "1\ny\"a\"\t\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, payload string) {
		rows, err := decodeRows(payload) // must never panic
		if err != nil {
			return
		}
		// encodeRows sorts, so bytes need not match the input; the tuples
		// must survive as a set.
		again, err := decodeRows(strings.TrimPrefix(string(encodeRows(rows)), "rows "))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again) != len(rows) {
			t.Fatalf("round trip changed the row count: %d != %d", len(again), len(rows))
		}
		for i := range rows { // rows is sorted now too, in the same order
			if !again[i].Equal(rows[i]) {
				t.Fatalf("row %d differs after round trip: %v != %v", i, again[i], rows[i])
			}
		}
	})
}
