package dist

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"lbtrust/internal/datalog"
	"lbtrust/internal/obs"
)

// Wire-facing decoders must be robust: truncated or bit-flipped input
// produces an error, never a panic, and whatever is accepted decodes to
// exactly its declared tuples. Run with `go test -run Fuzz` for the seed
// corpus or `go test -fuzz FuzzDecodeEnvelope` to explore.

func FuzzDecodeEnvelope(f *testing.F) {
	valid := EncodeEnvelope(&Envelope{
		From: "n1", To: "n2", Sender: "alice", Principal: "bob", Pred: "import",
		Tuples: []datalog.Tuple{
			datalog.NewTuple(datalog.Sym("bob"), datalog.Sym("alice"), datalog.Int(1)),
			datalog.NewTuple(datalog.Sym("bob"), datalog.String("x\ny"), datalog.NewCode(datalog.MustParseClause(`says(X,me,[| m(1). |]).`))),
			datalog.NewTuple(),
			datalog.NewTuple(datalog.PartRef{Pred: "export", Arg: datalog.Sym("bob")}, datalog.Int(-7)),
		},
	})
	f.Add(valid)
	f.Add([]byte("lbtrust/2 a b c d e 1 trace=00ff\ny\"x\"\n"))
	f.Add([]byte("lbtrust/2 a b c d e 2\ny\"x\"\n"))          // count overruns lines
	f.Add([]byte("lbtrust/2 a b c d e 1\ny\"x\"\ny\"y\"\n"))  // line beyond the count
	f.Add([]byte("lbtrust/2 a b c d e 1junk\ny\"x\"\n"))      // count is not a decimal
	f.Add([]byte("lbtrust/2 a b c d e -1\n"))                 // negative count
	f.Add([]byte("lbtrust/2 a b c d e 999999999\n"))          // huge count
	f.Add([]byte("lbtrust/2 a b c d e 1\ne\"atom\"17\n"))     // entity on the wire
	f.Add([]byte("lbtrust/1 a b c d e 1\nt(x)\n"))            // retired version
	f.Add([]byte("lbtrust/2 a b c d e 1\ny\"a b\"\n"))        // symbol is not a token
	f.Add([]byte("lbtrust/2 a b c d e 1\ny\"x). evil(y\"\n")) // clause text in a symbol
	f.Add([]byte("lbtrust/2 a b c d e 1\np\"a b\"y\"z\"\n"))  // partition predicate is not a token
	f.Add([]byte("lbtrust/2 a b c d e 1\ny\"a\"\t\n"))        // trailing tab
	f.Add([]byte("lbtrust/2 a b c d e 1\ni-9223372036854775808\n"))
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := DecodeEnvelope(data) // must never panic
		if err != nil {
			return
		}
		if bytes.HasPrefix(data, []byte("lbtrust/1")) {
			t.Fatalf("accepted a retired-version envelope: %q", data)
		}
		if env.Trace != "" && !obs.ValidTraceID(env.Trace) {
			t.Fatalf("accepted a malformed trace ID %q", env.Trace)
		}
		// Accepted input carries exactly its declared tuples: the header
		// count equals the number of body lines, with nothing after them.
		head, body, _ := bytes.Cut(data, []byte("\n"))
		if declared, _ := strconv.Atoi(strings.Fields(string(head))[6]); declared != len(env.Tuples) || bytes.Count(body, []byte("\n")) != declared {
			t.Fatalf("declared %d tuples, decoded %d from %d lines", declared, len(env.Tuples), bytes.Count(body, []byte("\n")))
		}
		// Whatever is accepted, the retired parser-based path would have
		// carried too, to the same value: canonical text can spell every
		// symbol, predicate name and integer that arrives.
		for i, tu := range env.Tuples {
			viaSource, err := oracleDecodeTuple(oracleEncodeTuple(tu))
			if err != nil {
				t.Fatalf("tuple %d %v is accepted but has no canonical source form: %v", i, tu, err)
			}
			if !viaSource.Equal(tu) {
				t.Fatalf("tuple %d %v re-parses from canonical source as %v", i, tu, viaSource)
			}
		}
		// The encoder's own output is a fixed point (unknown header
		// extensions of foreign input are dropped by design, so data
		// itself need not be).
		enc := EncodeEnvelope(env)
		back, err := DecodeEnvelope(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(back.Tuples) != len(env.Tuples) {
			t.Fatalf("round trip lost tuples: %d != %d", len(back.Tuples), len(env.Tuples))
		}
		for i := range back.Tuples {
			if !back.Tuples[i].Equal(env.Tuples[i]) {
				t.Fatalf("tuple %d differs after round trip", i)
			}
		}
		if again := EncodeEnvelope(back); !bytes.Equal(again, enc) {
			t.Fatalf("Encode(Decode(b)) != b:\n%q\n%q", again, enc)
		}
	})
}
