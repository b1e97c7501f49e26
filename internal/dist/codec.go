package dist

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"lbtrust/internal/datalog"
	"lbtrust/internal/obs"
)

// The wire format shared by every transport and by the serving layer's
// rows frames: a text header line, then one line per tuple in the tagged
// encoding of internal/datalog/serial.go — the codec the write-ahead log
// and snapshots use, so a tuple has one form outside the process. The
// encoding is deterministic and line-safe (strings are strconv-quoted),
// which keeps it byte-stable across nodes: the bytes MemNetwork counts
// are exactly the bytes TCPNetwork writes to the socket.
//
//	envelope = header "\n" count * ( tuple "\n" )
//	header   = "lbtrust/2" SP from SP to SP sender SP principal SP pred SP count { SP key "=" value }
//	tuple    = [ value { "\t" value } ]     ; datalog.AppendTupleLine; the empty tuple is the empty line
//
// count is a plain decimal and exact: fewer lines is a truncation and any
// byte after the declared lines an error, so an accepted envelope decodes
// to exactly its declared tuples. Fields after it are optional key=value
// extensions; a decoder skips keys it does not know, so new fields need
// no magic bump. The only one today is trace=<id>, the request trace ID
// of an instrumented Sync (see internal/obs), omitted when there is none.
//
// The version in the magic names the tuple encoding: lbtrust/1 carried
// tuples as Datalog source and is refused, not translated, so peers of
// the two versions do not interoperate. Signatures are unaffected — they
// are over a Code's canonical rule text, which the c tag carries verbatim.
//
// Three rules hold at this boundary, each in one place below. Entities
// never cross as entities: their IDs are node-local, so a foreign
// e"atom"17 would alias the receiver's own atom 17. AppendTupleLines
// sends the reserved symbol lb:entity:<sort>:<id> instead (wireValue) and
// ParseTupleLines refuses a peer's e-tagged column. A received symbol or
// partition predicate must be a symbol token (checkForeign): y"x). evil(y"
// is a well-formed tagged value but not something canonical rule text can
// spell, and it is refused just as the /1 parser refused it. And the
// memoizing datalog.Decoder lives for one ParseTupleLines call — one
// envelope or one rows frame — because its code memo is unbounded and
// only the frame size limits what a peer can make it hold; within the
// frame it still parses each distinct c"…" clause once, not once per
// occurrence.

// wireMagic versions the envelope encoding.
const wireMagic = "lbtrust/2"

// EncodeEnvelope renders an envelope into its wire form.
func EncodeEnvelope(env *Envelope) []byte {
	b := append([]byte(nil), wireMagic...)
	for _, f := range [...]string{env.From, env.To, env.Sender, env.Principal, env.Pred} {
		b = append(b, ' ')
		b = append(b, f...)
	}
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(len(env.Tuples)), 10)
	if env.Trace != "" {
		b = append(b, " trace="...)
		b = append(b, env.Trace...)
	}
	b = append(b, '\n')
	return AppendTupleLines(b, env.Tuples)
}

// DecodeEnvelope parses a wire-form envelope back into tuples.
func DecodeEnvelope(data []byte) (*Envelope, error) {
	head, body, _ := strings.Cut(string(data), "\n")
	if magic, _, _ := strings.Cut(head, " "); magic != wireMagic {
		return nil, fmt.Errorf("dist: envelope version %q is not %s (versions do not interoperate)", magic, wireMagic)
	}
	header := strings.Fields(head)
	if len(header) < 7 {
		return nil, fmt.Errorf("dist: malformed envelope header %q", head)
	}
	count, err := strconv.Atoi(header[6])
	if err != nil || count < 0 {
		return nil, fmt.Errorf("dist: bad tuple count %q", header[6])
	}
	trace := ""
	for _, f := range header[7:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return nil, fmt.Errorf("dist: malformed envelope extension %q", f)
		}
		// A trace ID that is not well formed is dropped like any other
		// junk field: it would otherwise reach spans, logs, proofs and
		// rejection records verbatim.
		if k == "trace" && obs.ValidTraceID(v) {
			trace = v
		}
	}
	tuples, err := ParseTupleLines(body, count)
	if err != nil {
		return nil, fmt.Errorf("dist: envelope: %w", err)
	}
	return &Envelope{
		From:      header[1],
		To:        header[2],
		Sender:    header[3],
		Principal: header[4],
		Pred:      header[5],
		Trace:     trace,
		Tuples:    tuples,
	}, nil
}

// AppendTupleLines appends the wire body for tuples to dst: one
// newline-terminated tagged line per tuple. It is the body of an
// envelope and of the serving layer's rows frame.
func AppendTupleLines(dst []byte, tuples []datalog.Tuple) []byte {
	for _, t := range tuples {
		dst = datalog.AppendTupleLine(dst, wireTuple(t))
		dst = append(dst, '\n')
	}
	return dst
}

// wireTuple is t as it may leave the process: t itself unless a column
// holds an entity.
func wireTuple(t datalog.Tuple) datalog.Tuple {
	if !slices.ContainsFunc(t.Values(), func(v datalog.Value) bool { return wireValue(v) != v }) {
		return t
	}
	vs := make([]datalog.Value, t.Len())
	for i, v := range t.Values() {
		vs[i] = wireValue(v)
	}
	return datalog.TupleOf(vs)
}

// wireValue maps an entity to the reserved symbol of its canonical
// rendering; every other value crosses as itself.
func wireValue(v datalog.Value) datalog.Value {
	switch v := v.(type) {
	case datalog.Entity:
		return datalog.Sym(datalog.CanonicalValue(v))
	case datalog.PartRef:
		if arg := wireValue(v.Arg); arg != v.Arg {
			return datalog.PartRef{Pred: v.Pred, Arg: arg}
		}
	}
	return v
}

// checkForeign refuses a decoded value a peer must not be able to hand
// us. The tagged encoding is exact, so it will carry any byte string as a
// symbol or predicate name; but canonical rule text writes those raw, and
// a received symbol can end up inside code this node derives, signs and
// logs. Admitting only what canonical text can spell keeps "canonical
// text re-parses to the same value" true of everything that arrives, as
// it was when tuples crossed as Datalog source.
func checkForeign(v datalog.Value) error {
	switch v := v.(type) {
	case datalog.Sym:
		if !datalog.IsSymbolToken(string(v)) {
			return fmt.Errorf("symbol %q is not a symbol token", string(v))
		}
	case datalog.Int:
		if v == math.MinInt64 {
			return fmt.Errorf("integer %d has no literal", int64(v))
		}
	case datalog.Entity:
		return fmt.Errorf("%s is an entity: entity IDs are node-local", v)
	case datalog.PartRef:
		if !datalog.IsSymbolToken(v.Pred) {
			return fmt.Errorf("partition predicate %q is not a symbol token", v.Pred)
		}
		return checkForeign(v.Arg)
	}
	return nil
}

// ParseTupleLines parses a wire body of exactly count tuple lines, with a
// decoder scoped to this one frame.
func ParseTupleLines(body string, count int) ([]datalog.Tuple, error) {
	if lines := strings.Count(body, "\n"); lines < count {
		return nil, fmt.Errorf("truncated: %d tuples declared, %d lines", count, lines)
	}
	dec := datalog.NewDecoder()
	tuples := make([]datalog.Tuple, 0, count)
	for i := 0; i < count; i++ {
		line, rest, _ := strings.Cut(body, "\n")
		t, err := dec.DecodeTupleLine(line)
		if err != nil {
			return nil, fmt.Errorf("tuple %d: %w", i, err)
		}
		for _, v := range t.Values() {
			if err := checkForeign(v); err != nil {
				return nil, fmt.Errorf("tuple %d: %w", i, err)
			}
		}
		tuples = append(tuples, t)
		body = rest
	}
	if body != "" {
		return nil, fmt.Errorf("%d bytes after the %d declared tuples", len(body), count)
	}
	return tuples, nil
}
