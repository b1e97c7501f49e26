package dist

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"

	"lbtrust/internal/obs"
)

// TestTracePropagatesAcrossTCP is the end-to-end trace acceptance check:
// a trace ID minted on the sending side travels inside the envelope
// header over a real TCP socket and shows up in the receiving node's
// span and log output.
func TestTracePropagatesAcrossTCP(t *testing.T) {
	tr := NewTCPNetwork()
	defer tr.Close()
	rt, alice, _ := buildTwoNode(t, tr)

	var logBuf bytes.Buffer
	o := &obs.Obs{
		Registry: obs.NewRegistry(),
		Log:      slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug})),
		Tracer:   obs.NewTracer(128),
	}
	rt.SetObs(o)

	send(t, alice, "box[bob](alice, hi)")
	trace := obs.NewTraceID()
	if err := rt.SyncTraced(10, trace); err != nil {
		t.Fatalf("traced sync: %v", err)
	}

	spans := o.Tracer.SpansFor(trace)
	var deliverNode string
	for _, sp := range spans {
		if sp.Name == "dist.deliver" {
			deliverNode = sp.Node
		}
	}
	if deliverNode != "n2" {
		t.Fatalf("trace %s: want a dist.deliver span on node n2, got spans %+v", trace, spans)
	}
	if !strings.Contains(logBuf.String(), string(trace)) {
		t.Errorf("receiving-side log output does not mention trace %s:\n%s", trace, logBuf.String())
	}

	// The wire metrics attribute the traffic to the tcp transport.
	var prom bytes.Buffer
	o.Registry.WritePrometheus(&prom)
	if !strings.Contains(prom.String(), `lb_dist_wire_messages_total{direction="sent",transport="tcp"}`) {
		t.Errorf("missing tcp wire metric in exposition:\n%s", prom.String())
	}
}

// TestUntracedEnvelopeBytesUnchanged pins the compatibility contract: an
// envelope without a trace encodes exactly as the pre-trace format (no
// trailing field), so untraced protocol runs stay byte-identical.
func TestUntracedEnvelopeBytesUnchanged(t *testing.T) {
	env := &Envelope{From: "n1", To: "n2", Sender: "alice", Principal: "bob", Pred: "inbox"}
	got := string(EncodeEnvelope(env))
	if want := "lbtrust/2 n1 n2 alice bob inbox 0\n"; got != want {
		t.Fatalf("untraced encoding = %q, want %q", got, want)
	}
}

func TestEnvelopeTraceRoundTrip(t *testing.T) {
	trace := obs.NewTraceID()
	env := &Envelope{From: "n1", To: "n2", Sender: "alice", Principal: "bob", Pred: "inbox", Trace: string(trace)}
	data := EncodeEnvelope(env)
	if !strings.Contains(string(data), " trace="+string(trace)+"\n") {
		t.Fatalf("traced header missing trace field: %q", data)
	}
	dec, err := DecodeEnvelope(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.Trace != string(trace) {
		t.Errorf("decoded trace = %q, want %q", dec.Trace, trace)
	}
}

// TestDecodeIgnoresUnknownExtensions: a decoder of this wire version must
// skip key=value fields it does not recognize (future senders), but still
// reject junk that is not key=value.
func TestDecodeIgnoresUnknownExtensions(t *testing.T) {
	dec, err := DecodeEnvelope([]byte("lbtrust/2 n1 n2 alice bob inbox 0 compress=zstd trace=0123456789abcdef\n"))
	if err != nil {
		t.Fatalf("decode with unknown extension: %v", err)
	}
	if dec.Trace != "0123456789abcdef" {
		t.Errorf("trace = %q, want 0123456789abcdef", dec.Trace)
	}
	if _, err := DecodeEnvelope([]byte("lbtrust/2 n1 n2 alice bob inbox 0 junk\n")); err == nil {
		t.Errorf("want error for non key=value extension field")
	}
}

// TestDecodeDropsMalformedTrace: a trace= value that is not a well-formed
// trace ID is ignored like any other junk field, so a peer cannot plant
// arbitrary text in spans, logs, proofs or rejection records.
func TestDecodeDropsMalformedTrace(t *testing.T) {
	for _, tc := range []struct{ field, want string }{
		{"trace=0123456789abcdef", "0123456789abcdef"},
		{"trace=not-a-trace;<script>", ""},
		{"trace=00ff", ""},
		{"trace=0123456789ABCDEF", ""},
		{"trace=0123456789abcdef0", ""},
		{"trace=", ""},
		{"trace=0123456789abcdef trace=junk", "0123456789abcdef"},
	} {
		dec, err := DecodeEnvelope([]byte("lbtrust/2 n1 n2 alice bob inbox 0 " + tc.field + "\n"))
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.field, err)
		}
		if dec.Trace != tc.want {
			t.Errorf("%s: trace = %q, want %q", tc.field, dec.Trace, tc.want)
		}
	}
}
