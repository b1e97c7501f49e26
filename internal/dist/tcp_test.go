package dist

import (
	"reflect"
	"strings"
	"testing"

	"lbtrust/internal/datalog"
)

func TestCodecRoundTrip(t *testing.T) {
	code := datalog.NewCode(datalog.MustParseClause(`doubled(X) <- data(X), says(alice, bob, [| m(1). |]).`))
	env := &Envelope{
		From:      "n1",
		To:        "n2",
		Sender:    "alice",
		Principal: "bob",
		Pred:      "import",
		Tuples: []datalog.Tuple{
			datalog.NewTuple(datalog.Sym("bob"), datalog.Sym("alice"), code, datalog.String(`sig with "quotes" and
newline`)),
			datalog.NewTuple(datalog.Sym("bob"), datalog.Sym("alice"), datalog.Int(42), datalog.String("plain")),
		},
	}
	data := EncodeEnvelope(env)
	got, err := DecodeEnvelope(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.From != env.From || got.To != env.To || got.Sender != env.Sender ||
		got.Principal != env.Principal || got.Pred != env.Pred {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Tuples) != len(env.Tuples) {
		t.Fatalf("decoded %d tuples, want %d", len(got.Tuples), len(env.Tuples))
	}
	for i := range env.Tuples {
		if got.Tuples[i].Key() != env.Tuples[i].Key() {
			t.Errorf("tuple %d: decoded %v, want %v", i, got.Tuples[i], env.Tuples[i])
		}
	}
	// Deterministic: re-encoding the decoded envelope yields the same
	// bytes, the property that makes wire stats transport-independent.
	if re := EncodeEnvelope(got); string(re) != string(data) {
		t.Errorf("re-encode differs:\n%s\nvs\n%s", re, data)
	}
}

func TestDecodeEnvelopeRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",
		"nonsense header line\n",
		"lbtrust/2 n1 n2 alice bob import 2\ny\"only\"\n",           // truncated
		"lbtrust/2 n1 n2 alice bob import 1\ny\"one\"\ny\"two\"\n",  // a tuple beyond the declared count
		"lbtrust/2 n1 n2 alice bob import 1junk\ny\"one\"\n",        // count is not exactly a decimal
		"lbtrust/2 n1 n2 alice bob import 1\ny\"one\"\n\n",          // trailing bytes
		"lbtrust/2 n1 n2 alice bob import 1\nunbound(V)\n",          // not a tagged value
		"lbtrust/2 n1 n2 alice bob import 1\nc\"broken(\"\n",        // code payload does not parse
		"lbtrust/2 n1 n2 alice bob import 1\ny\"a b\"\n",            // symbol is not a symbol token
		"lbtrust/2 n1 n2 alice bob import 1\ny\"x). evil(y\"\n",     // clause text smuggled in a symbol
		"lbtrust/2 n1 n2 alice bob import 1\ny\"Var\"\n",            // a variable name is not a symbol
		"lbtrust/2 n1 n2 alice bob import 1\np\"a b\"y\"z\"\n",      // partition predicate is not a symbol token
		"lbtrust/2 n1 n2 alice bob import 1\np\"export\"y\"a b\"\n", // nor may its argument be
		"lbtrust/2 n1 n2 alice bob import 1\ny\"a\"\t\n",            // trailing tab: an empty last column
	} {
		if _, err := DecodeEnvelope([]byte(bad)); err == nil {
			t.Errorf("DecodeEnvelope(%q) accepted garbage", bad)
		}
	}
}

// TestRetiredEnvelopeVersionRefused: lbtrust/1 carried tuples as Datalog
// source; it is refused by name, not parsed under the new rules.
func TestRetiredEnvelopeVersionRefused(t *testing.T) {
	_, err := DecodeEnvelope([]byte("lbtrust/1 n1 n2 alice bob import 1\nt(x)\n"))
	if err == nil || !strings.Contains(err.Error(), `"lbtrust/1"`) || !strings.Contains(err.Error(), "lbtrust/2") {
		t.Fatalf("DecodeEnvelope(lbtrust/1 ...) = %v, want a refusal naming both versions", err)
	}
}

// runBoxProtocol executes the two-hop forwarding protocol over a
// transport and returns carol's inbox tuple keys plus the stats.
func runBoxProtocol(t *testing.T, tr Transport) ([]string, Stats) {
	t.Helper()
	defer tr.Close()
	rt := NewRuntime()
	rt.SetDeliveryMap("box", "inbox")
	all := []string{"alice", "bob", "carol"}
	wsAlice := newWS(t, "alice", all...)
	wsBob := newWS(t, "bob", all...)
	wsCarol := newWS(t, "carol", all...)
	ep1, err := tr.Endpoint("n1")
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := tr.Endpoint("n2")
	if err != nil {
		t.Fatal(err)
	}
	ep3, err := tr.Endpoint("n3")
	if err != nil {
		t.Fatal(err)
	}
	rt.AddNode("n1", ep1).AddPrincipal(wsAlice)
	rt.AddNode("n2", ep2).AddPrincipal(wsBob)
	rt.AddNode("n3", ep3).AddPrincipal(wsCarol)
	if err := wsBob.LoadProgram(`fwd: box[carol](me, M) <- inbox[me](_, M).`); err != nil {
		t.Fatalf("fwd: %v", err)
	}
	send(t, wsAlice, "box[bob](alice, m1)")
	send(t, wsAlice, "box[bob](alice, m2)")
	if err := rt.Sync(10); err != nil {
		t.Fatalf("sync: %v", err)
	}
	return inboxKeys(wsCarol), rt.Stats()
}

func TestTCPLoopbackMatchesMemNetwork(t *testing.T) {
	memKeys, memStats := runBoxProtocol(t, NewMemNetwork())
	tcpKeys, tcpStats := runBoxProtocol(t, NewTCPNetwork())

	if len(memKeys) == 0 {
		t.Fatal("mem run delivered nothing")
	}
	// Byte-identical delivery: the tuples carol holds are the same values
	// (identical canonical keys) regardless of transport.
	if !reflect.DeepEqual(memKeys, tcpKeys) {
		t.Errorf("delivered tuples differ:\n mem: %v\n tcp: %v", memKeys, tcpKeys)
	}
	// And the wire itself carried the same encoded bytes.
	memT, tcpT := memStats.Totals(), tcpStats.Totals()
	if memT.BytesSent != tcpT.BytesSent || memT.MessagesSent != tcpT.MessagesSent {
		t.Errorf("wire totals differ: mem %+v vs tcp %+v", memT, tcpT)
	}
	if tcpT.MessagesSent == 0 || tcpT.BytesSent == 0 {
		t.Errorf("tcp run reported no traffic: %+v", tcpT)
	}
	if memStats.Rounds != tcpStats.Rounds {
		t.Errorf("round counts differ: mem %d vs tcp %d", memStats.Rounds, tcpStats.Rounds)
	}
}

func TestTCPNetworkCloseStopsEndpoints(t *testing.T) {
	net := NewTCPNetwork()
	ep, err := net.Endpoint("n1")
	if err != nil {
		t.Fatal(err)
	}
	_ = ep
	if err := net.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := net.Endpoint("n2"); err == nil {
		t.Error("closed network must refuse new endpoints")
	}
}
