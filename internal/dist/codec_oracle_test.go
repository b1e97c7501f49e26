package dist

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lbtrust/internal/datalog"
	"lbtrust/internal/lbcrypto"
)

// The lbtrust/1 tuple path, kept as the reference the tagged wire codec
// is checked against: a tuple travelled as canonical Datalog source under
// a dummy functor and came back through the full parser.

func oracleEncodeTuple(t datalog.Tuple) string {
	var b strings.Builder
	b.WriteString("t(")
	for i, v := range t.Values() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(datalog.CanonicalValue(v))
	}
	b.WriteByte(')')
	return b.String()
}

func oracleDecodeTuple(line string) (datalog.Tuple, error) {
	clause, err := datalog.ParseClause(line + ".")
	if err != nil {
		return datalog.Tuple{}, err
	}
	if !clause.IsFact() {
		return datalog.Tuple{}, fmt.Errorf("wire line %q is not a fact", line)
	}
	args := clause.Heads[0].AllArgs()
	vs := make([]datalog.Value, len(args))
	for i, term := range args {
		v, ground, err := datalog.EvalGroundTerm(term)
		if err != nil {
			return datalog.Tuple{}, err
		}
		if !ground {
			return datalog.Tuple{}, fmt.Errorf("wire tuple %q has non-ground argument %d", line, i)
		}
		vs[i] = v
	}
	return datalog.TupleOf(vs), nil
}

// wireClauses are the quoted clauses the generator draws Code values
// from: nested quotes, strings with escapes inside code, negation, a
// partition reference, and a bare fact.
var wireClauses = []string{
	`m(1).`,
	`says(alice,bob,[| reach(X,Y) <- link(X,Z), says(Z,me,[| reach(Z,Y). |]). |]).`,
	`note("tab\there \"quoted\" back\\slash\nnewline").`,
	`ok(X) <- cand(X), !bad(X), X >= -3.`,
	`export[bob](alice,[| m(2). |],"sig").`,
}

func randomWireValue(rng *rand.Rand, depth int) datalog.Value {
	strs := []string{"", "plain", "a\nb", "tab\tbed", `say "hi"`, `back\slash`, "nul\x00byte", "üñí"}
	switch k := rng.Intn(6); {
	case k == 0:
		return datalog.Sym(fmt.Sprintf("p%d", rng.Intn(50)))
	case k == 1:
		return datalog.String(strs[rng.Intn(len(strs))])
	case k == 2:
		return datalog.Int(rng.Int63n(2001) - 1000)
	case k == 3:
		return datalog.NewCode(datalog.MustParseClause(wireClauses[rng.Intn(len(wireClauses))]))
	case k == 4:
		return datalog.Entity{Sort: []string{"atom", "term", "rule"}[rng.Intn(3)], ID: rng.Int63n(100)}
	case depth < 2:
		return datalog.PartRef{Pred: "export", Arg: randomWireValue(rng, depth+1)}
	}
	return datalog.Sym("leaf")
}

// TestWireCodecMatchesParserOracle: over every value kind, what the
// tagged envelope delivers is Equal to what the retired parser-based
// path delivered — including the entity rule, where both hand the
// receiver a reserved symbol rather than a foreign entity ID.
func TestWireCodecMatchesParserOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tuples := []datalog.Tuple{datalog.NewTuple()}
	for len(tuples) < 400 {
		vs := make([]datalog.Value, 1+rng.Intn(5))
		for i := range vs {
			vs[i] = randomWireValue(rng, 0)
		}
		tuples = append(tuples, datalog.TupleOf(vs))
	}
	env := &Envelope{From: "n1", To: "n2", Sender: "alice", Principal: "bob", Pred: "import", Tuples: tuples}
	got, err := DecodeEnvelope(EncodeEnvelope(env))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got.Tuples) != len(tuples) {
		t.Fatalf("decoded %d tuples, want %d", len(got.Tuples), len(tuples))
	}
	for i, tu := range tuples {
		want, err := oracleDecodeTuple(oracleEncodeTuple(tu))
		if err != nil {
			t.Fatalf("oracle on %v: %v", tu, err)
		}
		if !got.Tuples[i].Equal(want) {
			t.Errorf("tuple %d: wire delivered %v, oracle %v (sent %v)", i, got.Tuples[i], want, tu)
		}
	}
}

// TestEntitiesCrossAsSymbols pins the boundary rule by value: the
// receiver sees lb:entity:<sort>:<id> symbols (bare and inside a
// partition reference), and a peer that sends an e-tagged column anyway
// is refused.
func TestEntitiesCrossAsSymbols(t *testing.T) {
	sent := datalog.NewTuple(
		datalog.Entity{Sort: "atom", ID: 17},
		datalog.PartRef{Pred: "export", Arg: datalog.Entity{Sort: "term", ID: 3}},
		datalog.Sym("bob"),
	)
	want := datalog.NewTuple(
		datalog.Sym("lb:entity:atom:17"),
		datalog.PartRef{Pred: "export", Arg: datalog.Sym("lb:entity:term:3")},
		datalog.Sym("bob"),
	)
	got, err := ParseTupleLines(string(AppendTupleLines(nil, []datalog.Tuple{sent})), 1)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !got[0].Equal(want) {
		t.Errorf("entity tuple crossed as %v, want %v", got[0], want)
	}
	for _, line := range []string{`e"atom"17`, `y"bob"` + "\t" + `p"export"e"term"3`} {
		if _, err := ParseTupleLines(line+"\n", 1); err == nil || !strings.Contains(err.Error(), "entity") {
			t.Errorf("ParseTupleLines(%q) = %v, want an entity refusal", line, err)
		}
	}
}

// TestSignedCodeVerifiesAfterWire: signatures are over a Code's canonical
// rule text, which the tagged encoding carries verbatim, so a signed
// clause that crossed the wire still satisfies rsaverify.
func TestSignedCodeVerifiesAfterWire(t *testing.T) {
	ks := lbcrypto.NewKeyStore()
	if err := ks.GenerateRSA("alice"); err != nil {
		t.Fatal(err)
	}
	priv, _ := ks.RSAKey("alice")
	var signed []datalog.Tuple
	for _, src := range wireClauses {
		code := datalog.NewCode(datalog.MustParseClause(src))
		sig, err := ks.SignRSA(code, priv)
		if err != nil {
			t.Fatal(err)
		}
		signed = append(signed, datalog.NewTuple(code, datalog.String(sig)))
	}
	env, err := DecodeEnvelope(EncodeEnvelope(&Envelope{From: "n1", To: "n2", Sender: "alice", Principal: "bob", Pred: "got", Tuples: signed}))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}

	set := datalog.NewBuiltinSet()
	lbcrypto.Register(set, ks)
	db := datalog.NewDatabase()
	for _, tu := range env.Tuples {
		db.Rel("got", 2).Insert(tu)
	}
	db.Rel("rsapubkey", 2).Insert(datalog.NewTuple(datalog.Sym("alice"), lbcrypto.PubHandle("alice")))
	ev := datalog.NewEvaluator(db, set)
	if err := ev.SetRules(datalog.MustParseProgram(`verified(R) <- got(R,S), rsapubkey(alice,K), rsaverify(R,S,K).`).Rules); err != nil {
		t.Fatal(err)
	}
	if err := ev.Run(); err != nil {
		t.Fatal(err)
	}
	if got := db.Rel("verified", 1).Len(); got != len(wireClauses) {
		t.Errorf("verified %d of %d signed clauses after the wire", got, len(wireClauses))
	}
}
