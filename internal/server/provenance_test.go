package server

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"
	"time"

	"lbtrust/internal/obs"
)

// walkProof visits every node of a wire proof tree, including activation
// credential subtrees.
func walkProof(n *ProofNode, visit func(*ProofNode)) {
	if n == nil {
		return
	}
	visit(n)
	for _, prem := range n.Premises {
		walkProof(prem, visit)
	}
	walkProof(n.Activation, visit)
}

// TestExplainOverWire is the end-to-end contract of the explain verb:
// alice says a fact to bob, the sync ships it, and bob's client receives
// a proof tree that descends through the activation credential and the
// says chain to a delivery leaf naming the origin node and the asserting
// principal.
func TestExplainOverWire(t *testing.T) {
	// The Obs bundle makes the server mint per-request trace IDs, which
	// the sync propagates into envelopes — the proof leaf must carry one.
	sys, srv := newTestSystem(t, Options{
		Provenance: true,
		Obs:        &obs.Obs{Registry: obs.NewRegistry(), Tracer: obs.NewTracer(64)},
	})
	alice := authedClient(t, sys, srv, "alice")
	bobC := authedClient(t, sys, srv, "bob")

	if err := alice.Say("bob", `greeting(hello).`); err != nil {
		t.Fatalf("say: %v", err)
	}
	if err := alice.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	proofs, err := bobC.Explain(`greeting(X)`)
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	if len(proofs) != 1 {
		t.Fatalf("got %d proofs, want 1", len(proofs))
	}
	p := proofs[0]
	if p.Pred != "greeting" || p.Rule == "" {
		t.Fatalf("root should be a derived greeting fact, got %+v", p)
	}
	var origin *ProofOrigin
	walkProof(p, func(n *ProofNode) {
		if n.Origin != nil {
			origin = n.Origin
		}
	})
	if origin == nil {
		t.Fatalf("proof has no delivery leaf:\n%s", p.Render())
	}
	if origin.Node != "local" || origin.Sender != "alice" {
		t.Fatalf("origin = %+v, want node local, sender alice", origin)
	}
	if origin.Trace == "" {
		t.Errorf("delivery leaf lost the sync's trace ID")
	}
	rendered := p.Render()
	for _, want := range []string{"activated by:", "said by alice", "says(alice,bob"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered proof missing %q:\n%s", want, rendered)
		}
	}
}

// TestExplainWithoutProvenanceFails: the verb refuses cleanly when the
// server is not capturing derivations.
func TestExplainWithoutProvenanceFails(t *testing.T) {
	sys, srv := newTestSystem(t, Options{})
	alice := authedClient(t, sys, srv, "alice")
	if err := alice.Assert(`color(red)`); err != nil {
		t.Fatalf("assert: %v", err)
	}
	if _, err := alice.Explain(`color(X)`); err == nil || !strings.Contains(err.Error(), "provenance") {
		t.Fatalf("explain without provenance should name the missing capture, got %v", err)
	}
}

// TestAuditRecordsAuthenticatedRequests: every authenticated heavy verb
// lands one entry on the audit log — principal, verb, trace, proof roots,
// outcome — while unauthenticated (anonymous-context) requests never do.
func TestAuditRecordsAuthenticatedRequests(t *testing.T) {
	audit := obs.NewAuditLog(8, nil)
	o := &obs.Obs{Registry: obs.NewRegistry(), AuditLog: audit}
	sys, srv := newTestSystem(t, Options{Obs: o, Anonymous: "alice"})
	alice := authedClient(t, sys, srv, "alice")

	if err := alice.Assert(`color(red)`); err != nil {
		t.Fatalf("assert: %v", err)
	}
	if _, err := alice.Query(`color(X)`); err != nil {
		t.Fatalf("query: %v", err)
	}

	anon, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer anon.Close()
	if _, err := anon.Query(`color(X)`); err != nil {
		t.Fatalf("anonymous query: %v", err)
	}

	entries := audit.Entries()
	if len(entries) != 2 {
		t.Fatalf("got %d audit entries, want 2 (anonymous reads are not audited): %+v", len(entries), entries)
	}
	verbs := map[string]obs.AuditEntry{}
	for _, e := range entries {
		verbs[e.Verb] = e
		if e.Principal != "alice" {
			t.Errorf("entry %+v attributed to %q, want alice", e, e.Principal)
		}
		if e.Trace == "" {
			t.Errorf("entry %+v has no trace ID", e)
		}
		if e.Outcome != "ok" {
			t.Errorf("entry %+v outcome %q, want ok", e, e.Outcome)
		}
		if len(e.Roots) == 0 || !strings.HasPrefix(e.Roots[0], "color") {
			t.Errorf("entry %+v roots should name the color relation", e)
		}
	}
	if _, ok := verbs["assert"]; !ok {
		t.Errorf("no audit entry for the assert")
	}
	if q, ok := verbs["query"]; !ok {
		t.Errorf("no audit entry for the query")
	} else if q.Detail != "color(X)" {
		t.Errorf("query detail = %q, want the query atom", q.Detail)
	}

	// A refused request records its typed error code as the outcome.
	if err := alice.Assert(`nonsense(((`); err == nil {
		t.Fatalf("malformed assert should fail")
	}
	last := audit.Entries()[len(audit.Entries())-1]
	if last.Verb != "assert" || last.Outcome == "ok" {
		t.Errorf("refused assert audited as %+v, want non-ok outcome", last)
	}
}

// TestSlowQueryLogsAndCounts: with a threshold every request exceeds, each
// heavy verb bumps lb_server_slow_queries_total and emits one warn line
// carrying the principal, trace ID, and gas spent.
func TestSlowQueryLogsAndCounts(t *testing.T) {
	var logBuf lockedBuffer
	o := &obs.Obs{
		Registry: obs.NewRegistry(),
		Log:      slog.New(slog.NewTextHandler(&logBuf, nil)),
	}
	sys, srv := newTestSystem(t, Options{Obs: o, SlowQuery: time.Nanosecond})
	alice := authedClient(t, sys, srv, "alice")

	if err := alice.Assert(`color(red)`); err != nil {
		t.Fatalf("assert: %v", err)
	}
	if _, err := alice.Query(`color(X)`); err != nil {
		t.Fatalf("query: %v", err)
	}

	var prom bytes.Buffer
	o.Registry.WritePrometheus(&prom)
	if !strings.Contains(prom.String(), "lb_server_slow_queries_total 2") {
		t.Errorf("slow-query counter should read 2 (assert + query):\n%s", prom.String())
	}
	logs := logBuf.String()
	if !strings.Contains(logs, "slow request") {
		t.Fatalf("no slow-request log line:\n%s", logs)
	}
	for _, want := range []string{"principal=alice", "trace=", "gas="} {
		if !strings.Contains(logs, want) {
			t.Errorf("slow-request log missing %q:\n%s", want, logs)
		}
	}
}
