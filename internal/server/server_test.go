package server

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"lbtrust/internal/core"
	"lbtrust/internal/datalog"
	"lbtrust/internal/dist"
	"lbtrust/internal/lbcrypto"
	"lbtrust/internal/workspace"
)

// newTestSystem builds a two-principal system with RSA identities and
// bob trusting alice's statements, served on loopback.
func newTestSystem(t *testing.T, opts Options) (*core.System, *Server) {
	t.Helper()
	sys := core.NewSystem()
	for _, name := range []string{"alice", "bob"} {
		if _, err := sys.AddPrincipal(name); err != nil {
			t.Fatalf("adding %s: %v", name, err)
		}
		if err := sys.EstablishRSA(name); err != nil {
			t.Fatalf("establishing %s: %v", name, err)
		}
	}
	bob, _ := sys.Principal("bob")
	if err := bob.TrustAll(); err != nil {
		t.Fatalf("trust all: %v", err)
	}
	srv, err := Serve(sys, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(func() {
		srv.Close()
		sys.Close()
	})
	return sys, srv
}

// authedClient dials and authenticates as the named principal using the
// principal's own in-process key store.
func authedClient(t *testing.T, sys *core.System, srv *Server, name string) *Client {
	t.Helper()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	p, _ := sys.Principal(name)
	if err := c.Authenticate(name, p.Keys()); err != nil {
		t.Fatalf("authenticating as %s: %v", name, err)
	}
	return c
}

func TestServeSaySyncQuery(t *testing.T) {
	sys, srv := newTestSystem(t, Options{})
	alice := authedClient(t, sys, srv, "alice")
	bobC := authedClient(t, sys, srv, "bob")

	if err := alice.Say("bob", `greeting(hello).`); err != nil {
		t.Fatalf("say: %v", err)
	}
	if err := alice.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	rows, err := bobC.Query(`greeting(X)`)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(rows) != 1 || rows[0].At(0).String() != "hello" {
		t.Fatalf("bob sees %v, want [greeting(hello)]", rows)
	}
	// Server-side snapshot read answers exactly what a direct workspace
	// query answers.
	bobP, _ := sys.Principal("bob")
	direct, err := bobP.Query(`greeting(X)`)
	if err != nil {
		t.Fatalf("direct query: %v", err)
	}
	if len(direct) != len(rows) || direct[0].Key() != rows[0].Key() {
		t.Fatalf("server rows %v != direct rows %v", rows, direct)
	}

	st, err := alice.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.AuthOK < 2 || st.Queries < 1 || st.Writes < 1 || st.Syncs < 1 {
		t.Fatalf("implausible stats: %+v", st)
	}
}

func TestServeAssertRetract(t *testing.T) {
	sys, srv := newTestSystem(t, Options{})
	alice := authedClient(t, sys, srv, "alice")
	if err := alice.Assert(`color(red)`); err != nil {
		t.Fatalf("assert: %v", err)
	}
	rows, err := alice.Query(`color(X)`)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %v, want one color fact", rows)
	}
	if err := alice.Retract(`color(red)`); err != nil {
		t.Fatalf("retract: %v", err)
	}
	rows, err = alice.Query(`color(X)`)
	if err != nil {
		t.Fatalf("query after retract: %v", err)
	}
	if len(rows) != 0 {
		t.Fatalf("retract did not take: %v", rows)
	}
}

// TestWrongKeySessionRejected is the attribution guarantee: a client
// holding alice's key cannot authenticate as bob, so nothing it does can
// land as a statement attributed to bob.
func TestWrongKeySessionRejected(t *testing.T) {
	sys, srv := newTestSystem(t, Options{})
	aliceP, _ := sys.Principal("alice")
	aliceKey, _ := aliceP.Keys().RSAKey("alice")

	// A key store that claims alice's private key IS bob's key.
	forged := lbcrypto.NewKeyStore()
	forged.ImportRSA("bob", aliceKey)

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	err = c.Authenticate("bob", forged)
	if err == nil || !strings.Contains(err.Error(), "does not prove") {
		t.Fatalf("forged authentication as bob: err = %v, want signature rejection", err)
	}
	// The failed session is unauthenticated: it cannot say anything (as
	// bob or anyone else).
	if err := c.Say("alice", `iou(1000000).`); err == nil {
		t.Fatalf("unauthenticated say succeeded")
	}
	// And bob's workspace carries no trace of the attempt.
	bobP, _ := sys.Principal("bob")
	if n := bobP.Count("saysOut"); n != 0 {
		t.Fatalf("bob's workspace has %d saysOut facts after forged session", n)
	}
	if st := srv.Stats(); st.AuthFailures == 0 {
		t.Fatalf("auth failure not counted: %+v", st)
	}
}

func TestAuthUnknownPrincipalAndNoKey(t *testing.T) {
	sys := core.NewSystem()
	if _, err := sys.AddPrincipal("keyless"); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(sys, "127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close(); sys.Close() }()

	ks := lbcrypto.NewKeyStore()
	if err := ks.GenerateRSA("ghost"); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Authenticate("ghost", ks); err == nil || !strings.Contains(err.Error(), "unknown principal") {
		t.Fatalf("ghost auth: %v", err)
	}
	ks2 := lbcrypto.NewKeyStore()
	if err := ks2.GenerateRSA("keyless"); err != nil {
		t.Fatal(err)
	}
	if err := c.Authenticate("keyless", ks2); err == nil || !strings.Contains(err.Error(), "no established key") {
		t.Fatalf("keyless auth: %v", err)
	}
}

func TestAnonymousQueries(t *testing.T) {
	sys, srv := newTestSystem(t, Options{Anonymous: "bob"})
	bobP, _ := sys.Principal("bob")
	if err := bobP.Update(func(tx *workspace.Tx) error { return tx.Assert("public(info)") }); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rows, err := c.Query(`public(X)`)
	if err != nil {
		t.Fatalf("anonymous query: %v", err)
	}
	if len(rows) != 1 {
		t.Fatalf("anonymous rows = %v", rows)
	}
	// Anonymous sessions cannot write or sync.
	if err := c.Assert(`public(bogus)`); err == nil {
		t.Fatalf("anonymous assert succeeded")
	}
	if err := c.Sync(); err == nil {
		t.Fatalf("anonymous sync succeeded")
	}
}

func TestNoAnonymousConfigured(t *testing.T) {
	_, srv := newTestSystem(t, Options{})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query(`greeting(X)`); err == nil {
		t.Fatalf("unauthenticated query succeeded with no anonymous principal")
	}
}

// TestOversizedRequestRejected sends a length header far beyond the
// request bound: the server must drop the session without allocating
// the claimed buffer, and keep serving others.
func TestOversizedRequestRejected(t *testing.T) {
	sys, srv := newTestSystem(t, Options{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := dist.ReadFrame(conn); err != nil {
		t.Fatalf("greeting: %v", err)
	}
	// 512 MiB claimed; the serving layer caps requests at 1 MiB.
	if _, err := conn.Write([]byte{0x20, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := dist.ReadFrame(conn); err == nil {
		t.Fatalf("server answered an oversized frame instead of dropping the session")
	}
	alice := authedClient(t, sys, srv, "alice")
	if err := alice.Assert(`alive(yes)`); err != nil {
		t.Fatalf("post-oversize assert: %v", err)
	}
}

// TestClientDisconnectMidRequest leaves a frame half-written and
// disconnects; the server must shrug it off and keep serving others.
func TestClientDisconnectMidRequest(t *testing.T) {
	sys, srv := newTestSystem(t, Options{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dist.ReadFrame(conn); err != nil {
		t.Fatalf("greeting: %v", err)
	}
	// Length prefix promising 64 bytes, then only 3, then hang up.
	if _, err := conn.Write([]byte{0, 0, 0, 64, 'q', 'u', 'e'}); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// A fresh session works fine afterwards.
	alice := authedClient(t, sys, srv, "alice")
	if err := alice.Assert(`alive(yes)`); err != nil {
		t.Fatalf("post-disconnect assert: %v", err)
	}
}

func TestPatternQueryOverWire(t *testing.T) {
	sys, srv := newTestSystem(t, Options{})
	alice := authedClient(t, sys, srv, "alice")
	if err := alice.Say("bob", `access(chris, file1, read).`); err != nil {
		t.Fatal(err)
	}
	if err := alice.Say("bob", `access(dana, file2, write).`); err != nil {
		t.Fatal(err)
	}
	if err := alice.Sync(); err != nil {
		t.Fatal(err)
	}
	bobC := authedClient(t, sys, srv, "bob")
	rows, err := bobC.Query(`says(alice, me, [| access(U, F, read). |])`)
	if err != nil {
		t.Fatalf("pattern query: %v", err)
	}
	if len(rows) != 1 {
		t.Fatalf("pattern rows = %v, want exactly the read grant", rows)
	}
	bobP, _ := sys.Principal("bob")
	direct, err := bobP.Query(`says(alice, me, [| access(U, F, read). |])`)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != len(rows) || direct[0].Key() != rows[0].Key() {
		t.Fatalf("snapshot pattern rows %v != live rows %v", rows, direct)
	}
}

// TestServedQueryMatchesWorkspaceQuery: the served read path (snapshot
// query, rows frame, client decode) answers exactly what the locked
// Workspace.Query answers on the same state — across base facts, derived
// facts, delivered says with quoted code, and a pattern query.
func TestServedQueryMatchesWorkspaceQuery(t *testing.T) {
	sys, srv := newTestSystem(t, Options{})
	alice := authedClient(t, sys, srv, "alice")
	for i := 0; i < 20; i++ {
		if err := alice.Say("bob", fmt.Sprintf(`access(u%d, file%d, %s).`, i, i%3, []string{"read", "write"}[i%2])); err != nil {
			t.Fatal(err)
		}
	}
	if err := alice.Sync(); err != nil {
		t.Fatal(err)
	}
	bobC := authedClient(t, sys, srv, "bob")
	if err := bobC.Assert(`readable(U, F) <- access(U, F, read).`); err != nil {
		t.Fatal(err)
	}
	if err := bobC.Assert(`note("two\nlines", -7)`); err != nil {
		t.Fatal(err)
	}
	bobP, _ := sys.Principal("bob")
	for q, want := range map[string]int{
		`access(U, F, M)`:    20,
		`access(u4, F, M)`:   1,
		`readable(U, file1)`: 3,
		`note(S, N)`:         1,
		`says(alice, me, R)`: 20,
		`says(alice, me, [| access(U, F, write). |])`: 10,
		`access(nobody, F, M)`:                        0,
	} {
		served, err := bobC.Query(q)
		if err != nil {
			t.Fatalf("served %s: %v", q, err)
		}
		direct, err := bobP.Workspace().Query(q)
		if err != nil {
			t.Fatalf("direct %s: %v", q, err)
		}
		datalog.SortTuples(direct)
		if len(served) != want || len(direct) != want {
			t.Fatalf("%s: served %d rows, workspace %d, want %d", q, len(served), len(direct), want)
		}
		for i := range direct {
			if !served[i].Equal(direct[i]) {
				t.Errorf("%s row %d: served %v, workspace %v", q, i, served[i], direct[i])
			}
		}
	}
}
