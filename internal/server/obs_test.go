package server

import (
	"bytes"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"lbtrust/internal/obs"
)

// TestStatsRaceUnderMixedTraffic hammers Stats() while sessions run
// queries, writes, and syncs. Under -race this pins the satellite
// contract of the typed-atomic counter conversion: no torn reads, no
// data races, and the JSON stats verb stays safe to poll in production.
func TestStatsRaceUnderMixedTraffic(t *testing.T) {
	sys, srv := newTestSystem(t, Options{Anonymous: "alice"})
	alice := authedClient(t, sys, srv, "alice")
	bob := authedClient(t, sys, srv, "bob")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			alice.Assert(`count(x)`)
			alice.Query(`count(X)`)
			if i%10 == 0 {
				alice.Sync()
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			bob.Query(`count(X)`)
			bob.Stats()
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := srv.Stats()
				if st.Sessions < 0 || st.Queries < 0 {
					t.Error("implausible negative counter")
					return
				}
			}
		}()
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// lockedBuffer is a log sink the test reads while session goroutines may
// still be writing their closing lines to it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestServerObsEndToEnd drives real traffic through an instrumented
// server and checks the whole stack reported: per-verb server metrics,
// evaluator counters from the workspace layer, dist sync counters, and
// a request trace whose ID shows up in a dist-layer span and in the log.
func TestServerObsEndToEnd(t *testing.T) {
	var logBuf lockedBuffer
	o := &obs.Obs{
		Registry: obs.NewRegistry(),
		Log:      slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug})),
		Tracer:   obs.NewTracer(256),
	}
	sys, srv := newTestSystem(t, Options{Obs: o})
	alice := authedClient(t, sys, srv, "alice")

	if err := alice.Say("bob", `greeting(hello).`); err != nil {
		t.Fatalf("say: %v", err)
	}
	if err := alice.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if _, err := alice.Query(`greeting(X)`); err != nil {
		t.Fatalf("query: %v", err)
	}

	var prom bytes.Buffer
	o.Registry.WritePrometheus(&prom)
	exp := prom.String()
	for _, want := range []string{
		`lb_server_requests_total{verb="query"} 1`,
		`lb_server_requests_total{verb="say"} 1`,
		`lb_server_requests_total{verb="sync"} 1`,
		`lb_server_auth_total{outcome="ok"} 1`,
		"lb_eval_runs_total",
		"lb_dist_syncs_total 1",
		"lb_workspace_flush_seconds_count",
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The sync request minted a trace; the same ID must appear on a
	// server.sync span and on the dist.sync span it drove.
	var syncTrace obs.TraceID
	for _, sp := range o.Tracer.Spans() {
		if sp.Name == "server.sync" {
			syncTrace = sp.Trace
		}
	}
	if syncTrace == "" {
		t.Fatalf("no server.sync span recorded; spans: %+v", o.Tracer.Spans())
	}
	foundDist := false
	for _, sp := range o.Tracer.SpansFor(syncTrace) {
		if sp.Name == "dist.sync" {
			foundDist = true
		}
	}
	if !foundDist {
		t.Errorf("sync trace %s has no dist.sync span", syncTrace)
	}
	if !strings.Contains(logBuf.String(), string(syncTrace)) {
		t.Errorf("log output does not mention sync trace %s", syncTrace)
	}
}

// TestShutdownGraceful: Shutdown stops the listener, closes idle
// sessions, and returns; a second Shutdown (or Close) is a no-op.
func TestShutdownGraceful(t *testing.T) {
	sys, srv := newTestSystem(t, Options{})
	alice := authedClient(t, sys, srv, "alice")
	if err := alice.Assert(`color(red)`); err != nil {
		t.Fatalf("assert: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(2 * time.Second) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown did not return")
	}
	if _, err := Dial(srv.Addr()); err == nil {
		t.Errorf("dial succeeded after shutdown")
	}
	if err := srv.Close(); err != nil {
		t.Errorf("close after shutdown: %v", err)
	}
	if st := srv.Stats(); st.Active != 0 {
		t.Errorf("active sessions after shutdown = %d, want 0", st.Active)
	}
}

// TestMalformedRetractDoesNotRebuild: any authenticated session can send
// `retract <garbage>`; it must be refused without the workspace paying a
// rebuild-from-base (a full evaluation and, under RSA, a re-sign of
// every export, under the workspace lock) per request.
func TestMalformedRetractDoesNotRebuild(t *testing.T) {
	o := &obs.Obs{Registry: obs.NewRegistry()}
	sys, srv := newTestSystem(t, Options{Obs: o})
	alice := authedClient(t, sys, srv, "alice")
	if err := alice.Assert(`edge(a, b)`); err != nil {
		t.Fatalf("assert: %v", err)
	}
	p, _ := sys.Principal("alice")
	fullRuns := o.Registry.Counter("lb_eval_runs_total", "", "mode", "full")
	db, runs := p.Workspace().DB(), fullRuns.Value()
	for _, src := range []string{"garbage((", "p(X) <- q(X)"} {
		if err := alice.Retract(src); err == nil {
			t.Fatalf("retract %q succeeded", src)
		}
	}
	if p.Workspace().DB() != db {
		t.Error("refused retract replaced the workspace database")
	}
	if got := fullRuns.Value(); got != runs {
		t.Errorf("refused retracts ran %d full evaluations, want 0", got-runs)
	}
	if err := alice.Retract(`edge(a, b)`); err != nil {
		t.Errorf("well-formed retract after the refusals: %v", err)
	}
}
