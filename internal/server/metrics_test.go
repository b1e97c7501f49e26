package server

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"

	"lbtrust/internal/core"
	"lbtrust/internal/datalog"
	"lbtrust/internal/dist"
	"lbtrust/internal/lbcrypto"
	"lbtrust/internal/obs"
	"lbtrust/internal/workspace"
)

// scrape parses one /metrics exposition into series -> value. It is
// safe to call from a goroutine other than the test's.
func scrape(t *testing.T, r *obs.Registry) map[string]int64 {
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := map[string]int64{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Errorf("bad exposition line %q", line)
		}
		out[line[:i]] = int64(v)
	}
	return out
}

// TestStatsAndMetricsAgree drives every counted event through a served
// system — good and bad authentication, a refused unauthenticated write,
// an admission overload, a gas-budget trip, and Syncs over a transport
// that drops sends — while a scraper reads /metrics concurrently, then
// checks that each Stats counter equals its /metrics series: both are
// the same counter, read two ways.
func TestStatsAndMetricsAgree(t *testing.T) {
	ft := dist.NewFaultTransport(dist.NewMemNetwork(), dist.FaultPlan{Seed: 7, Drop: 0.4})
	sys, err := core.NewSystemWith(ft)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alice", "bob"} {
		if _, err := sys.AddPrincipal(name); err != nil {
			t.Fatal(err)
		}
		if err := sys.EstablishRSA(name); err != nil {
			t.Fatal(err)
		}
	}
	bobP, _ := sys.Principal("bob")
	if err := bobP.TrustAll(); err != nil {
		t.Fatal(err)
	}
	o := &obs.Obs{Registry: obs.NewRegistry()}
	ft.SetMetrics(o.Registry)
	srv, err := Serve(sys, "127.0.0.1:0", Options{Obs: o, MaxInflight: 1, WriteLimits: datalog.Limits{Gas: 20000}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		sys.Close()
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for series, v := range scrape(t, o.Registry) {
				if v < 0 {
					t.Errorf("%s = %d during traffic", series, v)
					return
				}
			}
			srv.Stats()
		}
	}()

	alice := authedClient(t, sys, srv, "alice")
	anon, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { anon.Close() })
	aliceP, _ := sys.Principal("alice")
	aliceKey, _ := aliceP.Keys().RSAKey("alice")
	forged := lbcrypto.NewKeyStore()
	forged.ImportRSA("bob", aliceKey)
	for i := 0; i < 2; i++ { // two failures against one success
		if err := anon.Authenticate("bob", forged); err == nil {
			t.Fatal("authenticated as bob with alice's key")
		}
	}
	if err := anon.Assert(`x(1)`); err == nil {
		t.Fatal("unauthenticated write accepted")
	}
	if err := srv.admit("held"); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Query(`prin(X)`); datalog.ErrCode(err) != datalog.CodeLimitLoad {
		t.Fatalf("query with every slot held = %v, want %s", err, datalog.CodeLimitLoad)
	}
	srv.release("held")
	if err := alice.Assert(`grow: d(X, N+1) <- d(X, N), step(X).`); err != nil {
		t.Fatal(err)
	}
	if err := alice.Assert(`step(x)`); err != nil {
		t.Fatal(err)
	}
	if code := remoteCode(t, alice.Assert(`d(x, 0)`)); code != datalog.CodeLimitGas {
		t.Fatalf("runaway recursion code = %q, want %s", code, datalog.CodeLimitGas)
	}
	for i := 0; i < 3; i++ {
		if err := alice.Say("bob", `greeting(`+strconv.Itoa(i)+`).`); err != nil {
			t.Fatal(err)
		}
		for try := 0; alice.Sync() != nil; try++ {
			if try == 50 {
				t.Fatal("sync never got past the dropped sends")
			}
		}
	}
	close(stop)
	wg.Wait()

	st, fs, m := srv.Stats(), ft.Stats(), scrape(t, o.Registry)
	if st.AuthOK == 0 || st.AuthFailures == 0 || st.Refused == 0 || st.Overloaded == 0 || st.LimitTripped == 0 {
		t.Fatalf("traffic missed a server event: %+v", st)
	}
	if fs.Dropped == 0 || st.Dist.SendFailures == 0 || st.Dist.TuplesDelivered() == 0 {
		t.Fatalf("syncs dropped nothing or delivered nothing: %+v %+v", fs, st.Dist)
	}
	var checks workspace.CheckStats
	for _, name := range sys.Principals() {
		p, _ := sys.Principal(name)
		cs := p.Workspace().CheckStats()
		checks.Incremental += cs.Incremental
		checks.Full += cs.Full
		checks.Skipped += cs.Skipped
	}
	wire := st.Dist.Totals()
	for series, want := range map[string]int64{
		`lb_server_sessions_total`:                                          st.Sessions,
		`lb_server_active_sessions`:                                         st.Active,
		`lb_server_auth_total{outcome="ok"}`:                                st.AuthOK,
		`lb_server_auth_total{outcome="fail"}`:                              st.AuthFailures,
		`lb_server_refused_total`:                                           st.Refused,
		`lb_server_idle_reaped_total`:                                       st.IdleReaped,
		`lb_server_admission_refusals_total`:                                st.Overloaded,
		`lb_server_limit_trips_total{code="LB-LIMIT-005"}`:                  st.Overloaded,
		`lb_dist_syncs_total`:                                               st.Dist.Syncs,
		`lb_dist_rounds_total`:                                              st.Dist.Rounds,
		`lb_dist_send_failures_total`:                                       st.Dist.SendFailures,
		`lb_dist_delta_tuples_total`:                                        st.Dist.DeltaTuples,
		`lb_dist_scanned_tuples_total`:                                      st.Dist.ScannedTuples,
		`lb_dist_suppressed_tuples_total`:                                   st.Dist.SuppressedTuples,
		`lb_dist_delivered_tuples_total`:                                    st.Dist.TuplesDelivered(),
		`lb_dist_rejected_tuples_total`:                                     st.Dist.TuplesRejected(),
		`lb_dist_wire_messages_total{direction="sent",transport="mem"}`:     wire.MessagesSent,
		`lb_dist_wire_messages_total{direction="received",transport="mem"}`: wire.MessagesReceived,
		`lb_dist_wire_bytes_total{direction="sent",transport="mem"}`:        wire.BytesSent,
		`lb_dist_wire_bytes_total{direction="received",transport="mem"}`:    wire.BytesReceived,
		`lb_dist_fault_sends_total`:                                         fs.Sends,
		`lb_dist_fault_injections_total{kind="drop"}`:                       fs.Dropped,
		`lb_dist_fault_injections_total{kind="fail_after"}`:                 fs.FailedAfter,
		`lb_dist_fault_injections_total{kind="duplicate"}`:                  fs.Duplicated,
		`lb_dist_fault_injections_total{kind="delay"}`:                      fs.Delayed,
		`lb_workspace_constraint_checks_total{path="incremental"}`:          checks.Incremental,
		`lb_workspace_constraint_checks_total{path="full"}`:                 checks.Full,
		`lb_workspace_constraint_checks_total{path="skipped"}`:              checks.Skipped,
	} {
		got, ok := m[series]
		if !ok {
			t.Errorf("%s missing from /metrics", series)
		} else if got != want {
			t.Errorf("%s = %d, Stats says %d", series, got, want)
		}
	}
	var trips int64
	for _, code := range datalog.LimitCodes() {
		if code != datalog.CodeLimitLoad {
			trips += m[`lb_server_limit_trips_total{code="`+code+`"}`]
		}
	}
	if trips != st.LimitTripped {
		t.Errorf("limit trips over codes 001-004 = %d, Stats says %d", trips, st.LimitTripped)
	}
}
