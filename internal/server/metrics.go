package server

import (
	"time"

	"lbtrust/internal/datalog"
	"lbtrust/internal/obs"
)

// verbs is every request verb the protocol knows, in exposition order.
// Metric children are pre-registered for all of them (plus "unknown" for
// unparseable verbs) so the /metrics surface is stable from the first
// scrape — a golden-file test relies on that.
var verbs = []string{"hello", "auth", "query", "explain", "assert", "retract", "say", "sync", "stats"}

// limitCodes indexes Server.limitTrips: every LB-LIMIT code a request can
// be stopped with, admission refusals (LB-LIMIT-005) included.
var limitCodes = datalog.LimitCodes()

// Metrics holds the server metrics that have no Stats twin: per-verb
// request counts and latency, the inflight gauge, and slow queries. A
// nil *Metrics disables them; instrumented sites pay one branch.
type Metrics struct {
	requests    map[string]*obs.Counter
	reqSeconds  map[string]*obs.Histogram
	inflight    *obs.Gauge
	slowQueries *obs.Counter
}

// newMetrics registers the server metric families on r: the families
// above, plus reads of the server's own Stats counters, which /metrics
// reports at scrape time.
func newMetrics(r *obs.Registry, s *Server) *Metrics {
	m := &Metrics{
		requests:   map[string]*obs.Counter{},
		reqSeconds: map[string]*obs.Histogram{},
		inflight:   r.Gauge("lb_server_inflight_requests", "requests currently executing"),
		slowQueries: r.Counter("lb_server_slow_queries_total",
			"requests slower than the configured slow-query threshold"),
	}
	const reqHelp = "requests handled, by verb"
	const latHelp = "request handling latency, by verb"
	for _, v := range append(append([]string{}, verbs...), "unknown") {
		m.requests[v] = r.Counter("lb_server_requests_total", reqHelp, "verb", v)
		m.reqSeconds[v] = r.Histogram("lb_server_request_seconds", latHelp, "verb", v)
	}

	r.GaugeFunc("lb_server_active_sessions", "connections currently open", s, s.active.Load)
	r.CounterFunc("lb_server_sessions_total", "connections accepted", s, s.sessions.Load)
	r.CounterFunc("lb_server_auth_total", "authentication outcomes", s, s.authOK.Load, "outcome", "ok")
	r.CounterFunc("lb_server_auth_total", "authentication outcomes", s, s.authFail.Load, "outcome", "fail")
	r.CounterFunc("lb_server_refused_total",
		"requests denied for missing authentication or failed static analysis", s, s.refused.Load)
	r.CounterFunc("lb_server_idle_reaped_total", "connections closed by the idle deadline", s, s.idleReaped.Load)
	// Every typed resource-limit code gets its child up front, so a code
	// that never fires still shows a zero series (and the lockstep test
	// against analysis.Catalog sees the full set).
	for i, code := range limitCodes {
		r.CounterFunc("lb_server_limit_trips_total",
			"requests killed by a resource budget, by LB-LIMIT code", s, s.limitTrips[i].Load, "code", code)
		if code == datalog.CodeLimitLoad {
			r.CounterFunc("lb_server_admission_refusals_total",
				"requests refused by admission control (LB-LIMIT-005)", s, s.limitTrips[i].Load)
		}
	}
	return m
}

// observe records one handled request. Unknown verbs (parse failures,
// unrecognized words) land in the "unknown" child rather than minting
// unbounded label values from attacker-controlled input.
func (m *Metrics) observe(verb string, d time.Duration) {
	if m == nil {
		return
	}
	c, ok := m.requests[verb]
	if !ok {
		verb = "unknown"
		c = m.requests[verb]
	}
	c.Inc()
	m.reqSeconds[verb].Observe(d)
}

// limitTrip counts one request stopped under an LB-LIMIT code.
func (s *Server) limitTrip(code string) {
	for i, c := range limitCodes {
		if c == code {
			s.limitTrips[i].Add(1)
			return
		}
	}
}
