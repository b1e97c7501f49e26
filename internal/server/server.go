// Package server is the serving layer: a concurrent trust service that
// exposes a running core.System to network clients. It is what turns the
// library of PRs 1–4 into the paper's pitch — trust management as a
// service principals talk to — in the mold of SAFE's logical trust
// services answering authorization requests for many clients.
//
// Sessions authenticate through the trust system itself: a client proves
// it is principal p by answering a random challenge with p's established
// RSA key (the same lbcrypto key material the says schemes sign with),
// and from then on its writes run in p's workspace — its statements land
// as `p says ...` and ship under p's signature on the next sync. An
// unauthenticated (or failed) session can only run queries, and only in
// the designated anonymous principal's context, if the server configured
// one.
//
// Queries are snapshot reads (workspace.Snapshot): each query evaluates
// against an immutable view published by the queried workspace, so any
// number of sessions read in parallel and never serialize behind a
// writer's flush. Writes (assert / retract / say) are ordinary workspace
// transactions with full constraint checking.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lbtrust/internal/analysis"
	"lbtrust/internal/core"
	"lbtrust/internal/datalog"
	"lbtrust/internal/dist"
	"lbtrust/internal/obs"
	"lbtrust/internal/workspace"
)

// Options configures a Server.
type Options struct {
	// Anonymous names the principal whose context answers queries from
	// unauthenticated sessions. Empty (the default) refuses them.
	Anonymous string

	// QueryLimits bounds read-side evaluation and WriteLimits bounds
	// write-side (flush) evaluation for every principal workspace the
	// system holds when Serve is called (principals added later keep
	// whatever limits their workspace carries). Zero values mean
	// unlimited. A tripped budget fails exactly the one request with a
	// typed LB-LIMIT-* err frame; the session and the node keep serving,
	// and a tripped write rolls the workspace back to its pre-request
	// state.
	QueryLimits datalog.Limits
	WriteLimits datalog.Limits
	// MaxInflight bounds the number of concurrently executing requests
	// (admission control; 0 = unbounded). A request beyond the bound is
	// refused immediately with LB-LIMIT-005 rather than queued.
	MaxInflight int
	// MaxPerPrincipal bounds the concurrently executing requests of any
	// one principal context (0 = unbounded), so a storming client cannot
	// occupy every admission slot: other principals' requests still find
	// room under MaxInflight.
	MaxPerPrincipal int
	// IdleTimeout reaps stalled connections: each request frame must
	// arrive, and each response frame be written, within this window
	// (0 = no deadline). Half-open or slow-loris peers are disconnected;
	// a live session that simply pauses between requests is also closed
	// and must reconnect, so pick a window comfortably above client
	// think time.
	IdleTimeout time.Duration

	// Provenance enables derivation capture on every principal workspace
	// the system holds when Serve is called, which the explain verb
	// requires: without it, explain requests fail with an err frame.
	// Principals created after Serve keep whatever provenance setting
	// their creator chose (exactly like limits).
	Provenance bool
	// ProvenanceMemBytes caps each workspace's derivation DAG, in
	// datalog.TupleCost bytes (0 selects provenance.DefaultMemBytes).
	// Past the cap new derivations are dropped — proofs then bottom out
	// early, marked truncated — rather than growing without bound.
	ProvenanceMemBytes int64
	// SlowQuery logs any query/explain/write/sync slower than this
	// threshold at warn level — with the request's trace ID, principal,
	// duration, and evaluator gas spent — and counts it in
	// lb_server_slow_queries_total. 0 disables.
	SlowQuery time.Duration

	// Obs attaches observability: per-verb request metrics, session
	// logs, and per-request trace IDs (a sync request's trace propagates
	// to peer nodes over the wire). Serve also threads the bundle into
	// the served system (runtime, workspaces, store), so one Options
	// field instruments the whole stack. Nil disables everything.
	Obs *obs.Obs
}

// Stats is a snapshot of the server's counters.
type Stats struct {
	Sessions     int64 `json:"sessions"`      // connections accepted
	Active       int64 `json:"active"`        // connections currently open
	AuthOK       int64 `json:"auth_ok"`       // successful authentications
	AuthFailures int64 `json:"auth_failures"` // refused hellos and bad signatures
	Queries      int64 `json:"queries"`
	Writes       int64 `json:"writes"` // asserts + retracts + says
	Syncs        int64 `json:"syncs"`
	Refused      int64 `json:"refused"` // requests denied for missing authentication
	// LimitTripped counts requests killed by a resource budget
	// (LB-LIMIT-001..004); Overloaded counts requests refused by
	// admission control (LB-LIMIT-005); IdleReaped counts connections
	// closed by the idle deadline.
	LimitTripped int64 `json:"limit_tripped"`
	Overloaded   int64 `json:"overloaded"`
	IdleReaped   int64 `json:"idle_reaped"`
	// Dist carries the distribution runtime's counters, so one stats call
	// shows the whole system.
	Dist dist.Stats `json:"dist"`
}

// Server hosts one core.System behind a TCP listener.
type Server struct {
	sys  *core.System
	opts Options
	ln   net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
	// reqWG tracks requests currently executing in handle, so Shutdown
	// can drain in-flight work before closing connections.
	reqWG sync.WaitGroup

	// Counters are typed atomics: Stats() and /metrics scrapes read them
	// concurrently with every mutation site, and the type makes a torn
	// plain-int64 access impossible to write by accident.
	sessions, active, authOK, authFail atomic.Int64
	queries, writes, syncs, refused    atomic.Int64
	idleReaped                         atomic.Int64
	// limitTrips counts requests stopped under each LB-LIMIT code,
	// indexed like limitCodes: budget trips (Stats.LimitTripped) and
	// admission refusals (Stats.Overloaded) alike.
	limitTrips []atomic.Int64

	// Observability (nil when Options.Obs is nil).
	obs     *obs.Obs
	metrics *Metrics
	log     *slog.Logger

	// Admission state: the count of requests currently executing, total
	// and per principal context. Guarded by admitMu (not s.mu: admission
	// is on every request's path and must not contend with connection
	// bookkeeping).
	admitMu  sync.Mutex
	inflight int
	perPrin  map[string]int
}

// Serve starts a server for the system on the given TCP address (e.g.
// "127.0.0.1:0") and begins accepting sessions in the background.
func Serve(sys *core.System, addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", addr, err)
	}
	s := &Server{sys: sys, opts: opts, ln: ln, conns: map[net.Conn]struct{}{}, perPrin: map[string]int{},
		limitTrips: make([]atomic.Int64, len(limitCodes))}
	if opts.Obs != nil {
		s.obs = opts.Obs
		if r := opts.Obs.Reg(); r != nil {
			s.metrics = newMetrics(r, s)
		}
		if opts.Obs.Log != nil {
			s.log = opts.Obs.Logger("server")
		}
		// One Options field instruments the whole stack: runtime,
		// workspaces, and store inherit the same bundle.
		sys.SetObs(opts.Obs)
	}
	// Install the configured evaluation budgets on every principal
	// workspace the system holds right now. Limits are a property of the
	// workspace (they also bind embedded callers), so principals created
	// after Serve keep whatever limits their creator set.
	if opts.QueryLimits.Enabled() || opts.WriteLimits.Enabled() {
		for _, name := range sys.Principals() {
			if p, ok := sys.Principal(name); ok {
				p.Workspace().SetLimits(opts.QueryLimits, opts.WriteLimits)
			}
		}
	}
	// Provenance is enabled the same way limits are: on every workspace
	// the system holds right now. EnableProvenance re-runs evaluation to
	// capture derivations for already-loaded state, so a server started
	// over a recovered store explains its recovered facts too.
	if opts.Provenance {
		for _, name := range sys.Principals() {
			if p, ok := sys.Principal(name); ok {
				if err := p.Workspace().EnableProvenance(opts.ProvenanceMemBytes); err != nil {
					ln.Close()
					return nil, fmt.Errorf("server: enabling provenance for %q: %w", name, err)
				}
			}
		}
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// admit reserves an execution slot for one request in the given principal
// context ("" for unauthenticated). It refuses — with the typed
// LB-LIMIT-005 error, never by queuing — when the server or the principal
// is at its concurrency bound.
func (s *Server) admit(who string) error {
	if s.opts.MaxInflight <= 0 && s.opts.MaxPerPrincipal <= 0 {
		return nil
	}
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if s.opts.MaxInflight > 0 && s.inflight >= s.opts.MaxInflight {
		s.limitTrip(datalog.CodeLimitLoad)
		return &datalog.LimitError{
			Code: datalog.CodeLimitLoad,
			Msg:  fmt.Sprintf("server overloaded: %d requests in flight (limit %d)", s.inflight, s.opts.MaxInflight),
		}
	}
	if s.opts.MaxPerPrincipal > 0 && s.perPrin[who] >= s.opts.MaxPerPrincipal {
		s.limitTrip(datalog.CodeLimitLoad)
		return &datalog.LimitError{
			Code: datalog.CodeLimitLoad,
			Msg:  fmt.Sprintf("principal %q at its concurrency limit (%d requests in flight)", who, s.opts.MaxPerPrincipal),
		}
	}
	s.inflight++
	s.perPrin[who]++
	return nil
}

// release returns the slot taken by admit.
func (s *Server) release(who string) {
	if s.opts.MaxInflight <= 0 && s.opts.MaxPerPrincipal <= 0 {
		return
	}
	s.admitMu.Lock()
	s.inflight--
	if s.perPrin[who]--; s.perPrin[who] <= 0 {
		delete(s.perPrin, who)
	}
	s.admitMu.Unlock()
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// System returns the served system.
func (s *Server) System() *core.System { return s.sys }

// Stats snapshots the server's counters (the served system is not
// touched beyond its own stats snapshot).
func (s *Server) Stats() Stats {
	var tripped, overloaded int64
	for i, code := range limitCodes {
		if code == datalog.CodeLimitLoad {
			overloaded += s.limitTrips[i].Load()
		} else {
			tripped += s.limitTrips[i].Load()
		}
	}
	return Stats{
		Sessions:     s.sessions.Load(),
		Active:       s.active.Load(),
		AuthOK:       s.authOK.Load(),
		AuthFailures: s.authFail.Load(),
		Queries:      s.queries.Load(),
		Writes:       s.writes.Load(),
		Syncs:        s.syncs.Load(),
		Refused:      s.refused.Load(),
		LimitTripped: tripped,
		Overloaded:   overloaded,
		IdleReaped:   s.idleReaped.Load(),
		Dist:         s.sys.Stats(),
	}
}

// Close stops accepting, closes every open session, and waits for their
// handlers to return. The served system itself stays open (the caller
// owns it).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// Shutdown is the graceful variant of Close: it stops accepting new
// sessions, lets requests already executing finish (up to the bounded
// drain deadline; 0 means no waiting), then closes every connection —
// idle sessions would otherwise hold the server open forever — and waits
// for the session handlers to return. Requests still in flight when the
// deadline expires are cut off mid-connection, exactly as under Close.
// The served system stays open (the caller owns it, and flushes its WAL
// on its own Close).
func (s *Server) Shutdown(drain time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	s.mu.Unlock()
	if s.log != nil {
		s.log.Info("shutdown: draining in-flight requests", "deadline", drain)
	}
	if drain > 0 {
		done := make(chan struct{})
		go func() {
			s.reqWG.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(drain):
			if s.log != nil {
				s.log.Warn("shutdown: drain deadline expired with requests still in flight")
			}
		}
	}
	s.mu.Lock()
	open := len(s.conns)
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	if s.log != nil {
		s.log.Info("shutdown complete", "sessions_closed", open)
	}
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.sessions.Add(1)
		s.active.Add(1)
		go s.serve(conn)
	}
}

// maxRequestFrame bounds one client request (a verb line plus a clause).
// Requests are read from unauthenticated peers, so the bound is checked
// before any allocation — the transport's 1 GiB safety net is sized for
// trusted inter-node envelopes, not the open serving port.
const maxRequestFrame = 1 << 20

// session is one connection's authentication state.
type session struct {
	claim     string // principal named by a pending hello
	nonce     string // hex challenge awaiting its signature
	principal *core.Principal
}

// serve runs one session: greeting, then request/response frames until
// the client disconnects. A malformed frame or request produces an err
// response, never a dropped connection; only wire errors end the session.
func (s *Server) serve(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		s.active.Add(-1)
		s.wg.Done()
	}()
	if s.log != nil {
		s.log.Debug("session opened", "remote", conn.RemoteAddr().String())
		defer s.log.Debug("session closed", "remote", conn.RemoteAddr().String())
	}
	idle := s.opts.IdleTimeout
	if idle > 0 {
		conn.SetWriteDeadline(time.Now().Add(idle))
	}
	if err := dist.WriteFrame(conn, []byte(Magic+" system")); err != nil {
		return
	}
	sess := &session{}
	for {
		// One deadline spans the whole frame read, so a slow-loris peer
		// trickling a byte at a time is reaped just like a silent one: the
		// clock does not reset on partial progress.
		if idle > 0 {
			conn.SetReadDeadline(time.Now().Add(idle))
		}
		data, err := dist.ReadFrameLimit(conn, maxRequestFrame)
		if err != nil {
			if isTimeout(err) {
				s.idleReaped.Add(1)
			}
			return // EOF, timeout, oversized/mid-frame request, or broken peer
		}
		resp := s.handle(sess, data)
		if idle > 0 {
			conn.SetWriteDeadline(time.Now().Add(idle))
		}
		if err := dist.WriteFrame(conn, resp); err != nil {
			if isTimeout(err) {
				s.idleReaped.Add(1)
			}
			return
		}
	}
}

// isTimeout reports whether the wire error is an expired I/O deadline.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// handle dispatches one request frame and returns the response frame.
// Heavy verbs (query, writes, sync) pass admission control first;
// authentication and stats are always admitted, so an operator can still
// inspect an overloaded node.
func (s *Server) handle(sess *session, data []byte) []byte {
	s.reqWG.Add(1)
	defer s.reqWG.Done()
	req, err := parseRequest(data)
	if err != nil {
		if s.metrics != nil {
			s.metrics.observe("unknown", 0)
		}
		return errFrame(err)
	}
	// Each request gets its own trace ID when observability is attached:
	// it labels this request's span and log line, and a sync request
	// propagates it to peer nodes inside the shipped envelopes.
	var trace obs.TraceID
	if s.obs != nil {
		trace = obs.NewTraceID()
		span := s.obs.Trace().StartSpan(trace, "", "server."+req.verb, "")
		if span != nil {
			defer span.End()
		}
		if s.metrics != nil {
			s.metrics.inflight.Inc()
			start := time.Now()
			defer func() {
				s.metrics.inflight.Dec()
				s.metrics.observe(req.verb, time.Since(start))
			}()
		}
		// Enabled gate first: at info level the per-request line must not
		// even assemble its argument list.
		if s.log != nil && s.log.Enabled(context.Background(), slog.LevelDebug) {
			who := ""
			if sess.principal != nil {
				who = sess.principal.Name()
			}
			s.log.Debug("request", "trace", trace, "verb", req.verb, "principal", who)
		}
	}
	rs := &reqStats{gas: -1}
	var start time.Time
	if s.opts.SlowQuery > 0 {
		start = time.Now()
	}
	resp := s.dispatch(sess, req, trace, rs)
	if s.opts.SlowQuery > 0 {
		if d := time.Since(start); d >= s.opts.SlowQuery {
			switch req.verb {
			case "query", "explain", "assert", "retract", "say", "sync":
				if s.metrics != nil {
					s.metrics.slowQueries.Inc()
				}
				if s.log != nil {
					who := ""
					if sess.principal != nil {
						who = sess.principal.Name()
					}
					s.log.Warn("slow request", "verb", req.verb, "principal", who,
						"trace", trace, "duration", d, "gas", rs.gas)
				}
			}
		}
	}
	return resp
}

// reqStats carries per-request evaluation facts from the verb handlers
// back to handle and the audit log: the evaluator gas the request spent
// (-1 when unknown or unmetered) and the proof roots it touched.
type reqStats struct {
	gas   int64
	roots []string
}

// dispatch routes one parsed request to its verb handler. Heavy verbs
// additionally land on the authorization audit log when the session is
// authenticated.
func (s *Server) dispatch(sess *session, req request, trace obs.TraceID, rs *reqStats) []byte {
	switch req.verb {
	case "hello":
		return s.hello(sess, req.text)
	case "auth":
		return s.auth(sess, req.text)
	case "query", "explain", "assert", "retract", "say", "sync":
		who := ""
		if sess.principal != nil {
			who = sess.principal.Name()
		}
		if err := s.admit(who); err != nil {
			return errFrame(err)
		}
		defer s.release(who)
		var resp []byte
		switch req.verb {
		case "query":
			resp = s.query(sess, req.text, rs)
		case "explain":
			resp = s.explain(sess, req.text, rs)
		case "assert", "retract":
			resp = s.write(sess, req.verb, req.text, trace, rs)
		case "say":
			resp = s.say(sess, req.to, req.text, trace, rs)
		default: // sync
			if sess.principal == nil {
				s.refused.Add(1)
				return errFrame(fmt.Errorf("server: sync requires an authenticated session"))
			}
			s.syncs.Add(1)
			if err := s.sys.SyncTraced(trace); err != nil {
				resp = s.evalErrFrame(err)
			} else {
				resp = []byte("ok")
			}
		}
		s.audit(sess, req, trace, rs, resp)
		return resp
	case "stats":
		blob, err := json.Marshal(s.Stats())
		if err != nil {
			return errFrame(err)
		}
		return append([]byte(fmt.Sprintf("json %d\n", len(blob))), blob...)
	}
	return errFrame(fmt.Errorf("server: unknown verb %q", req.verb))
}

// audit records one authenticated request on the authorization audit log:
// who did what, under which trace ID, touching which proof roots, and how
// it ended (ok, or the typed error code). Unauthenticated requests are
// not audited — they cannot write, and anonymous reads carry no principal
// identity. A server without an audit log pays one nil branch.
func (s *Server) audit(sess *session, req request, trace obs.TraceID, rs *reqStats, resp []byte) {
	if sess.principal == nil || s.obs.Audit() == nil {
		return
	}
	outcome := "ok"
	if r := string(resp); strings.HasPrefix(r, "err ") {
		outcome = "err"
		if fields := strings.Fields(r); len(fields) >= 2 && strings.HasPrefix(fields[1], "LB-") {
			outcome = fields[1]
		}
	}
	detail := req.text
	if req.verb == "say" {
		detail = req.to + " " + req.text
	}
	const maxDetail = 200
	if len(detail) > maxDetail {
		detail = detail[:maxDetail] + "..."
	}
	s.obs.Audit().Record(obs.AuditEntry{
		Trace:     string(trace),
		Principal: sess.principal.Name(),
		Verb:      req.verb,
		Detail:    detail,
		Roots:     rs.roots,
		Outcome:   outcome,
	})
}

// evalErrFrame is errFrame plus accounting: evaluation failures caused by
// a tripped resource budget count in Stats.LimitTripped.
func (s *Server) evalErrFrame(err error) []byte {
	var le *datalog.LimitError
	if errors.As(err, &le) {
		s.limitTrip(le.Code)
	}
	return errFrame(err)
}

// hello begins challenge–response authentication: the claimed principal
// must exist and have established RSA key material; the response carries
// a fresh random challenge for the client to sign.
func (s *Server) hello(sess *session, principal string) []byte {
	sess.claim, sess.nonce, sess.principal = "", "", nil
	p, ok := s.sys.Principal(principal)
	if !ok {
		s.authFail.Add(1)
		return errFrame(fmt.Errorf("server: unknown principal %q", principal))
	}
	if _, ok := p.Keys().RSAKey(principal); !ok {
		s.authFail.Add(1)
		return errFrame(fmt.Errorf("server: principal %q has no established key", principal))
	}
	var nonce [32]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return errFrame(fmt.Errorf("server: generating challenge: %w", err))
	}
	sess.claim = principal
	sess.nonce = hex.EncodeToString(nonce[:])
	return []byte("challenge " + sess.nonce)
}

// auth completes authentication: the signature must verify against the
// claimed principal's established public key. A failed signature clears
// the pending challenge — the session stays unauthenticated and must
// start over with a fresh hello (and a fresh nonce).
func (s *Server) auth(sess *session, sigHex string) []byte {
	claim, nonce := sess.claim, sess.nonce
	sess.claim, sess.nonce = "", ""
	if claim == "" {
		s.authFail.Add(1)
		return errFrame(fmt.Errorf("server: auth without a pending hello"))
	}
	p, ok := s.sys.Principal(claim)
	if !ok {
		s.authFail.Add(1)
		return errFrame(fmt.Errorf("server: unknown principal %q", claim))
	}
	key, ok := p.Keys().RSAKey(claim)
	if !ok || !p.Keys().VerifyRSA(authMessage(nonce), sigHex, &key.PublicKey) {
		s.authFail.Add(1)
		return errFrame(fmt.Errorf("server: signature does not prove %q", claim))
	}
	sess.principal = p
	s.authOK.Add(1)
	return []byte("ok " + claim)
}

// readPrincipal resolves the principal context a read runs in: the
// authenticated principal, or the configured anonymous principal for
// unauthenticated sessions. The second return value is the refusal frame
// when neither applies.
func (s *Server) readPrincipal(sess *session) (*core.Principal, []byte) {
	if sess.principal != nil {
		return sess.principal, nil
	}
	if s.opts.Anonymous == "" {
		s.refused.Add(1)
		return nil, errFrame(fmt.Errorf("server: queries require authentication (no anonymous principal configured)"))
	}
	anon, ok := s.sys.Principal(s.opts.Anonymous)
	if !ok {
		return nil, errFrame(fmt.Errorf("server: anonymous principal %q does not exist", s.opts.Anonymous))
	}
	return anon, nil
}

// predOf extracts the predicate name from an atom or fact's source text,
// for audit roots. Best effort: the text up to the first parenthesis.
func predOf(src string) string {
	if i := strings.IndexByte(src, '('); i >= 0 {
		return strings.TrimSpace(src[:i])
	}
	return strings.TrimSpace(src)
}

// query answers a read in the session's principal context — the
// authenticated principal, or the configured anonymous principal for
// unauthenticated sessions.
func (s *Server) query(sess *session, src string, rs *reqStats) []byte {
	p, refusal := s.readPrincipal(sess)
	if refusal != nil {
		return refusal
	}
	s.queries.Add(1)
	rows, stats, err := p.Workspace().Snapshot().QueryStats(src)
	rs.gas = stats.Gas
	if err != nil {
		return s.evalErrFrame(err)
	}
	rs.roots = []string{fmt.Sprintf("%s/%d", predOf(src), len(rows))}
	return encodeRows(rows)
}

// explain is query's proof-carrying sibling: it evaluates the atom in the
// session's principal context and answers with the derivation tree of
// every match, down to base facts and remote-delivery leaves. Requires
// the server to run with provenance capture enabled.
func (s *Server) explain(sess *session, src string, rs *reqStats) []byte {
	p, refusal := s.readPrincipal(sess)
	if refusal != nil {
		return refusal
	}
	s.queries.Add(1)
	proofs, err := p.Workspace().ExplainQuery(src)
	if err != nil {
		return s.evalErrFrame(err)
	}
	for _, pr := range proofs {
		rs.roots = append(rs.roots, pr.Pred+pr.Tuple.String())
	}
	frame, err := encodeProofs(proofs)
	if err != nil {
		return errFrame(err)
	}
	return frame
}

// write runs an assert or retract transaction in the authenticated
// principal's workspace. Asserting a rule (rather than a ground fact)
// first runs the static analyzer against the target workspace: error
// diagnostics refuse the write with their typed code in the err frame,
// warning diagnostics ride back on the ok frame, one per line.
func (s *Server) write(sess *session, verb, src string, trace obs.TraceID, rs *reqStats) []byte {
	if sess.principal == nil {
		s.refused.Add(1)
		return errFrame(fmt.Errorf("server: %s requires an authenticated session", verb))
	}
	s.writes.Add(1)
	ws := sess.principal.Workspace()
	run := func(fn func(tx *workspace.Tx) error) error {
		stats, err := ws.UpdateTraced(string(trace), fn)
		rs.gas = stats.Gas
		return err
	}
	// Parse before taking the workspace lock: malformed source from the
	// wire is refused without opening a transaction.
	clause, err := datalog.ParseClause(datalog.EnsureDot(src))
	if err != nil {
		return errFrame(err)
	}
	rs.roots = []string{predOf(src)}
	if verb == "retract" {
		if err := run(func(tx *workspace.Tx) error { return tx.Retract(src) }); err != nil {
			return s.evalErrFrame(err)
		}
		return []byte("ok")
	}
	if clause.IsFact() {
		if err := run(func(tx *workspace.Tx) error { return tx.Assert(src) }); err != nil {
			return s.evalErrFrame(err)
		}
		return []byte("ok")
	}
	// The analyzer must run before Update: it snapshots the workspace
	// under the same lock the transaction will take.
	diags := ws.AnalyzeSource(datalog.EnsureDot(src))
	if analysis.HasErrors(diags) {
		s.refused.Add(1)
		return errFrame(analysis.NewError(diags))
	}
	if err := run(func(tx *workspace.Tx) error { return tx.AddRuleSrc(src) }); err != nil {
		return s.evalErrFrame(err)
	}
	resp := "ok"
	for _, d := range diags {
		resp += "\n" + d.String()
	}
	return []byte(resp)
}

// say asserts says(me, to, [| clause |]) as the authenticated principal.
// The session cannot speak for anyone else: the sender identity is the
// proven principal, full stop.
func (s *Server) say(sess *session, to, clause string, trace obs.TraceID, rs *reqStats) []byte {
	if sess.principal == nil {
		s.refused.Add(1)
		return errFrame(fmt.Errorf("server: say requires an authenticated session"))
	}
	s.writes.Add(1)
	stats, err := sess.principal.SayTraced(to, clause, string(trace))
	rs.gas = stats.Gas
	if err != nil {
		return s.evalErrFrame(err)
	}
	rs.roots = []string{"says -> " + to}
	return []byte("ok")
}
