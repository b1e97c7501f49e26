package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lbtrust/internal/core"
	"lbtrust/internal/datalog"
	"lbtrust/internal/server"
	"lbtrust/internal/workspace"
)

// served is a system behind server.Serve on loopback TCP with
// authenticated client sessions: alice holds the perm relation and signs
// under RSA, bob trusts and receives what she says.
type served struct {
	e       *env
	dir     string // data directory; "" for the in-memory system
	sys     *core.System
	srv     *server.Server
	alice   *core.Principal
	clients []*server.Client
	pools   [][]query // per client, cycled
	notes   []string  // serve.mixed: statements the writer says
	said    int
}

// poolSize bounds each client's pre-generated query pool; a client cycles
// through it, so keys repeat only after poolSize requests.
const poolSize = 1 << 14

var dataDirSeq atomic.Int64

// newDataDir names a data directory under the run's output directory that
// no other set-up or process uses.
func newDataDir(cfg config) string {
	return filepath.Join(cfg.outDir, fmt.Sprintf("data-%d-%d", os.Getpid(), dataDirSeq.Add(1)))
}

// durableOptions is the lbtrust-serve default: interval fsync.
var durableOptions = core.DurableOptions{}

const fsyncPolicy = "interval (store default, 50ms)"

// loadPerm asserts the served relation: perm(uI, o(I mod objects), read).
func loadPerm(p *core.Principal, n int) error {
	return p.Update(func(tx *workspace.Tx) error {
		for i := 0; i < n; i++ {
			t := datalog.NewTuple(
				datalog.Sym(fmt.Sprintf("u%d", i)),
				datalog.Sym(fmt.Sprintf("o%d", i%objects)),
				datalog.Sym("read"),
			)
			if err := tx.AssertTuple("perm", t); err != nil {
				return err
			}
		}
		return nil
	})
}

// newServedSystem builds the two principals on the default node, RSA on
// both ends, with the perm relation loaded at alice.
func newServedSystem(dir string, baseFacts int) (*core.System, error) {
	var sys *core.System
	if dir == "" {
		sys = core.NewSystem()
	} else {
		var err error
		if sys, err = core.OpenSystem(dir, durableOptions); err != nil {
			return nil, err
		}
	}
	build := func() error {
		alice, err := sys.AddPrincipal("alice")
		if err != nil {
			return err
		}
		bob, err := sys.AddPrincipal("bob")
		if err != nil {
			return err
		}
		for _, name := range []string{"alice", "bob"} {
			if err := sys.EstablishRSA(name); err != nil {
				return err
			}
		}
		if err := bob.TrustAll(); err != nil {
			return err
		}
		for _, p := range []*core.Principal{bob, alice} {
			if err := p.UseScheme(core.SchemeRSA); err != nil {
				return err
			}
		}
		return loadPerm(alice, baseFacts)
	}
	if err := build(); err != nil {
		sys.Close()
		return nil, err
	}
	return sys, nil
}

func setupServe(e *env, durable bool) (*served, error) {
	s := &served{e: e}
	if durable {
		s.dir = newDataDir(e.cfg)
	}
	var err error
	if s.sys, err = newServedSystem(s.dir, e.sz.BaseFacts); err != nil {
		return nil, err
	}
	s.alice, _ = s.sys.Principal("alice")
	if s.srv, err = server.Serve(s.sys, "127.0.0.1:0", server.Options{}); err != nil {
		s.close()
		return nil, err
	}
	for i := 0; i < e.sz.Clients; i++ {
		c, err := server.Dial(s.srv.Addr())
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, c)
		if err := c.Authenticate("alice", s.alice.Keys()); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// warmQueries sends each client's first warm-up queries, discarded.
func (s *served) warmQueries() error {
	for i, c := range s.clients {
		for _, q := range head(s.pools[i], s.e.sz.Warmup) {
			if rows, err := c.Query(q.src); err != nil || len(rows) != q.rows {
				return fmt.Errorf("warm-up %s: %d rows, err %v", q.src, len(rows), err)
			}
		}
	}
	return nil
}

func (s *served) close() {
	for _, c := range s.clients {
		c.Close()
	}
	s.clients = nil
	if s.srv != nil {
		s.srv.Close()
		s.srv = nil
	}
	if s.sys != nil {
		s.sys.Close()
		s.sys = nil
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

var objectNames = func() [objects]datalog.Sym {
	var names [objects]datalog.Sym
	for j := range names {
		names[j] = datalog.Sym(fmt.Sprintf("o%d", j))
	}
	return names
}()

// answerOK checks a served read against its expected answer: the exact
// row count, and for a point lookup the row itself.
func answerOK(q query, rows []datalog.Tuple, err error) bool {
	if err != nil || len(rows) != q.rows {
		return false
	}
	if q.scan {
		return true
	}
	r := rows[0]
	return r.Len() == 3 && r.At(1) == datalog.Value(objectNames[q.user%objects]) && r.At(2) == datalog.Value(datalog.Sym("read"))
}

// readLoop is one closed-loop client session issuing n reads from its
// pool, or reading until stop closes when n < 0.
func (s *served) readLoop(tr *tracer, ci, n int, stop <-chan struct{}, ph *clientPhase) {
	c, pool := s.clients[ci], s.pools[ci]
	for i := 0; n < 0 || i < n; i++ {
		if stop != nil {
			select {
			case <-stop:
				return
			default:
			}
		}
		q := pool[i%len(pool)]
		t0 := time.Now()
		rows, err := c.Query(q.src)
		d := time.Since(t0)
		ph.attempted++
		if !answerOK(q, rows, err) {
			ph.fail("%s: %d rows (want %d), err %v", q.src, len(rows), q.rows, err)
		}
		if q.scan {
			ph.scanUS.addDur(d)
		} else {
			ph.pointUS.addDur(d)
		}
		if tr != nil {
			req := ci<<24 | i
			root := tr.record("request", -1, req, t0, time.Since(t0))
			tr.record("client.query", root, req, t0, d)
		}
	}
}

// clientPhase is one session's share of a measured phase, merged after
// the sessions stop.
type clientPhase struct {
	pointUS, scanUS, writeUS, syncUS samples
	attempted, failed                int64
	failures                         []string
}

func (c *clientPhase) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < 4 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

func merge(ph *phase, parts []*clientPhase) (all clientPhase) {
	for _, p := range parts {
		all.pointUS = append(all.pointUS, p.pointUS...)
		all.scanUS = append(all.scanUS, p.scanUS...)
		all.writeUS = append(all.writeUS, p.writeUS...)
		all.syncUS = append(all.syncUS, p.syncUS...)
		ph.attempted += p.attempted
		for _, f := range p.failures {
			ph.fail(0, "%s", f)
		}
		ph.failed += p.failed
	}
	return all
}

// serverCounters reports the server's own request accounting over the
// phase; refusals and limit trips are failures the clients also saw.
func serverCounters(before, after server.Stats) []Metric {
	return []Metric{
		count("server.queries", "count", float64(after.Queries-before.Queries)),
		count("server.writes", "count", float64(after.Writes-before.Writes)),
		count("server.refused", "count", float64(after.Refused-before.Refused)),
		count("server.limit_tripped", "count", float64(after.LimitTripped-before.LimitTripped)),
		count("server.overloaded", "count", float64(after.Overloaded-before.Overloaded)),
	}
}

// ---- serve.read -------------------------------------------------------------

type serveRead struct{ *served }

func setupServeRead(e *env) (instance, error) {
	s, err := setupServe(e, false)
	if err != nil {
		return nil, err
	}
	n := min(e.sz.Requests, poolSize)
	for range s.clients {
		s.pools = append(s.pools, readMix(e.rng, n, e.sz.BaseFacts, 10))
	}
	if err := s.warmQueries(); err != nil {
		s.close()
		return nil, err
	}
	return serveRead{s}, nil
}

func (s serveRead) measure(tr *tracer) *phase {
	ph := &phase{}
	parts := make([]*clientPhase, len(s.clients))
	statsBefore := s.srv.Stats()
	runtime.GC()
	memBefore := markMem()
	var wg sync.WaitGroup
	start := time.Now()
	for ci := range s.clients {
		parts[ci] = &clientPhase{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.readLoop(tr, ci, s.e.sz.Requests, nil, parts[ci])
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	memAfter := markMem()
	heap := liveHeapMB()
	runtime.KeepAlive(s.served)

	all := merge(ph, parts)
	done := len(all.pointUS) + len(all.scanUS)
	ph.e2e = []Metric{
		timing("query_p50_us", "us", all.pointUS),
		tailOf("query_p99_us", all.pointUS),
		timing("scan_p50_us", "us", all.scanUS),
		count("query_qps", "1/s", float64(done)/wall.Seconds()),
		count("live_heap_mb", "MB", heap),
	}
	ph.layer = append(serverCounters(statsBefore, s.srv.Stats()), runtimeMetrics(memBefore, memAfter, int64(done))...)
	return ph
}

// tailOf reports a series' 99th percentile, printed beside the median but
// not gated (see ungated in compare.go).
func tailOf(name string, s samples) Metric {
	return Metric{Name: name, Unit: "us", Value: quantile(sorted(s), 0.99), N: len(s)}
}

func (s serveRead) probe(tr *tracer, ph *phase) {
	pr := newProber(tr, ph)
	defer pr.done()
	pool := s.pools[0]
	pr.parse(querySources(pool))
	pr.snapshotQuery(s.alice.Workspace(), pool)
	pr.codec(head(s.alice.Workspace().Facts("perm"), probeInputs), "alice", "alice")
	pr.transport(s.alice, pool)
	pr.syncRequests(s.clients[0], 200)
	pr.overhead()
}

func querySources(pool []query) []string {
	out := make([]string, len(pool))
	for i, q := range pool {
		out[i] = q.src + "."
	}
	return out
}

// syncRequests times n sync requests on an otherwise idle session.
func (p *prober) syncRequests(c *server.Client, n int) {
	s := p.timed("server.sync", n, func(int) int {
		if err := c.Sync(); err != nil {
			p.failf("sync request: %v", err)
		}
		return 1
	})
	p.emit(timing("server.sync_p50_us", "us", s))
}

// overhead derives what the serving layers add to an in-process snapshot
// read: client-observed point-query median minus the snapshot query
// probe.
func (p *prober) overhead() {
	q, ok1 := p.ph.metric("query_p50_us")
	sq, ok2 := p.ph.metric("workspace.snapshot_query_us")
	if ok1 && ok2 {
		p.emit(count("server.overhead_us", "us", q.Value-sq.Value))
	}
}

// ---- serve.mixed ------------------------------------------------------------

type serveMixed struct{ *served }

func setupServeMixed(e *env) (instance, error) {
	s, err := setupServe(e, true)
	if err != nil {
		return nil, err
	}
	s.pools = [][]query{readMix(e.rng, poolSize, e.sz.BaseFacts, 0), nil}
	s.notes = statements("note", freshIDs(e.rng, e.sz.Warmup+e.sz.Writes))
	fail := func(err error) (instance, error) {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if err := s.warmQueries(); err != nil {
		return fail(err)
	}
	w := s.clients[1]
	for ; s.said < e.sz.Warmup; s.said++ {
		if err := w.Say("bob", s.notes[s.said]); err != nil {
			return fail(err)
		}
	}
	if err := w.Sync(); err != nil {
		return fail(err)
	}
	return serveMixed{s}, nil
}

// writeLoop is the writer session: one signed say per request, a sync
// request every SyncEvery says and once more at the end.
func (s serveMixed) writeLoop(tr *tracer, ph *clientPhase) {
	w := s.clients[1]
	sync := func(req int) {
		t0 := time.Now()
		err := w.Sync()
		d := time.Since(t0)
		ph.attempted++
		if err != nil {
			ph.fail("sync: %v", err)
		}
		ph.syncUS.addDur(d)
		if tr != nil {
			root := tr.record("request", -1, req, t0, d)
			tr.record("client.sync", root, req, t0, d)
		}
	}
	for i := 0; i < s.e.sz.Writes; i++ {
		req := 1<<24 | i
		t0 := time.Now()
		err := w.Say("bob", s.notes[s.said])
		d := time.Since(t0)
		ph.attempted++
		if err != nil {
			ph.fail("say %s: %v", s.notes[s.said], err)
		} else {
			s.said++
		}
		ph.writeUS.addDur(d)
		if tr != nil {
			root := tr.record("request", -1, req, t0, d)
			tr.record("client.say", root, req, t0, d)
		}
		if (i+1)%s.e.sz.SyncEvery == 0 {
			sync(2<<24 | i)
		}
	}
	sync(2<<24 | s.e.sz.Writes)
}

func (s serveMixed) measure(tr *tracer) *phase {
	ph := &phase{}
	reader, writer := &clientPhase{}, &clientPhase{}
	statsBefore := s.srv.Stats()
	runtime.GC()
	memBefore := markMem()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	start := time.Now()
	go func() {
		defer wg.Done()
		s.readLoop(tr, 0, -1, stop, reader)
	}()
	s.writeLoop(tr, writer)
	wall := time.Since(start)
	close(stop)
	wg.Wait()
	memAfter := markMem()
	heap := liveHeapMB()
	runtime.KeepAlive(s.served)

	all := merge(ph, []*clientPhase{reader, writer})
	ph.e2e = []Metric{
		timing("query_p50_us", "us", all.pointUS),
		tailOf("query_p99_us", all.pointUS),
		timing("write_p50_us", "us", all.writeUS),
		tailOf("write_p99_us", all.writeUS),
		count("query_qps", "1/s", float64(len(all.pointUS))/wall.Seconds()),
		count("live_heap_mb", "MB", heap),
	}
	ops := int64(len(all.pointUS) + len(all.writeUS) + len(all.syncUS))
	ph.layer = append(serverCounters(statsBefore, s.srv.Stats()), runtimeMetrics(memBefore, memAfter, ops)...)
	ph.layer = append(ph.layer, timing("server.sync_p50_us", "us", all.syncUS))

	// Oracle: every acknowledged say is in alice's says and reached bob,
	// before the close and after each re-open.
	want := []wantCount{
		{"alice", "says", s.said}, {"alice", "export", s.said},
		{"alice", "perm", s.e.sz.BaseFacts}, {"bob", "note", s.said},
	}
	ph.attempted += int64(len(want))
	checkCounts(ph, s.sys, want, "before close")
	s.recover(tr, ph, want)
	return ph
}

// wantCount is an oracle's expected tuple count of one predicate.
type wantCount struct {
	principal, pred string
	n               int
}

func checkCounts(ph *phase, sys *core.System, want []wantCount, when string) {
	for _, w := range want {
		p, ok := sys.Principal(w.principal)
		if !ok {
			ph.fail(1, "%s: no principal %s", when, w.principal)
			continue
		}
		if got := p.Count(w.pred); got != w.n {
			ph.fail(1, "%s: %s holds %d %s tuples, want %d", when, w.principal, got, w.pred, w.n)
		}
	}
}

// recover closes the served system and re-opens it from its directory
// Reopens times, checking the recovered counts against the pre-close
// ones. The closed system's principals stay queryable for the probes.
func (s *served) recover(tr *tracer, ph *phase, want []wantCount) {
	for _, c := range s.clients {
		c.Close()
	}
	s.clients = nil
	s.srv.Close()
	s.srv = nil
	err := s.sys.Close()
	s.sys = nil
	if err != nil {
		ph.attempted++
		ph.fail(1, "closing the durable system: %v", err)
	}

	var recoverMS, perTuple samples
	for i := 0; i < s.e.sz.Reopens; i++ {
		root := tr.begin("recover", -1, i)
		open := tr.begin("open", root, i)
		t0 := time.Now()
		sys, err := core.OpenSystem(s.dir, durableOptions)
		d := time.Since(t0)
		tr.finish(open)
		ph.attempted += int64(len(want))
		if err != nil {
			tr.finish(root)
			ph.fail(int64(len(want)), "re-opening %s: %v", s.dir, err)
			continue
		}
		verify := tr.begin("verify", root, i)
		checkCounts(ph, sys, want, "after re-open")
		tuples := 0
		for _, name := range sys.Principals() {
			p, _ := sys.Principal(name)
			tuples += p.Workspace().DB().TupleCount()
		}
		tr.finish(verify)
		tr.finish(root)
		recoverMS.add(ms(d))
		perTuple.add(us(d) / float64(tuples))
		if err := sys.Close(); err != nil {
			ph.fail(1, "closing the re-opened system: %v", err)
		}
	}
	ph.e2e = append(ph.e2e, timing("recover_ms", "ms", recoverMS))
	ph.layer = append(ph.layer, timing("store.replay_us_per_tuple", "us", perTuple))
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

func (s serveMixed) probe(tr *tracer, ph *phase) {
	pr := newProber(tr, ph)
	defer pr.done()
	said := s.notes[:s.said]
	pr.parse(said)
	pr.reify(said)
	pr.flush(core.SchemeRSA, said, 1, 400)
	pr.crypto(core.SchemeRSA, s.alice, said)
	pr.codec(s.alice.Workspace().Facts("export"), "alice", "bob")
	pr.snapshotQuery(s.alice.Workspace(), s.pools[0])
	pr.transport(s.alice, s.pools[0])
	pr.snapshotPublish(s.e.sz.BaseFacts, 300)
	pr.wal(s.e, head(said, 1000))
	pr.overhead()
}

// wal replays the writer loop in process on an in-memory and on a durable
// system. The difference of the per-write medians is what the store adds
// to a write; the directory's growth over the loop is what it writes.
func (p *prober) wal(e *env, notes []string) {
	loop := func(sys *core.System) (samples, error) {
		alice, _ := sys.Principal("alice")
		var s samples
		for i, n := range notes {
			t0 := time.Now()
			if err := alice.Say("bob", n); err != nil {
				return nil, err
			}
			if (i+1)%e.sz.SyncEvery == 0 {
				if err := sys.Sync(); err != nil {
					return nil, err
				}
			}
			s.addDur(time.Since(t0))
		}
		return s, nil
	}
	dir := newDataDir(e.cfg)
	defer os.RemoveAll(dir)
	id := p.tr.begin("store.wal", p.root, -1)
	defer p.tr.finish(id)

	mem, err := newServedSystem("", e.sz.BaseFacts)
	if err != nil {
		p.failf("wal replay: %v", err)
		return
	}
	memUS, err := loop(mem)
	mem.Close()
	if err != nil {
		p.failf("wal replay, in memory: %v", err)
		return
	}
	// Close after the base load so the directory's size before the loop
	// is on disk, then write the loop to the re-opened log.
	dur, err := newServedSystem(dir, e.sz.BaseFacts)
	if err == nil {
		err = dur.Close()
	}
	if err != nil {
		p.failf("wal replay: %v", err)
		return
	}
	before := dirBytes(dir)
	if dur, err = core.OpenSystem(dir, durableOptions); err != nil {
		p.failf("wal replay: re-open: %v", err)
		return
	}
	walUS, err := loop(dur)
	if cerr := dur.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		p.failf("wal replay, durable: %v", err)
		return
	}
	p.emit(Metric{Name: "store.wal_us_per_write", Unit: "us", Value: median(walUS) - median(memUS), N: len(walUS)})
	p.emit(count("store.wal_bytes_per_write", "B", float64(dirBytes(dir)-before)/float64(len(notes))))
}
