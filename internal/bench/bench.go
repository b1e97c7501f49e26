// Package bench contains the workload generators and measurement harness
// that regenerate the paper's evaluation (Figure 2) and the ablation
// experiments listed in DESIGN.md. The cmd/lbtrust-bench tool prints the
// same series the paper reports; bench_test.go wraps the same harness in
// testing.B benchmarks.
package bench

import (
	"fmt"
	"time"

	"lbtrust/internal/core"
	"lbtrust/internal/datalog"
	"lbtrust/internal/dist"
	"lbtrust/internal/sendlog"
	"lbtrust/internal/store"
	"lbtrust/internal/workspace"
)

// TransportKind selects the wire layer under a benchmark run.
type TransportKind string

// The built-in transports.
const (
	TransportMem TransportKind = "mem"
	TransportTCP TransportKind = "tcp"
)

// NewTransport constructs a fresh transport of the given kind.
func NewTransport(kind TransportKind) (dist.Transport, error) {
	switch kind {
	case TransportMem, "":
		return dist.NewMemNetwork(), nil
	case TransportTCP:
		return dist.NewTCPNetwork(), nil
	}
	return nil, fmt.Errorf("bench: unknown transport %q (want mem or tcp)", kind)
}

// Figure2Point is one x/y point of Figure 2: execution time for a run
// exchanging Messages authenticated messages between alice and bob, plus
// the wire cost the distribution runtime reported for the run.
type Figure2Point struct {
	Messages     int
	Duration     time.Duration
	WireMessages int64 // envelopes sent on the wire
	WireBytes    int64 // encoded envelope bytes sent
}

// Figure2Series is one curve of Figure 2 (one authentication scheme).
type Figure2Series struct {
	Scheme core.Scheme
	Points []Figure2Point
}

// Figure2Setup prepares the two-principal system of the paper's micro
// benchmark (Section 6) on the in-memory transport.
func Figure2Setup(scheme core.Scheme) (*core.System, *core.Principal, *core.Principal, error) {
	return Figure2SetupOn(TransportMem, scheme)
}

// Figure2SetupOn prepares the Figure 2 system over the given transport:
// alice and bob on separate nodes, keys established, the given scheme
// active on both, bob trusting alice's statements. Callers must Close the
// returned system.
func Figure2SetupOn(kind TransportKind, scheme core.Scheme) (*core.System, *core.Principal, *core.Principal, error) {
	t, err := NewTransport(kind)
	if err != nil {
		return nil, nil, nil, err
	}
	sys, err := core.NewSystemWith(t)
	if err != nil {
		return nil, nil, nil, err
	}
	alice, bob, err := figure2Principals(sys, scheme)
	if err != nil {
		sys.Close()
		return nil, nil, nil, err
	}
	return sys, alice, bob, nil
}

func figure2Principals(sys *core.System, scheme core.Scheme) (*core.Principal, *core.Principal, error) {
	nodeA, err := sys.AddNode("node-alice")
	if err != nil {
		return nil, nil, err
	}
	nodeB, err := sys.AddNode("node-bob")
	if err != nil {
		return nil, nil, err
	}
	alice, err := sys.AddPrincipalOn("alice", nodeA)
	if err != nil {
		return nil, nil, err
	}
	bob, err := sys.AddPrincipalOn("bob", nodeB)
	if err != nil {
		return nil, nil, err
	}
	switch scheme {
	case core.SchemeRSA:
		if err := sys.EstablishRSA("alice"); err != nil {
			return nil, nil, err
		}
		if err := sys.EstablishRSA("bob"); err != nil {
			return nil, nil, err
		}
	case core.SchemeHMAC:
		if err := sys.EstablishSharedSecret("alice", "bob"); err != nil {
			return nil, nil, err
		}
	}
	for _, p := range []*core.Principal{alice, bob} {
		if err := p.UseScheme(scheme); err != nil {
			return nil, nil, err
		}
	}
	if err := bob.TrustAll(); err != nil {
		return nil, nil, err
	}
	return alice, bob, nil
}

// Messages generates n distinct message facts, the paper's export/import
// workload.
func Messages(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("msg(%d).", i)
	}
	return out
}

// RunFigure2Point executes one run on the in-memory transport.
func RunFigure2Point(scheme core.Scheme, n int) (Figure2Point, error) {
	return RunFigure2PointOn(TransportMem, scheme, n)
}

// RunFigure2PointOn executes one run over the given transport: alice says
// n messages to bob, the runtime ships them, bob verifies and imports
// them. Each message incurs one signature generation at alice and one
// verification at bob, matching the paper's description. It returns the
// execution time and wire cost, and verifies that all messages arrived.
func RunFigure2PointOn(kind TransportKind, scheme core.Scheme, n int) (Figure2Point, error) {
	sys, alice, bob, err := Figure2SetupOn(kind, scheme)
	if err != nil {
		return Figure2Point{}, err
	}
	defer sys.Close()
	msgs := Messages(n)
	start := time.Now()
	if err := alice.SayAll("bob", msgs); err != nil {
		return Figure2Point{}, err
	}
	if err := sys.Sync(); err != nil {
		return Figure2Point{}, err
	}
	elapsed := time.Since(start)
	if got := bob.Count("msg"); got != n {
		return Figure2Point{}, fmt.Errorf("bench: bob imported %d of %d messages", got, n)
	}
	wire := sys.Stats().Totals()
	return Figure2Point{
		Messages:     n,
		Duration:     elapsed,
		WireMessages: wire.MessagesSent,
		WireBytes:    wire.BytesSent,
	}, nil
}

// RunFigure2 sweeps message counts for one scheme on the in-memory
// transport.
func RunFigure2(scheme core.Scheme, counts []int) (*Figure2Series, error) {
	return RunFigure2On(TransportMem, scheme, counts)
}

// RunFigure2On sweeps message counts for one scheme over the given
// transport.
func RunFigure2On(kind TransportKind, scheme core.Scheme, counts []int) (*Figure2Series, error) {
	s := &Figure2Series{Scheme: scheme}
	for _, n := range counts {
		p, err := RunFigure2PointOn(kind, scheme, n)
		if err != nil {
			return nil, fmt.Errorf("bench: scheme %s, %d messages: %w", scheme, n, err)
		}
		s.Points = append(s.Points, p)
	}
	return s, nil
}

// ---- ablation workloads -----------------------------------------------------

// ChainEdges generates a length-n chain graph for transitive closure.
func ChainEdges(n int) []datalog.Tuple {
	out := make([]datalog.Tuple, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, datalog.NewTuple(
			datalog.Sym(fmt.Sprintf("v%d", i)),
			datalog.Sym(fmt.Sprintf("v%d", i+1)),
		))
	}
	return out
}

// TCProgram is the transitive-closure workload used by the engine
// ablations.
const TCProgram = `
path(X,Y) <- edge(X,Y).
path(X,Z) <- path(X,Y), edge(Y,Z).
`

// RunTC evaluates transitive closure over a chain of n edges (ablation
// A1). It returns the evaluation time and the number of derived paths.
func RunTC(n int) (time.Duration, int, error) {
	prog := datalog.MustParseProgram(TCProgram)
	db := datalog.NewDatabase()
	edge := db.Rel("edge", 2)
	for _, t := range ChainEdges(n) {
		edge.Insert(t)
	}
	ev := datalog.NewEvaluator(db, datalog.NewBuiltinSet())
	if err := ev.SetRules(prog.Rules); err != nil {
		return 0, 0, err
	}
	start := time.Now()
	if err := ev.Run(); err != nil {
		return 0, 0, err
	}
	elapsed := time.Since(start)
	rel, _ := db.Get("path")
	return elapsed, rel.Len(), nil
}

// RunIncremental measures inserting extra edges one at a time into an
// evaluated chain, either with semi-naive deltas or by re-running full
// evaluation after each insert (ablation A2).
func RunIncremental(base, inserts int, incremental bool) (time.Duration, error) {
	prog := datalog.MustParseProgram(TCProgram)
	db := datalog.NewDatabase()
	edge := db.Rel("edge", 2)
	for _, t := range ChainEdges(base) {
		edge.Insert(t)
	}
	ev := datalog.NewEvaluator(db, datalog.NewBuiltinSet())
	if err := ev.SetRules(prog.Rules); err != nil {
		return 0, err
	}
	if err := ev.Run(); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < inserts; i++ {
		t := datalog.NewTuple(
			datalog.Sym(fmt.Sprintf("w%d", i)),
			datalog.Sym(fmt.Sprintf("v%d", i%base)),
		)
		edge.Insert(t)
		if incremental {
			if err := ev.RunDelta(map[string][]datalog.Tuple{"edge": {t}}); err != nil {
				return 0, err
			}
		} else {
			if err := ev.Run(); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(start), nil
}

// RunMetaConstraintLoad measures adding n rules to a workspace with or
// without the Section 3.3 owner/access meta-constraint installed
// (ablation A3).
func RunMetaConstraintLoad(n int, withConstraint bool) (time.Duration, error) {
	w := workspace.New("alice")
	if withConstraint {
		if err := w.LoadProgram(`
			mcr: owner([| A <- P(T2*), A*. |], U) -> access(U,P,read).
		`); err != nil {
			return 0, err
		}
		if err := w.Update(func(tx *workspace.Tx) error {
			for i := 0; i < n; i++ {
				if err := tx.Assert(fmt.Sprintf("access(alice, src%d, read)", i)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	err := w.Update(func(tx *workspace.Tx) error {
		for i := 0; i < n; i++ {
			if err := tx.AddRuleSrc(fmt.Sprintf("out%d(X) <- src%d(X)", i, i)); err != nil {
				return err
			}
		}
		return nil
	})
	return time.Since(start), err
}

// RunGoalDirected measures answering path(v0, X) on a chain, either with
// the magic-sets rewrite (goal-directed, ablation A5 / paper §7) or by
// full bottom-up evaluation of the all-pairs closure.
func RunGoalDirected(n int, magic bool) (time.Duration, int, error) {
	prog := datalog.MustParseProgram(TCProgram)
	db := datalog.NewDatabase()
	edge := db.Rel("edge", 2)
	for _, t := range ChainEdges(n) {
		edge.Insert(t)
	}
	query := &datalog.Atom{Pred: "path", Args: []datalog.Term{
		datalog.Const{Val: datalog.Sym("v0")}, datalog.Var("X"),
	}}
	start := time.Now()
	var answers []datalog.Tuple
	var err error
	if magic {
		answers, err = datalog.QueryWithMagic(db, prog.Rules, query, datalog.NewBuiltinSet())
	} else {
		ev := datalog.NewEvaluator(db, datalog.NewBuiltinSet())
		if err = ev.SetRules(prog.Rules); err == nil {
			if err = ev.Run(); err == nil {
				answers, err = ev.Query(query)
			}
		}
	}
	if err != nil {
		return 0, 0, err
	}
	return time.Since(start), len(answers), nil
}

// RunSeNDlogReachability builds a ring of n nodes and runs the
// authenticated reachability protocol (ablation A6 / Section 5.2 scaling).
func RunSeNDlogReachability(n int, scheme core.Scheme) (time.Duration, error) {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
	}
	nw, err := sendlog.NewNetwork(names, scheme)
	if err != nil {
		return 0, err
	}
	for i := range names {
		if err := nw.AddLink(names[i], names[(i+1)%n]); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	if err := nw.RunReachability(); err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	ok, err := nw.Reachable(names[0], names[n/2])
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("bench: ring reachability incomplete")
	}
	return elapsed, nil
}

// ---- incremental sync (delta-driven pump) -----------------------------------

// pathVectorProgram is the many-round incremental-sync workload: route
// announcements box[Next](Origin,M) hop down a chain of principals, each
// intermediate forwarding arrivals to its successor, so one Sync needs
// one delivery round per hop.
const pathVectorProgram = `
b0: box[U1](U2,M) -> prin(U1), prin(U2).
i0: inbox[U1](U2,M) -> prin(U1), prin(U2).
`

// SyncPoint is the measured cost of one Sync of the incremental-sync
// workload.
type SyncPoint struct {
	Fresh        int           // tuples newly asserted before this Sync
	Delivered    int64         // tuples applied at receivers during this Sync
	Scanned      int64         // tuples the pump examined (the O(fresh) metric)
	Duration     time.Duration // wall time of assert+Sync
	WireMessages int64         // envelopes sent during this Sync
	WireBytes    int64         // encoded envelope bytes sent during this Sync
}

// IncrementalSyncResult reports one RunIncrementalSync execution: the
// bulk setup Sync and the measured incremental Sync that follows it.
type IncrementalSyncResult struct {
	Transport  TransportKind
	Principals int
	Base       int
	Fresh      int
	Setup      SyncPoint
	Incr       SyncPoint
}

// IncrementalSync is a reusable chain workload for measuring delta-driven
// Sync: principals pv0..pv(n-1) on one node each, every intermediate
// forwarding inbox arrivals to its successor. Each Sync call asserts
// fresh announcements at the head and pumps them through the chain.
type IncrementalSync struct {
	tr    dist.Transport
	rt    *dist.Runtime
	st    *store.Store // non-nil when a write-ahead log is attached
	names []string
	chain []*workspace.Workspace
	seq   int
	total int
	last  dist.Stats
}

// NewIncrementalSync builds the chain and ships base announcements
// through it (the setup Sync whose cost SyncPoint callers can discard).
func NewIncrementalSync(kind TransportKind, principals, base int) (*IncrementalSync, *SyncPoint, error) {
	return newIncrementalSync(kind, principals, base, nil)
}

// newIncrementalSync optionally attaches a write-ahead log before any
// data loads, so the log sees every flush (see NewIncrementalSyncWAL).
func newIncrementalSync(kind TransportKind, principals, base int, st *store.Store) (*IncrementalSync, *SyncPoint, error) {
	if principals < 2 {
		return nil, nil, fmt.Errorf("bench: incremental sync needs at least 2 principals, got %d", principals)
	}
	tr, err := NewTransport(kind)
	if err != nil {
		return nil, nil, err
	}
	rt := dist.NewRuntime()
	rt.SetDeliveryMap("box", "inbox")
	s := &IncrementalSync{tr: tr, rt: rt}
	for i := 0; i < principals; i++ {
		s.names = append(s.names, fmt.Sprintf("pv%d", i))
	}
	for i, name := range s.names {
		ws := workspace.New(name)
		s.chainAdd(ws, name, st, i == 0)
		if err := ws.LoadProgram(pathVectorProgram); err != nil {
			tr.Close()
			return nil, nil, err
		}
		if err := ws.Update(func(tx *workspace.Tx) error {
			for _, n := range s.names {
				if err := tx.Assert("prin(" + n + ")"); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			tr.Close()
			return nil, nil, err
		}
		if i > 0 && i+1 < principals {
			if err := ws.LoadProgram(fmt.Sprintf(`fwd: box[%s](me, M) <- inbox[me](_, M).`, s.names[i+1])); err != nil {
				tr.Close()
				return nil, nil, err
			}
		}
		ep, err := tr.Endpoint("nd" + name)
		if err != nil {
			tr.Close()
			return nil, nil, err
		}
		rt.AddNode("nd"+name, ep).AddPrincipal(ws)
	}
	s.last = rt.Stats()
	setup, err := s.Sync(base)
	if err != nil {
		tr.Close()
		return nil, nil, err
	}
	return s, &setup, nil
}

// Sync asserts fresh announcements at the head of the chain, pumps them
// to quiescence, verifies they all reached the tail, and returns the
// cost of this Sync alone.
func (s *IncrementalSync) Sync(fresh int) (SyncPoint, error) {
	head, next := s.chain[0], s.names[1]
	start := time.Now()
	if fresh > 0 {
		if err := head.Update(func(tx *workspace.Tx) error {
			for i := 0; i < fresh; i++ {
				s.seq++
				if err := tx.Assert(fmt.Sprintf("box[%s](%s, m%d)", next, s.names[0], s.seq)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return SyncPoint{}, err
		}
		s.total += fresh
	}
	if err := s.rt.Sync(len(s.chain) + 2); err != nil {
		return SyncPoint{}, err
	}
	elapsed := time.Since(start)
	if got := s.chain[len(s.chain)-1].Count("inbox"); got != s.total {
		return SyncPoint{}, fmt.Errorf("bench: chain tail holds %d of %d announcements", got, s.total)
	}
	stats := s.rt.Stats()
	wire, prevWire := stats.Totals(), s.last.Totals()
	p := SyncPoint{
		Fresh:        fresh,
		Delivered:    stats.TuplesDelivered() - s.last.TuplesDelivered(),
		Scanned:      stats.ScannedTuples - s.last.ScannedTuples,
		Duration:     elapsed,
		WireMessages: wire.MessagesSent - prevWire.MessagesSent,
		WireBytes:    wire.BytesSent - prevWire.BytesSent,
	}
	s.last = stats
	return p, nil
}

// chainAdd appends a workspace to the chain, wiring its flush journal
// (and, once, the runtime journal) when a write-ahead log is attached.
func (s *IncrementalSync) chainAdd(ws *workspace.Workspace, name string, st *store.Store, first bool) {
	s.chain = append(s.chain, ws)
	if st == nil {
		return
	}
	if first {
		s.st = st
		s.rt.SetJournal(walRuntimeJournal(st))
	}
	ws.SetJournal(walFlushJournal(st, name))
}

// Close releases the workload's transport (and write-ahead log, when
// attached).
func (s *IncrementalSync) Close() error {
	err := s.tr.Close()
	if s.st != nil {
		if serr := s.st.Close(); err == nil {
			err = serr
		}
	}
	return err
}

// RunIncrementalSync ships base announcements down a chain of the given
// length, then measures a Sync carrying only fresh new announcements.
// With the delta-driven pump the incremental Sync's Scanned count tracks
// fresh (times the hop count), not base.
func RunIncrementalSync(kind TransportKind, principals, base, fresh int) (IncrementalSyncResult, error) {
	s, setup, err := NewIncrementalSync(kind, principals, base)
	if err != nil {
		return IncrementalSyncResult{}, err
	}
	defer s.Close()
	incr, err := s.Sync(fresh)
	if err != nil {
		return IncrementalSyncResult{}, err
	}
	return IncrementalSyncResult{
		Transport:  kind,
		Principals: principals,
		Base:       base,
		Fresh:      fresh,
		Setup:      *setup,
		Incr:       incr,
	}, nil
}

// ---- incremental constraint checking ----------------------------------------

// constraintCheckProgram is the flush-time check workload: a schema
// constraint (lowered to aux + fail rules) plus a user fail() rule, both
// over the msg relation that grows to the base size. Every flush must
// re-establish both checks; the delta-seeded checker touches only the
// fresh tuple.
const constraintCheckProgram = `
reg: msg(M,U) -> registered(U).
nb: fail(U) <- msg(_,U), banned(U).
`

// IncrementalConstraints is a reusable single-workspace workload for
// measuring flush-time constraint checking against a large base relation.
type IncrementalConstraints struct {
	ws  *workspace.Workspace
	seq int
}

// NewIncrementalConstraints builds the workspace and loads base msg facts
// in one setup transaction (whose cost callers discard). The returned
// duration is the setup time.
func NewIncrementalConstraints(base int) (*IncrementalConstraints, time.Duration, error) {
	ws := workspace.New("alice")
	if err := ws.LoadProgram(constraintCheckProgram); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := ws.Update(func(tx *workspace.Tx) error {
		if err := tx.Assert("registered(u0)"); err != nil {
			return err
		}
		for i := 0; i < base; i++ {
			if err := tx.Assert(fmt.Sprintf("msg(%d, u0)", i)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, 0, err
	}
	return &IncrementalConstraints{ws: ws, seq: base}, time.Since(start), nil
}

// Flush asserts one fresh msg fact — one transaction, one fixpoint, one
// constraint check — and returns its wall time.
func (c *IncrementalConstraints) Flush() (time.Duration, error) {
	c.seq++
	fact := fmt.Sprintf("msg(%d, u0)", c.seq)
	start := time.Now()
	err := c.ws.Update(func(tx *workspace.Tx) error { return tx.Assert(fact) })
	return time.Since(start), err
}

// Workspace exposes the underlying workspace (for CheckStats assertions).
func (c *IncrementalConstraints) Workspace() *workspace.Workspace { return c.ws }

// IncrementalConstraintsResult reports one RunIncrementalConstraints
// execution.
type IncrementalConstraintsResult struct {
	Base     int
	Flushes  int
	Setup    time.Duration
	Total    time.Duration // sum over the measured flushes
	PerFlush time.Duration // Total / Flushes
	Checks   workspace.CheckStats
}

// RunIncrementalConstraints loads base facts, then measures the given
// number of single-fact flushes. With the delta-seeded checker PerFlush
// is flat in base.
func RunIncrementalConstraints(base, flushes int) (IncrementalConstraintsResult, error) {
	c, setup, err := NewIncrementalConstraints(base)
	if err != nil {
		return IncrementalConstraintsResult{}, err
	}
	before := c.ws.CheckStats()
	var total time.Duration
	for i := 0; i < flushes; i++ {
		d, err := c.Flush()
		if err != nil {
			return IncrementalConstraintsResult{}, err
		}
		total += d
	}
	after := c.ws.CheckStats()
	r := IncrementalConstraintsResult{
		Base:    base,
		Flushes: flushes,
		Setup:   setup,
		Total:   total,
		Checks: workspace.CheckStats{
			Incremental: after.Incremental - before.Incremental,
			Full:        after.Full - before.Full,
			Skipped:     after.Skipped - before.Skipped,
		},
	}
	if flushes > 0 {
		r.PerFlush = total / time.Duration(flushes)
	}
	return r, nil
}
