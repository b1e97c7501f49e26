package dist

import (
	"lbtrust/internal/obs"
)

// Metrics holds the distribution metrics that have no Stats twin:
// requeued tuples and Sync latency. A nil *Metrics disables them;
// instrumented sites pay one pointer load and a branch.
type Metrics struct {
	requeued    *obs.Counter
	syncSeconds *obs.Histogram
}

// newMetrics registers the dist metric families on r: the families above,
// plus reads of the runtime's and its nodes' Stats counters, which
// /metrics reports at scrape time. Nil r returns nil.
func newMetrics(r *obs.Registry, rt *Runtime) *Metrics {
	if r == nil {
		return nil
	}
	read := func(name, help string, load func() int64) { r.CounterFunc(name, help, rt, load) }
	read("lb_dist_syncs_total", "Sync calls on the distribution runtime", rt.syncs.Load)
	read("lb_dist_rounds_total", "delivery rounds that moved at least one tuple", rt.rounds.Load)
	read("lb_dist_send_failures_total", "envelope sends that returned a transport error", rt.failures.Load)
	read("lb_dist_delta_tuples_total", "fresh tuples accepted from workspace flush deltas", rt.delta.Load)
	read("lb_dist_scanned_tuples_total", "tuples examined by pump rounds (deltas plus rescans)", rt.scanned.Load)
	read("lb_dist_suppressed_tuples_total",
		"tuples skipped because the shipped set already delivered them", rt.suppress.Load)
	read("lb_dist_delivered_tuples_total", "tuples applied by receiving workspaces",
		rt.sumNodes("", func(n *Node) int64 { return n.nDeliv.Load() }))
	read("lb_dist_rejected_tuples_total", "tuples refused (constraint rollback, unroutable, or unplaced target)",
		rt.sumNodes("", func(n *Node) int64 { return n.nRejected.Load() }))
	return &Metrics{
		requeued:    r.Counter("lb_dist_requeued_tuples_total", "tuples requeued for the next Sync after a send failure"),
		syncSeconds: r.Histogram("lb_dist_sync_seconds", "Sync latency (all rounds until quiescence)"),
	}
}

// sumNodes returns a read of f summed over the runtime's nodes, or over
// those whose endpoint's transport is kind when kind is non-empty.
func (rt *Runtime) sumNodes(kind string, f func(*Node) int64) func() int64 {
	return func() int64 {
		var sum int64
		for _, n := range rt.nodesInOrder() {
			if kind == "" || transportKind(n.ep) == kind {
				sum += f(n)
			}
		}
		return sum
	}
}

// registerWire registers reads of the endpoint transfer counters of rt's
// nodes on transport kind. The children appear once a node on that
// transport exists; registering a kind again replaces its reads. Nil r
// is a no-op.
func registerWire(r *obs.Registry, rt *Runtime, kind string) {
	if r == nil {
		return
	}
	const (
		msgs  = "envelopes moved on the wire, by direction and transport"
		bytes = "encoded envelope bytes moved on the wire, by direction and transport"
	)
	for _, c := range []struct {
		name, help, dir string
		f               func(TransferStats) int64
	}{
		{"lb_dist_wire_messages_total", msgs, "sent", func(s TransferStats) int64 { return s.MessagesSent }},
		{"lb_dist_wire_messages_total", msgs, "received", func(s TransferStats) int64 { return s.MessagesReceived }},
		{"lb_dist_wire_bytes_total", bytes, "sent", func(s TransferStats) int64 { return s.BytesSent }},
		{"lb_dist_wire_bytes_total", bytes, "received", func(s TransferStats) int64 { return s.BytesReceived }},
	} {
		f := c.f
		r.CounterFunc(c.name, c.help, rt, rt.sumNodes(kind, func(n *Node) int64 { return f(n.ep.Stats()) }),
			"direction", c.dir, "transport", kind)
	}
}

// transportKind names an endpoint's transport for wire-metric labels.
// Endpoints advertise their kind through the optional TransportKind
// method; wrappers (FaultTransport) delegate to the wrapped endpoint so
// traffic attributes to the real transport.
func transportKind(ep Endpoint) string {
	if k, ok := ep.(interface{ TransportKind() string }); ok {
		return k.TransportKind()
	}
	return "unknown"
}

// SetObs attaches observability to the runtime: its counters register on
// o's registry, log lines go to a dist-scoped logger, and traced Syncs
// record spans on o's tracer. The fields are stored atomically because
// receive paths (TCP accept goroutines) read them without holding the
// runtime lock. A nil Obs detaches logging, tracing and the Metrics
// families; the reads of the Stats counters stay registered on the
// registry they were first given, as there is no unregistration.
func (rt *Runtime) SetObs(o *obs.Obs) {
	r := o.Reg()
	rt.obsMetrics.Store(newMetrics(r, rt))
	rt.mu.Lock()
	rt.reg = r
	for _, n := range rt.nodesInOrder() {
		registerWire(r, rt, transportKind(n.ep))
	}
	rt.mu.Unlock()
	rt.obsTracer.Store(o.Trace())
	if o == nil || o.Log == nil {
		rt.obsLog.Store(nil)
	} else {
		rt.obsLog.Store(o.Logger("dist"))
	}
}
