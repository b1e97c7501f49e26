// Package dist is the distribution runtime of Sections 3.4 and 3.5 of the
// paper: partitioned predicates place their subsets on principals, and
// shipping a tuple between principals is nothing more than moving one row
// of a partitioned relation to the node that hosts the target partition.
//
// A Runtime owns named Nodes, each bound to a Transport endpoint, and
// places principal workspaces on nodes. Sync pumps rounds of deliveries
// incrementally: workspace flushes hand the runtime the per-predicate
// delta of each change (see workspace.FlushDelta), pending fresh tuples
// accumulate per sender, and a pump round routes exactly those tuples to
// the principal named by each tuple's partition column, applying them to
// the receiving workspace under the mapped destination predicate (export
// tuples arrive as import tuples under the default delivery map). A
// round's cost is therefore proportional to the number of fresh tuples,
// not to the total size of the partitioned relations; only events that
// invalidate incremental state (initial placement, a retraction that
// rebuilt derived facts, ResetDeliveries) fall back to a full rescan of
// one sender's partitioned predicates, with the bounded shipped-tuple
// set suppressing re-shipment of everything already delivered.
//
// Receivers that reject a delivery (a constraint violation — a bad
// signature, an unauthorized write, an exceeded delegation bound) roll
// the tuple back; the rejection is recorded on the receiving node rather
// than failing the Sync, because a peer refusing a statement is protocol
// behavior, not an error of the runtime. Rounds repeat until no tuple
// moves (multi-hop protocols need one round per hop) or the round cap is
// hit.
//
// The wire layer is pluggable (see Transport): MemNetwork runs the
// protocol in-process, TCPNetwork runs the identical protocol over
// sockets, and both account traffic in the same canonical encoding.
package dist

import (
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lbtrust/internal/datalog"
	"lbtrust/internal/obs"
	"lbtrust/internal/workspace"
)

// Runtime places principal workspaces on nodes and pumps partitioned
// tuples between them.
type Runtime struct {
	mu    sync.Mutex
	nodes map[string]*Node
	// nodeList holds the nodes in creation order. It is replaced, never
	// modified, so /metrics reads walk it without the runtime lock.
	nodeList  atomic.Pointer[[]*Node]
	placement map[string]*Node                  // principal -> hosting node
	wss       map[string]*workspace.Workspace   // principal -> workspace
	hooked    map[*workspace.Workspace]struct{} // flush hook installed
	delivery  map[string]string                 // source pred -> destination pred
	shipped   *shippedSet                       // bounded shipped-tuple suppression
	// parked records, per unplaced target principal, the senders that hold
	// deliveries for it. No tuples are buffered: placing the target
	// rescans those senders, so only what a sender still asserts at
	// placement time ships — a statement retracted while the target was
	// unplaced is never delivered.
	parked map[string]map[string]struct{}
	// parkedKey maps the ship key of a tuple refused for an unplaced
	// target to that target, so rescans while the target is still absent
	// do not re-reject the tuple, and placement can clear the keys. It is
	// bounded by parkedCap; past the cap, refusals are recorded once per
	// sender/target pair instead of once per tuple.
	parkedKey map[string]string
	parkedCap int
	// journal, when set, observes placements, delivery-map changes,
	// shipped records, and delivery resets for the durability layer (see
	// persist.go).
	journal func(Event)

	// Stats counters, atomic so /metrics reads them without the lock a
	// Sync holds.
	syncs    atomic.Int64
	rounds   atomic.Int64
	failures atomic.Int64 // envelope sends that returned an error
	delta    atomic.Int64 // fresh tuples accepted from flush deltas
	scanned  atomic.Int64 // tuples examined by pump rounds (deltas + rescans)
	suppress atomic.Int64 // tuples skipped by the shipped set

	// activeTrace is the trace ID of the in-flight traced Sync, stamped
	// onto every envelope pump builds (guarded by rt.mu). Concurrent
	// traced Syncs interleave last-writer-wins; Sync is effectively
	// serialized by its callers.
	activeTrace string

	// Observability attachments (see SetObs in metrics.go). Stored
	// atomically because receive paths read them off the runtime lock;
	// reg is where SetObs registered the counter reads (guarded by mu).
	reg        *obs.Registry
	obsMetrics atomic.Pointer[Metrics]
	obsLog     atomic.Pointer[slog.Logger]
	obsTracer  atomic.Pointer[obs.Tracer]

	dirtyMu sync.Mutex
	dirty   map[string]struct{}                   // principals with unpumped changes
	pending map[string]map[string][]datalog.Tuple // principal -> source pred -> fresh tuples
	rescan  map[string]struct{}                   // principals needing a full rescan
}

// NewRuntime creates an empty runtime with no delivery mappings.
func NewRuntime() *Runtime {
	rt := &Runtime{
		nodes:     map[string]*Node{},
		placement: map[string]*Node{},
		wss:       map[string]*workspace.Workspace{},
		hooked:    map[*workspace.Workspace]struct{}{},
		delivery:  map[string]string{},
		shipped:   newShippedSet(DefaultShippedCap),
		parked:    map[string]map[string]struct{}{},
		parkedKey: map[string]string{},
		parkedCap: DefaultParkedCap,
		dirty:     map[string]struct{}{},
		pending:   map[string]map[string][]datalog.Tuple{},
		rescan:    map[string]struct{}{},
	}
	rt.nodeList.Store(new([]*Node))
	return rt
}

// nodesInOrder returns the nodes in creation order (callers must not
// modify the slice).
func (rt *Runtime) nodesInOrder() []*Node { return *rt.nodeList.Load() }

// DefaultParkedCap bounds the per-tuple refusal-dedup keys kept for
// not-yet-placed target principals. Beyond it, refusals are recorded
// once per sender/target pair instead of once per tuple; deliveries are
// unaffected either way, since placement rescans the waiting senders.
const DefaultParkedCap = 1 << 16

// SetShippedCap bounds the shipped-tuple suppression set (default
// DefaultShippedCap; non-positive values reset to the default). Past the
// cap, records from the oldest Sync generations are evicted; an evicted
// tuple costs at most a duplicate (idempotently applied) shipment on a
// later rescan, never a lost delivery.
func (rt *Runtime) SetShippedCap(n int) {
	if n <= 0 {
		n = DefaultShippedCap
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.shipped.cap = n
	if rt.shipped.len() > n {
		rt.shipped.evict()
	}
}

// SetParkedCap bounds the parked refusal-dedup keys (default
// DefaultParkedCap; non-positive values reset to the default). Beyond
// the cap, refusals for unplaced targets deduplicate per sender/target
// pair instead of per tuple; no delivery is affected.
func (rt *Runtime) SetParkedCap(n int) {
	if n <= 0 {
		n = DefaultParkedCap
	}
	rt.mu.Lock()
	rt.parkedCap = n
	rt.mu.Unlock()
}

// parkedLen counts parked tuples. Caller holds rt.mu.
func (rt *Runtime) parkedLen() int { return len(rt.parkedKey) }

// AddNode registers a node bound to a transport endpoint and installs the
// runtime as the endpoint's receiver. Re-adding a name returns the
// existing node.
func (rt *Runtime) AddNode(name string, ep Endpoint) *Node {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if n, ok := rt.nodes[name]; ok {
		return n
	}
	n := &Node{rt: rt, name: name, ep: ep}
	rt.nodes[name] = n
	nodes := rt.nodesInOrder()
	nodes = append(nodes[:len(nodes):len(nodes)], n)
	rt.nodeList.Store(&nodes)
	registerWire(rt.reg, rt, transportKind(ep))
	ep.SetReceiver(func(env *Envelope) error { return rt.deliver(n, env) })
	return n
}

// Node returns a node by name.
func (rt *Runtime) Node(name string) (*Node, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	n, ok := rt.nodes[name]
	return n, ok
}

// Nodes returns node names in creation order.
func (rt *Runtime) Nodes() []string {
	var names []string
	for _, n := range rt.nodesInOrder() {
		names = append(names, n.name)
	}
	return names
}

// SetDeliveryMap routes tuples of a partitioned source predicate into a
// destination predicate at the receiver. The paper's protocol maps export
// to import: outbound derivation stays acyclic with inbound consumption.
// Several mappings may be installed; each is pumped independently.
// Installing a new mapping — or remapping a source to a different
// destination — after data exists triggers a rescan of every placed
// principal: earlier flush deltas did not retain a newly mapped
// predicate, and ship keys include the destination, so a remap
// re-delivers existing tuples under the new destination.
func (rt *Runtime) SetDeliveryMap(src, dst string) {
	rt.mu.Lock()
	old, known := rt.delivery[src]
	rt.delivery[src] = dst
	var placed []string
	if !known || old != dst {
		for p := range rt.placement {
			placed = append(placed, p)
		}
	}
	rt.mu.Unlock()
	for _, p := range placed {
		rt.markRescan(p)
	}
	rt.emit(Event{Kind: EventMap, Src: src, Dst: dst})
}

// Placement returns the node hosting a principal.
func (rt *Runtime) Placement(principal string) (*Node, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	n, ok := rt.placement[principal]
	return n, ok
}

// place records that a workspace lives on a node (moving it if it was
// placed elsewhere), hooks workspace flushes so their deltas accumulate
// on the runtime, requeues deliveries that were parked waiting for this
// principal, and schedules an initial rescan of the workspace.
func (rt *Runtime) place(ws *workspace.Workspace, n *Node) {
	name := string(ws.Principal())
	rt.mu.Lock()
	rt.placement[name] = n
	rt.wss[name] = ws
	_, hooked := rt.hooked[ws]
	if !hooked {
		rt.hooked[ws] = struct{}{}
	}
	// Deliveries addressed to this principal before it was placed were
	// refused, not marked shipped: rescan their senders so everything they
	// still assert for this principal ships now. Rescanning (rather than
	// replaying buffered tuples) means a statement retracted while the
	// target was unplaced is never delivered.
	waiting := rt.parked[name]
	delete(rt.parked, name)
	for key, target := range rt.parkedKey {
		if target == name {
			delete(rt.parkedKey, key)
		}
	}
	rt.mu.Unlock()
	if !hooked {
		ws.AddOnFlush(func(d workspace.FlushDelta) { rt.noteFlush(name, d) })
	}
	rt.dirtyMu.Lock()
	for sender := range waiting {
		rt.rescan[sender] = struct{}{}
		rt.dirty[sender] = struct{}{}
	}
	rt.rescan[name] = struct{}{}
	rt.dirty[name] = struct{}{}
	rt.dirtyMu.Unlock()
	rt.emit(Event{Kind: EventPlace, Principal: name, Node: n.name})
}

// enqueueLocked appends one fresh tuple to a sender's pending set and
// marks the sender dirty. Caller holds dirtyMu.
func (rt *Runtime) enqueueLocked(sender, pred string, tuple datalog.Tuple) {
	m := rt.pending[sender]
	if m == nil {
		m = map[string][]datalog.Tuple{}
		rt.pending[sender] = m
	}
	m[pred] = append(m[pred], tuple)
	rt.dirty[sender] = struct{}{}
}

// noteFlush receives one workspace flush delta: fresh tuples of mapped
// source predicates accumulate as pending work; a rebuild (retraction)
// invalidates incremental state and schedules a rescan instead, as does
// a mapped predicate becoming partitioned (its pre-declaration facts
// never appeared in a delta as shippable).
func (rt *Runtime) noteFlush(principal string, d workspace.FlushDelta) {
	if d.Rebuilt {
		rt.markRescan(principal)
		return
	}
	rt.mu.Lock()
	rescan := false
	for _, pred := range d.NewlyPartitioned {
		if _, mapped := rt.delivery[pred]; mapped {
			rescan = true
			break
		}
	}
	var fresh map[string][]datalog.Tuple
	accepted := int64(0)
	if !rescan {
		for src := range rt.delivery {
			if tuples := d.Changed[src]; len(tuples) > 0 {
				if fresh == nil {
					fresh = map[string][]datalog.Tuple{}
				}
				fresh[src] = tuples
				accepted += int64(len(tuples))
			}
		}
	}
	rt.mu.Unlock()
	rt.delta.Add(accepted)
	if rescan {
		rt.markRescan(principal)
		return
	}
	if fresh == nil {
		return // nothing outbound changed; the principal stays clean
	}
	rt.dirtyMu.Lock()
	for pred, tuples := range fresh {
		for _, t := range tuples {
			rt.enqueueLocked(principal, pred, t)
		}
	}
	rt.dirtyMu.Unlock()
}

// markRescan schedules a full partitioned-predicate scan of a principal
// on the next pump (superseding any pending delta, which the scan
// covers).
func (rt *Runtime) markRescan(principal string) {
	rt.dirtyMu.Lock()
	rt.rescan[principal] = struct{}{}
	delete(rt.pending, principal)
	rt.dirty[principal] = struct{}{}
	rt.dirtyMu.Unlock()
}

// takeWork snapshots and clears the dirty set with its pending deltas and
// rescan flags. Dirty principals are sorted for determinism.
func (rt *Runtime) takeWork() ([]string, map[string]map[string][]datalog.Tuple, map[string]struct{}) {
	rt.dirtyMu.Lock()
	out := make([]string, 0, len(rt.dirty))
	for p := range rt.dirty {
		out = append(out, p)
	}
	pending, rescan := rt.pending, rt.rescan
	rt.dirty = map[string]struct{}{}
	rt.pending = map[string]map[string][]datalog.Tuple{}
	rt.rescan = map[string]struct{}{}
	rt.dirtyMu.Unlock()
	sort.Strings(out)
	return out, pending, rescan
}

// Sync pumps delivery rounds until no tuple moves. It returns an error if
// tuples are still moving after maxRounds delivery rounds (a hint of a
// non-terminating protocol) or on a transport failure. A protocol that
// quiesces in exactly maxRounds moving rounds succeeds: the cap counts
// rounds that moved tuples, not the final confirming round. On a
// transport failure, envelopes sent before the failing one stay
// delivered (the round is counted, Stats().SendFailures records the
// failure) and the unsent tuples are requeued for the next Sync.
func (rt *Runtime) Sync(maxRounds int) error {
	return rt.SyncTraced(maxRounds, "")
}

// SyncTraced is Sync carrying a request trace: the trace ID is stamped
// onto every envelope this sync ships (traveling as the optional trace=
// wire header field, see codec.go), a span covering the whole sync is
// recorded on the runtime's tracer, and each receiving node records its
// own delivery span and log line under the same ID — so a trace minted on
// one node is observable on its peers. An empty trace behaves exactly
// like Sync.
func (rt *Runtime) SyncTraced(maxRounds int, trace obs.TraceID) error {
	m := rt.obsMetrics.Load()
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	span := rt.obsTracer.Load().StartSpan(trace, "", "dist.sync", "")
	rt.syncs.Add(1)
	rt.mu.Lock()
	rt.shipped.bump()
	rt.activeTrace = string(trace)
	rt.mu.Unlock()
	err := func() error {
		for moving := 0; ; {
			moved, perr := rt.pump()
			if perr != nil {
				return perr
			}
			if !moved {
				return nil
			}
			moving++
			if moving > maxRounds {
				return fmt.Errorf("dist: sync did not quiesce within %d rounds", maxRounds)
			}
		}
	}()
	rt.mu.Lock()
	rt.activeTrace = ""
	rt.mu.Unlock()
	span.End()
	if m != nil {
		m.syncSeconds.Observe(time.Since(start))
	}
	return err
}

// routeKey identifies one delivery batch. The source predicate is part
// of the key (even though the envelope only carries the destination
// predicate) so that a failed send can requeue each tuple under the
// predicate it actually came from when several delivery mappings share a
// destination.
type routeKey struct {
	sender, target, src, dst string
}

// shipKey identifies one outbound tuple for suppression and parking. The
// destination predicate is part of the key so that remapping a source
// predicate to a new destination re-ships existing tuples there. It
// takes the tuple's canonical key (not the tuple) so pump can encode
// each tuple exactly once.
func shipKey(sender, src, dst, tupleKey string) string {
	return sender + "\x00" + src + "\x00" + dst + "\x00" + tupleKey
}

// keyedTuple pairs a tuple with its canonical key, computed once per
// pump examination.
type keyedTuple struct {
	key   string
	tuple datalog.Tuple
}

// pump runs one delivery round: take the accumulated fresh tuples of
// dirty senders (or rescan senders whose incremental state was
// invalidated), route them, ship them. It reports whether anything
// moved. Cost is O(fresh tuples), not O(total facts).
func (rt *Runtime) pump() (bool, error) {
	dirty, pending, rescan := rt.takeWork()
	if len(dirty) == 0 {
		return false, nil
	}

	// Collect outbound envelopes under the runtime lock. Workspace locks
	// nest inside rt.mu here; the delivery path takes them separately.
	// journalShips accumulates the shipped records this round adds, for
	// the durability journal (emitted once per round, outside the lock).
	var journalShips []ShipState
	// scanned and suppressed accumulate per tuple here and reach the
	// shared counters once per round.
	var scanned, suppressed int64
	rt.mu.Lock()
	trace := rt.activeTrace
	srcPreds := make([]string, 0, len(rt.delivery))
	for p := range rt.delivery {
		srcPreds = append(srcPreds, p)
	}
	sort.Strings(srcPreds)

	var order []routeKey
	batches := map[routeKey]*Envelope{}
	srcNodes := map[routeKey]*Node{}
	keys := map[routeKey][]string{}
	queued := map[string]struct{}{} // keys batched in this round
	for _, sender := range dirty {
		ws := rt.wss[sender]
		srcNode := rt.placement[sender]
		if ws == nil || srcNode == nil {
			continue
		}
		partitioned := map[string]bool{}
		for _, p := range ws.PartitionedPredicates() {
			partitioned[p] = true
		}
		_, full := rescan[sender]
		for _, srcPred := range srcPreds {
			if !partitioned[srcPred] {
				continue
			}
			dstPred := rt.delivery[srcPred]
			var raw []datalog.Tuple
			if full {
				raw = ws.Facts(srcPred)
			} else {
				raw = pending[sender][srcPred]
			}
			tuples := make([]keyedTuple, len(raw))
			for i, t := range raw {
				tuples[i] = keyedTuple{key: t.Key(), tuple: t}
			}
			if !full {
				// Facts scans come out sorted; sort deltas the same way so
				// envelope contents are deterministic either way.
				sort.Slice(tuples, func(i, j int) bool { return tuples[i].key < tuples[j].key })
			}
			for _, kt := range tuples {
				tuple := kt.tuple
				scanned++
				key := shipKey(sender, srcPred, dstPred, kt.key)
				if _, dup := queued[key]; dup {
					continue
				}
				if _, waiting := rt.parkedKey[key]; waiting {
					// Already parked for an unplaced target; placement will
					// requeue it.
					continue
				}
				if rt.shipped.seen(key) {
					suppressed++
					continue
				}
				target, ok := tuple.At(0).(datalog.Sym)
				if !ok {
					// Unroutable: never retryable, suppress it for good.
					rt.shipped.add(key, sender, "")
					journalShips = append(journalShips, ShipState{Key: key, Sender: sender, Gen: rt.shipped.gen})
					srcNode.reject(Rejection{Node: srcNode.name, Sender: sender, Pred: srcPred, Tuple: tuple, Trace: trace,
						Err: fmt.Errorf("dist: partition column of %s%s is not a principal symbol", srcPred, tuple)})
					continue
				}
				dstNode, ok := rt.placement[string(target)]
				if !ok {
					// The target is not placed yet. Remember the sender —
					// without marking the tuple shipped — so placing the
					// principal later rescans the sender and delivers
					// whatever it still asserts, and record the refusal:
					// once per tuple while the dedup keys fit the parked
					// cap, once per sender/target pair past it, so repeated
					// rescans cannot grow the rejection log without bound.
					waiting := rt.parked[string(target)]
					senderKnown := waiting != nil
					if !senderKnown {
						waiting = map[string]struct{}{}
						rt.parked[string(target)] = waiting
					}
					_, senderKnown = waiting[sender]
					waiting[sender] = struct{}{}
					recorded := false
					if len(rt.parkedKey) < rt.parkedCap {
						rt.parkedKey[key] = string(target)
						recorded = true
					}
					if recorded || !senderKnown {
						srcNode.reject(Rejection{Node: srcNode.name, Sender: sender, Target: string(target), Pred: srcPred, Tuple: tuple, Trace: trace,
							Err: fmt.Errorf("dist: principal %s is not placed on any node", target)})
					}
					continue
				}
				rk := routeKey{sender: sender, target: string(target), src: srcPred, dst: dstPred}
				env, ok := batches[rk]
				if !ok {
					env = &Envelope{
						From:      srcNode.name,
						To:        dstNode.name,
						Sender:    sender,
						Principal: string(target),
						Pred:      dstPred,
						Trace:     trace,
					}
					batches[rk] = env
					srcNodes[rk] = srcNode
					order = append(order, rk)
				}
				env.Tuples = append(env.Tuples, tuple)
				keys[rk] = append(keys[rk], key)
				queued[key] = struct{}{}
			}
		}
	}
	rt.mu.Unlock()
	rt.scanned.Add(scanned)
	rt.suppress.Add(suppressed)

	if len(order) == 0 {
		rt.emitShips(journalShips) // unroutable refusals still suppress
		return false, nil
	}
	counted := false
	for i, rk := range order {
		env := batches[rk]
		if err := srcNodes[rk].ep.Send(env.To, env); err != nil {
			// Envelopes sent before this one stay delivered and the round
			// stays counted; the failed envelope and everything after it was
			// not marked shipped, so requeue those tuples for the next Sync
			// instead of silently dropping them.
			rt.failures.Add(1)
			requeued := int64(0)
			rt.dirtyMu.Lock()
			for _, failed := range order[i:] {
				for _, t := range batches[failed].Tuples {
					rt.enqueueLocked(failed.sender, failed.src, t)
					requeued++
				}
			}
			rt.dirtyMu.Unlock()
			if m := rt.obsMetrics.Load(); m != nil {
				m.requeued.Add(requeued)
			}
			if log := rt.obsLog.Load(); log != nil {
				log.Debug("send failed; tuples requeued",
					"from", env.From, "to", env.To, "pred", env.Pred, "requeued", requeued, "error", err)
			}
			rt.emitShips(journalShips)
			return true, fmt.Errorf("dist: %s -> %s: %w", env.From, env.To, err)
		}
		rt.mu.Lock()
		if !counted {
			// A round counts once something actually moved.
			rt.rounds.Add(1)
			counted = true
		}
		for _, key := range keys[rk] {
			rt.shipped.add(key, rk.sender, rk.target)
			journalShips = append(journalShips, ShipState{Key: key, Sender: rk.sender, Target: rk.target, Gen: rt.shipped.gen})
		}
		rt.mu.Unlock()
	}
	rt.emitShips(journalShips)
	return true, nil
}

// deliver applies an inbound envelope to the addressed workspace on node
// n. Constraint rejections are recorded per tuple; only routing and decode
// problems surface as transport errors.
func (rt *Runtime) deliver(n *Node, env *Envelope) error {
	// A traced envelope carries the sender's trace ID across the wire;
	// record the receiving node's span and log line under the same ID so
	// one request is followable end to end across nodes.
	if env.Trace != "" {
		span := rt.obsTracer.Load().StartSpan(obs.TraceID(env.Trace), "", "dist.deliver", n.name)
		defer span.End()
		if log := rt.obsLog.Load(); log != nil {
			log.Debug("delivering envelope", "trace", env.Trace, "node", n.name,
				"from", env.From, "sender", env.Sender, "principal", env.Principal,
				"pred", env.Pred, "tuples", len(env.Tuples))
		}
	}
	rt.mu.Lock()
	ws := rt.wss[env.Principal]
	hosted := rt.placement[env.Principal]
	rt.mu.Unlock()
	if ws == nil || hosted == nil {
		return fmt.Errorf("principal %q is not placed", env.Principal)
	}
	if hosted != n {
		return fmt.Errorf("principal %q lives on node %q, not %q", env.Principal, hosted.name, n.name)
	}
	assert := func(tuples []datalog.Tuple) error {
		_, err := ws.UpdateTraced(env.Trace, func(tx *workspace.Tx) error {
			for _, t := range tuples {
				if err := tx.AssertTuple(env.Pred, t); err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil {
			// Accepted tuples get remote-origin leaf provenance: the proof
			// of anything derived from them bottoms out at "delivered by
			// Sync from <node>, said by <sender>" instead of a bare base
			// fact, and the trace ID lets an operator resume the proof on
			// the origin node. No-op when provenance is disabled.
			for _, t := range tuples {
				ws.RecordRemoteLeaf(env.Pred, t, env.From, env.Sender, env.Trace)
			}
		}
		return err
	}
	if err := assert(env.Tuples); err == nil {
		n.delivered(int64(len(env.Tuples)))
		return nil
	}
	// The batch rolled back: retry tuples one by one so a single refused
	// statement does not censor its cohort, and record each refusal.
	for _, t := range env.Tuples {
		if err := assert([]datalog.Tuple{t}); err != nil {
			n.reject(Rejection{Node: n.name, Sender: env.Sender, Target: env.Principal, Pred: env.Pred, Tuple: t, Trace: env.Trace, Err: err})
		} else {
			n.delivered(1)
		}
	}
	return nil
}

// ResetDeliveries forgets that tuples addressed to the given principal
// were ever shipped, and schedules a rescan of their senders, so the
// next Sync re-delivers them. A receiver that clears its communication
// history (core's ForgetCommunication) calls this: without it,
// byte-identical re-exports — same scheme, same signature — would be
// suppressed by the shipped-tuple set forever. While the target's
// shipping history is intact, its records name the exact senders to
// rescan; if eviction dropped records for this target, every placed
// principal is rescanned instead, so an evicted record can degrade a
// reset to a broader rescan but never to a lost re-delivery.
func (rt *Runtime) ResetDeliveries(target string) {
	rt.mu.Lock()
	senders, lossy := rt.shipped.resetTarget(target)
	if lossy {
		senders = senders[:0]
		for p := range rt.placement {
			senders = append(senders, p)
		}
	}
	rt.mu.Unlock()
	for _, s := range senders {
		rt.markRescan(s)
	}
	rt.emit(Event{Kind: EventReset, Target: target})
}

// Stats snapshots the runtime's counters and per-node transfer totals.
func (rt *Runtime) Stats() Stats {
	rt.mu.Lock()
	s := Stats{
		Syncs:            rt.syncs.Load(),
		Rounds:           rt.rounds.Load(),
		SendFailures:     rt.failures.Load(),
		DeltaTuples:      rt.delta.Load(),
		ScannedTuples:    rt.scanned.Load(),
		SuppressedTuples: rt.suppress.Load(),
		ShippedRecords:   rt.shipped.len(),
		ParkedRecords:    rt.parkedLen(),
	}
	nodes := rt.nodesInOrder()
	principals := map[string][]string{}
	for p, n := range rt.placement {
		principals[n.name] = append(principals[n.name], p)
	}
	rt.mu.Unlock()
	for _, n := range nodes {
		ns := n.Stats()
		ns.Principals = append([]string{}, principals[n.name]...)
		sort.Strings(ns.Principals)
		s.Nodes = append(s.Nodes, ns)
	}
	return s
}
