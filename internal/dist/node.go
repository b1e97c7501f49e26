package dist

import (
	"fmt"
	"sync"
	"sync/atomic"

	"lbtrust/internal/datalog"
	"lbtrust/internal/workspace"
)

// DefaultRejectionCap bounds the Rejection records a node retains. A
// long-running server facing a hostile or misconfigured sender would
// otherwise grow the record list without limit; past the cap the oldest
// records are dropped (counted in NodeStats.RejectionsDropped) and the
// newest are kept, since recent refusals are the ones an operator
// inspects.
const DefaultRejectionCap = 1024

// Node is one placement site: a named host bound to a transport endpoint,
// hosting the workspaces of the principals placed on it.
type Node struct {
	rt   *Runtime
	name string
	ep   Endpoint

	// nDeliv and nRejected count every delivered and refused tuple
	// (refusals whose records the cap dropped included); atomic so
	// /metrics reads them without n.mu.
	nDeliv, nRejected atomic.Int64

	mu         sync.Mutex
	rejected   []Rejection // ring once at cap; rejStart is the oldest entry
	rejStart   int
	rejCap     int // 0 means DefaultRejectionCap
	rejDropped int64
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Endpoint returns the transport endpoint the node is bound to.
func (n *Node) Endpoint() Endpoint { return n.ep }

// AddPrincipal places a principal's workspace on this node. Placing an
// already-placed principal moves it here.
func (n *Node) AddPrincipal(ws *workspace.Workspace) {
	n.rt.place(ws, n)
}

// Rejection records one refused delivery: the receiving workspace's
// constraints rolled the tuple back (or the tuple could not be routed).
type Rejection struct {
	Node   string // node that recorded the rejection
	Sender string // sending principal
	Target string // receiving principal ("" when routing failed pre-target)
	Pred   string // destination predicate
	Tuple  datalog.Tuple
	Trace  string // trace ID of the Sync that shipped the tuple ("" untraced)
	Err    error
}

func (r Rejection) String() string {
	if r.Trace != "" {
		return fmt.Sprintf("%s -> %s: %s%s [trace %s]: %v", r.Sender, r.Target, r.Pred, r.Tuple.String(), r.Trace, r.Err)
	}
	return fmt.Sprintf("%s -> %s: %s%s: %v", r.Sender, r.Target, r.Pred, r.Tuple.String(), r.Err)
}

// SetRejectionCap bounds the retained rejection records (non-positive
// resets to DefaultRejectionCap). Shrinking below the current count drops
// the oldest records immediately.
func (n *Node) SetRejectionCap(cap int) {
	if cap <= 0 {
		cap = DefaultRejectionCap
	}
	n.mu.Lock()
	n.rejCap = cap
	// Normalize the ring on every cap change — raising the cap on a
	// wrapped ring would otherwise append new records at the physical end,
	// after entries that are logically newest, breaking oldest-first
	// order. A cap change is a rare operator action; O(n) is fine here
	// (the hot-path append in reject stays O(1)).
	ordered := n.rejectedLocked()
	if drop := len(ordered) - cap; drop > 0 {
		ordered = ordered[drop:]
		n.rejDropped += int64(drop)
	}
	n.rejected = ordered
	n.rejStart = 0
	n.mu.Unlock()
}

func (n *Node) reject(r Rejection) {
	n.nRejected.Add(1)
	if log := n.rt.obsLog.Load(); log != nil {
		log.Debug("delivery rejected", "node", r.Node, "sender", r.Sender,
			"target", r.Target, "pred", r.Pred, "trace", r.Trace, "error", r.Err)
	}
	n.mu.Lock()
	cap := n.rejCap
	if cap <= 0 {
		cap = DefaultRejectionCap
	}
	if len(n.rejected) < cap {
		n.rejected = append(n.rejected, r)
	} else {
		// At capacity: overwrite the oldest record in place (ring buffer),
		// so a rejection flood costs O(1) per record and bounded memory.
		n.rejected[n.rejStart] = r
		n.rejStart = (n.rejStart + 1) % len(n.rejected)
		n.rejDropped++
	}
	n.mu.Unlock()
}

// rejectedLocked returns the retained records oldest-first. Caller holds
// n.mu.
func (n *Node) rejectedLocked() []Rejection {
	out := make([]Rejection, 0, len(n.rejected))
	out = append(out, n.rejected[n.rejStart:]...)
	out = append(out, n.rejected[:n.rejStart]...)
	return out
}

func (n *Node) delivered(count int64) { n.nDeliv.Add(count) }

// Rejected returns the retained refused deliveries, oldest first. Once
// the rejection cap is exceeded only the newest records remain (see
// DefaultRejectionCap); NodeStats reports how many were dropped.
func (n *Node) Rejected() []Rejection {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rejectedLocked()
}

// Stats snapshots the node's delivery counters and endpoint traffic.
// TuplesRejected counts every refusal, including records the cap dropped.
func (n *Node) Stats() NodeStats {
	n.mu.Lock()
	dropped := n.rejDropped
	n.mu.Unlock()
	return NodeStats{
		Node:              n.name,
		Transfer:          n.ep.Stats(),
		TuplesDelivered:   n.nDeliv.Load(),
		TuplesRejected:    n.nRejected.Load(),
		RejectionsDropped: dropped,
	}
}
