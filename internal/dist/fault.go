package dist

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"lbtrust/internal/obs"
)

// ErrInjected is the error returned by a faulted Send. Tests match on it
// to separate injected faults from real transport failures.
var ErrInjected = errors.New("dist: injected transport fault")

// FaultPlan configures deterministic fault injection. Each probability is
// evaluated per Send from one seeded stream, so a given (plan, send
// sequence) pair always faults at the same points. Probabilities are
// checked in field order; their sum should stay ≤ 1.
type FaultPlan struct {
	// Seed initializes the decision stream. The same seed over the same
	// send sequence reproduces the same faults.
	Seed int64
	// Drop is the probability that a Send fails without delivering: the
	// classic lost message. The sender sees ErrInjected and must retry.
	Drop float64
	// FailAfter is the probability that the envelope is delivered but
	// Send still reports ErrInjected — the ack was lost. A correct sender
	// retries, so the receiver sees the envelope twice; delivery must be
	// idempotent for exactly-once effects.
	FailAfter float64
	// Duplicate is the probability that the envelope is delivered twice
	// and Send succeeds (a duplicating network path).
	Duplicate float64
	// Delay is the probability that delivery is held up to MaxDelay
	// (deterministic fraction drawn from the stream) before proceeding
	// normally.
	Delay    float64
	MaxDelay time.Duration
}

// FaultStats counts the faults injected so far.
type FaultStats struct {
	Sends       int64 // Send calls observed
	Dropped     int64 // failed without delivering
	FailedAfter int64 // delivered, then reported failure
	Duplicated  int64 // delivered twice
	Delayed     int64
}

// FaultTransport wraps any Transport with seeded fault injection on the
// send path. It exists for soak tests: the distribution runtime's
// requeue/retry accounting and the workspace's idempotent delivery are
// exactly the mechanisms these faults exercise. Receive paths are not
// faulted — a dropped ack is modeled by FailAfter.
type FaultTransport struct {
	inner Transport
	plan  FaultPlan

	mu  sync.Mutex // guards rng
	rng *rand.Rand
	// counts holds the FaultStats counters, indexed by faultKind (the
	// faultNone slot counts every Send); atomic so Stats and /metrics
	// read them without f.mu.
	counts [faultDelay + 1]atomic.Int64
}

// SetMetrics registers reads of the injected-fault counters on r, which
// /metrics reports at scrape time (nil r is a no-op).
func (f *FaultTransport) SetMetrics(r *obs.Registry) {
	const help = "transport faults injected by FaultTransport, by kind"
	r.CounterFunc("lb_dist_fault_sends_total", "Send calls observed by FaultTransport", f, f.counts[faultNone].Load)
	labels := [...]string{faultDrop: "drop", faultFailAfter: "fail_after", faultDuplicate: "duplicate", faultDelay: "delay"}
	for k := faultDrop; k <= faultDelay; k++ {
		r.CounterFunc("lb_dist_fault_injections_total", help, f, f.counts[k].Load, "kind", labels[k])
	}
}

// NewFaultTransport wraps inner with the given plan.
func NewFaultTransport(inner Transport, plan FaultPlan) *FaultTransport {
	return &FaultTransport{inner: inner, plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// Endpoint wraps the inner transport's endpoint of the same name.
func (f *FaultTransport) Endpoint(name string) (Endpoint, error) {
	ep, err := f.inner.Endpoint(name)
	if err != nil {
		return nil, err
	}
	return &faultEndpoint{f: f, inner: ep}, nil
}

// Close closes the inner transport.
func (f *FaultTransport) Close() error { return f.inner.Close() }

// Stats snapshots the injected-fault counters.
func (f *FaultTransport) Stats() FaultStats {
	return FaultStats{
		Sends:       f.counts[faultNone].Load(),
		Dropped:     f.counts[faultDrop].Load(),
		FailedAfter: f.counts[faultFailAfter].Load(),
		Duplicated:  f.counts[faultDuplicate].Load(),
		Delayed:     f.counts[faultDelay].Load(),
	}
}

type faultKind int

const (
	faultNone faultKind = iota
	faultDrop
	faultFailAfter
	faultDuplicate
	faultDelay
)

// decide draws the next fault decision (and a delay fraction) from the
// seeded stream. One lock-protected stream — not per-endpoint — keeps the
// sequence deterministic for the runtime's single-threaded pump while
// staying safe if tests send concurrently.
func (f *FaultTransport) decide() (faultKind, time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.counts[faultNone].Add(1)
	x := f.rng.Float64()
	p := f.plan
	kind, d := faultNone, time.Duration(0)
	switch {
	case x < p.Drop:
		kind = faultDrop
	case x < p.Drop+p.FailAfter:
		kind = faultFailAfter
	case x < p.Drop+p.FailAfter+p.Duplicate:
		kind = faultDuplicate
	case x < p.Drop+p.FailAfter+p.Duplicate+p.Delay:
		kind = faultDelay
		d = time.Duration(f.rng.Float64() * float64(p.MaxDelay))
	}
	if kind != faultNone {
		f.counts[kind].Add(1)
	}
	return kind, d
}

type faultEndpoint struct {
	f     *FaultTransport
	inner Endpoint
}

func (ep *faultEndpoint) Name() string            { return ep.inner.Name() }
func (ep *faultEndpoint) SetReceiver(fn Receiver) { ep.inner.SetReceiver(fn) }
func (ep *faultEndpoint) Stats() TransferStats    { return ep.inner.Stats() }
func (ep *faultEndpoint) Close() error            { return ep.inner.Close() }

// TransportKind attributes wire traffic to the wrapped transport: faults
// are an overlay, not a wire.
func (ep *faultEndpoint) TransportKind() string { return transportKind(ep.inner) }

func (ep *faultEndpoint) Send(to string, env *Envelope) error {
	kind, delay := ep.f.decide()
	switch kind {
	case faultDrop:
		return fmt.Errorf("%w: dropped envelope %s->%s %s", ErrInjected, env.From, to, env.Pred)
	case faultFailAfter:
		if err := ep.inner.Send(to, env); err != nil {
			return err
		}
		return fmt.Errorf("%w: delivered but ack lost %s->%s %s", ErrInjected, env.From, to, env.Pred)
	case faultDuplicate:
		if err := ep.inner.Send(to, env); err != nil {
			return err
		}
		return ep.inner.Send(to, env)
	case faultDelay:
		time.Sleep(delay)
	}
	return ep.inner.Send(to, env)
}
