// Package obs is the zero-dependency observability core: atomic
// counters/gauges/histograms in a named registry with Prometheus-text
// exposition, component-scoped structured logging over log/slog, and
// lightweight trace spans whose IDs propagate over the distribution wire
// (see internal/dist's envelope codec).
//
// Every metric handle is nil-safe: a nil *Counter/*Gauge/*Histogram is a
// valid no-op, and a nil *Registry hands out exactly those nil handles.
// Instrumented hot paths therefore cost one predictable branch when no
// registry is configured — the property the serve and incremental-sync
// benchmarks gate on.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The nil *Counter is a
// no-op, so callers instrument unconditionally and pay one branch.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. The nil *Gauge is a no-op.
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() {
	if g == nil {
		return
	}
	g.v.Add(1)
}

// Dec subtracts one.
func (g *Gauge) Dec() {
	if g == nil {
		return
	}
	g.v.Add(-1)
}

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefBuckets are the default histogram upper bounds in seconds:
// exponential from 100µs to 10s, sized for request/flush/fsync latencies.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram. Observations are
// durations; exposition is in seconds (Prometheus convention). The nil
// *Histogram is a no-op.
type Histogram struct {
	bounds []float64      // upper bounds in seconds, ascending
	counts []atomic.Int64 // len(bounds)+1; last bucket is +Inf
	sumNS  atomic.Int64
	count  atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	s := d.Seconds()
	i := sort.SearchFloat64s(h.bounds, s)
	h.counts[i].Add(1)
	h.sumNS.Add(d.Nanoseconds())
	h.count.Add(1)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total observed time (0 on nil).
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sumNS.Load())
}

// funcMetric is a counter or gauge child whose value is read at scrape
// time from counters a layer already owns, instead of being incremented
// beside them. Each owner contributes one read; the child reports the
// sum over owners, so every workspace of a process feeds one family, and
// registering an owner again replaces its read rather than adding a
// second one. Reads must be lock-free (atomic loads): a scrape calls them
// under the registry lock.
type funcMetric struct{ reads map[any]func() int64 }

// Value sums the owners' reads.
func (m *funcMetric) Value() int64 {
	var sum int64
	for _, read := range m.reads {
		sum += read()
	}
	return sum
}

// metric typing for the registry's families.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// family is every child of one metric name: the shared HELP/TYPE header
// plus one child per label set.
type family struct {
	name, help, typ string
	children        map[string]any // canonical label string -> metric
	labels          map[string][]string
}

// Registry is a named collection of metrics. Children are created
// get-or-create by (name, label set): asking for the same name and
// labels twice returns the same handle, so dynamically labeled counters
// (e.g. limit trips by LB-LIMIT code) need no pre-declaration. The nil
// *Registry returns nil handles everywhere — the no-op configuration.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// labelKey canonicalizes an alternating key/value label list, sorted by
// key, into the child-map key (also the exposition form minus braces).
func labelKey(labels []string) (string, []string) {
	if len(labels)%2 != 0 {
		panic("obs: labels must be alternating key/value pairs")
	}
	if len(labels) == 0 {
		return "", nil
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	flat := make([]string, 0, len(labels))
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
		flat = append(flat, p.k, p.v)
	}
	return b.String(), flat
}

// child returns the metric for (name, labels), creating the family and
// the child as needed. A name reused with a different metric type is a
// programmer error and panics.
func (r *Registry) child(name, help, typ string, labels []string, make func() any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ,
			children: map[string]any{}, labels: map[string][]string{}}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	key, flat := labelKey(labels)
	m := f.children[key]
	if m == nil {
		m = make()
		f.children[key] = m
		f.labels[key] = flat
	}
	return m
}

// Counter returns the counter named name with the given alternating
// key/value labels, creating it on first use. Returns nil on a nil
// registry.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.child(name, help, typeCounter, labels, func() any { return new(Counter) }).(*Counter)
}

// Gauge returns the gauge named name, creating it on first use. Returns
// nil on a nil registry.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.child(name, help, typeGauge, labels, func() any { return new(Gauge) }).(*Gauge)
}

// Histogram returns the histogram named name with the default latency
// buckets, creating it on first use. Returns nil on a nil registry.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.child(name, help, typeHistogram, labels, func() any {
		return &Histogram{bounds: DefBuckets, counts: make([]atomic.Int64, len(DefBuckets)+1)}
	}).(*Histogram)
}

// CounterFunc registers read as owner's contribution to the counter named
// name with the given labels: scrapes report the sum of every owner's
// read. Registering the same owner again replaces its read. There is no
// unregistration; a nil registry ignores the call.
func (r *Registry) CounterFunc(name, help string, owner any, read func() int64, labels ...string) {
	r.addFunc(name, help, typeCounter, owner, read, labels)
}

// GaugeFunc is CounterFunc for a gauge.
func (r *Registry) GaugeFunc(name, help string, owner any, read func() int64, labels ...string) {
	r.addFunc(name, help, typeGauge, owner, read, labels)
}

func (r *Registry) addFunc(name, help, typ string, owner any, read func() int64, labels []string) {
	if r == nil {
		return
	}
	m := r.child(name, help, typ, labels, func() any {
		return &funcMetric{reads: map[any]func() int64{}}
	}).(*funcMetric)
	r.mu.Lock()
	m.reads[owner] = read
	r.mu.Unlock()
}

// formatFloat renders a float the way Prometheus text format expects.
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// WritePrometheus writes every metric in Prometheus text exposition
// format, deterministically ordered (families by name, children by
// canonical label string) so golden tests and diffs are stable. A nil
// registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		f := r.families[name]
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			switch m := f.children[k].(type) {
			case interface{ Value() int64 }: // *Counter, *Gauge, *funcMetric
				fmt.Fprintf(&b, "%s%s %d\n", f.name, braced(k), m.Value())
			case *Histogram:
				cum := int64(0)
				for i, bound := range m.bounds {
					cum += m.counts[i].Load()
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, bracedLe(k, formatFloat(bound)), cum)
				}
				cum += m.counts[len(m.bounds)].Load()
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, bracedLe(k, "+Inf"), cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, braced(k), formatFloat(m.Sum().Seconds()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, braced(k), m.Count())
			}
		}
	}
	r.mu.Unlock()
	_, err := io.WriteString(w, b.String())
	return err
}

// braced wraps a canonical label string for exposition ("" stays bare).
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// bracedLe appends the le bucket label to a canonical label string.
func bracedLe(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return "{" + labels + `,le="` + le + `"}`
}
