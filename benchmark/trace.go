package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed boundary call. Parent is the index of the span that
// caused it (-1 for a root); Req groups the spans of one round or request.
type span struct {
	name       string
	parent     int
	req        int
	start, end time.Duration // since the tracer was created
}

// tracer is the benchmark's own span recorder: spans are kept in memory
// and written out when the run ends. A nil tracer records nothing, which
// is how the untraced run pays only a nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, parent: parent, req: req, start: now, end: -1})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) finish(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// record adds an already-timed span, for boundaries the workload times
// anyway (so traced and untraced runs share one pair of clock reads).
func (t *tracer) record(name string, parent, req int, start time.Time, d time.Duration) int {
	if t == nil {
		return -1
	}
	s := start.Sub(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, parent: parent, req: req, start: s, end: s + d})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// LayerTime is the trace's account of one span name: how often it ran,
// its total duration, and the part of that not covered by child spans.
type LayerTime struct {
	Layer  string  `json:"layer"`
	Calls  int     `json:"calls"`
	BusyUS float64 `json:"busy_us"`
	SelfUS float64 `json:"self_us"`
}

// layers aggregates the recorded spans by name.
func (t *tracer) layers() []LayerTime {
	if t == nil {
		return nil
	}
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	byName := map[string]*LayerTime{}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		lt := byName[s.name]
		if lt == nil {
			lt = &LayerTime{Layer: s.name}
			byName[s.name] = lt
		}
		d := s.end - s.start
		lt.Calls++
		lt.BusyUS += us(d)
		lt.SelfUS += us(d - child[i])
	}
	out := make([]LayerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].BusyUS > out[j].BusyUS })
	return out
}

// write dumps the spans as a JSON array to dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "[")
	for i, s := range t.spans {
		sep := ",\n"
		if i == 0 {
			sep = "\n"
		}
		fmt.Fprintf(w, `%s{"id":%d,"parent":%d,"req":%d,"name":%q,"start_ns":%d,"end_ns":%d}`,
			sep, i, s.parent, s.req, s.name, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	fmt.Fprintf(w, "\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
