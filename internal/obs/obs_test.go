package obs

import (
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "help")
	g := r.Gauge("x", "help")
	h := r.Histogram("x_seconds", "help")
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil handles, got %v %v %v", c, g, h)
	}
	// Every operation on nil handles is a no-op, never a panic.
	c.Inc()
	c.Add(5)
	g.Inc()
	g.Dec()
	g.Set(3)
	h.Observe(time.Millisecond)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles must read zero")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry exposition: %q, %v", sb.String(), err)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("req_total", "requests", "verb", "query")
	b := r.Counter("req_total", "requests", "verb", "query")
	if a != b {
		t.Fatal("same (name, labels) must return the same handle")
	}
	c := r.Counter("req_total", "requests", "verb", "sync")
	if a == c {
		t.Fatal("different labels must return different children")
	}
	a.Inc()
	a.Inc()
	c.Inc()
	if a.Value() != 2 || c.Value() != 1 {
		t.Fatalf("counts: %d, %d", a.Value(), c.Value())
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("reusing a counter name as a gauge must panic")
		}
	}()
	r.Gauge("m", "h")
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("lb_requests_total", "requests by verb", "verb", "query").Add(3)
	r.Counter("lb_requests_total", "requests by verb", "verb", "sync").Inc()
	r.Gauge("lb_inflight", "requests executing").Set(2)
	h := r.Histogram("lb_latency_seconds", "request latency", "verb", "query")
	h.Observe(200 * time.Microsecond)
	h.Observe(2 * time.Millisecond)
	h.Observe(20 * time.Second) // lands in +Inf

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP lb_requests_total requests by verb",
		"# TYPE lb_requests_total counter",
		`lb_requests_total{verb="query"} 3`,
		`lb_requests_total{verb="sync"} 1`,
		"# TYPE lb_inflight gauge",
		"lb_inflight 2",
		"# TYPE lb_latency_seconds histogram",
		`lb_latency_seconds_bucket{verb="query",le="0.00025"} 1`,
		`lb_latency_seconds_bucket{verb="query",le="0.0025"} 2`,
		`lb_latency_seconds_bucket{verb="query",le="+Inf"} 3`,
		`lb_latency_seconds_count{verb="query"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Deterministic: two writes are byte-identical.
	var sb2 strings.Builder
	r.WritePrometheus(&sb2)
	if out != sb2.String() {
		t.Fatal("exposition is not deterministic")
	}
}

func TestLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m_total", "h", "b", "2", "a", "1")
	b := r.Counter("m_total", "h", "a", "1", "b", "2")
	if a != b {
		t.Fatal("label order must not distinguish children")
	}
	a.Inc()
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `m_total{a="1",b="2"} 1`) {
		t.Fatalf("labels not sorted by key:\n%s", sb.String())
	}
}

func TestCountersConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("conc_total", "h")
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("conc_total", "h").Value(); got != 8000 {
		t.Fatalf("lost updates: %d", got)
	}
}

func TestTracer(t *testing.T) {
	tr := NewTracer(16)
	trace := NewTraceID()
	if !ValidTraceID(string(trace)) {
		t.Fatalf("bad trace id %q", trace)
	}
	root := tr.StartSpan(trace, "", "request", "alice")
	child := tr.StartSpan(trace, root.ID(), "sync", "alice")
	child.End()
	root.End()
	spans := tr.SpansFor(trace)
	if len(spans) != 2 {
		t.Fatalf("want 2 spans, got %d", len(spans))
	}
	// Ring order is completion order: child first.
	if spans[0].Name != "sync" || spans[0].Parent != root.ID() {
		t.Fatalf("child span wrong: %+v", spans[0])
	}
	if spans[1].Name != "request" || spans[1].Parent != "" {
		t.Fatalf("root span wrong: %+v", spans[1])
	}
}

func TestTracerNilAndRing(t *testing.T) {
	var tr *Tracer
	s := tr.StartSpan(NewTraceID(), "", "x", "")
	if s != nil {
		t.Fatal("nil tracer must return nil spans")
	}
	s.End() // no panic
	if tr.Spans() != nil {
		t.Fatal("nil tracer has no spans")
	}

	small := NewTracer(2)
	trace := NewTraceID()
	for i := 0; i < 5; i++ {
		small.StartSpan(trace, "", "s", "").End()
	}
	if got := len(small.Spans()); got != 2 {
		t.Fatalf("ring must cap retention at 2, got %d", got)
	}
}

func TestAdminServer(t *testing.T) {
	r := NewRegistry()
	r.Counter("admin_test_total", "h").Inc()
	a, err := ServeAdmin("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + a.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "admin_test_total 1") {
		t.Fatalf("/metrics: %d %q", code, body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: %d", code)
	}
}

// TestCounterFuncSumsOwners: a function-backed child reports the sum of
// its owners' reads, and registering an owner again replaces its read
// instead of counting it twice.
func TestCounterFuncSumsOwners(t *testing.T) {
	r := NewRegistry()
	var a, b atomic.Int64
	a.Store(3)
	b.Store(4)
	ownerA, ownerB := new(int), new(int)
	r.CounterFunc("events_total", "h", ownerA, a.Load, "k", "v")
	r.CounterFunc("events_total", "h", ownerB, b.Load, "k", "v")
	r.CounterFunc("events_total", "h", ownerA, a.Load, "k", "v")
	r.GaugeFunc("level", "h", ownerA, a.Load)
	a.Add(1)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	for _, want := range []string{"# TYPE events_total counter\n", `events_total{k="v"} 8` + "\n", "# TYPE level gauge\nlevel 4\n"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q in:\n%s", want, sb.String())
		}
	}
	var nilReg *Registry
	nilReg.CounterFunc("x_total", "h", ownerA, a.Load) // no-op, no panic
}
