package obs_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"lbtrust/internal/analysis"
	"lbtrust/internal/core"
	"lbtrust/internal/datalog"
	"lbtrust/internal/dist"
	"lbtrust/internal/obs"
	"lbtrust/internal/server"
	"lbtrust/internal/store"
	"lbtrust/internal/workspace"
)

var update = flag.Bool("update", false, "rewrite the /metrics golden file")

// fullRegistry registers every metric family the system can expose — one
// instance of each layer's instrumentation on a single registry, exactly
// what a freshly started lbtrust-serve -admin-addr exports before any
// traffic. The served system has no nodes yet, so the per-transport wire
// families are absent.
func fullRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	o := &obs.Obs{Registry: obs.NewRegistry()}
	srv, err := server.Serve(core.NewSystem(), "127.0.0.1:0", server.Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	workspace.New("w").SetObs(o)
	store.NewMetrics(o.Registry)
	dist.NewFaultTransport(dist.NewMemNetwork(), dist.FaultPlan{}).SetMetrics(o.Registry)
	return o.Registry
}

// TestMetricsGolden pins the full first-scrape /metrics surface: family
// names, help strings, types, label sets, and histogram bucket layout.
// Adding, renaming, or dropping a metric must update
// testdata/metrics.golden (go test ./internal/obs -run Golden -update)
// and docs/OBSERVABILITY.md together.
func TestMetricsGolden(t *testing.T) {
	var buf bytes.Buffer
	fullRegistry(t).WritePrometheus(&buf)
	got := buf.Bytes()

	path := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("metrics exposition drifted from %s (regenerate with -update):\n%s",
			path, diffLines(string(want), string(got)))
	}
}

// diffLines renders a crude line diff, enough to see what moved.
func diffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	seen := map[string]bool{}
	for _, l := range w {
		seen[l] = true
	}
	var b strings.Builder
	for _, l := range g {
		if !seen[l] {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	have := map[string]bool{}
	for _, l := range g {
		have[l] = true
	}
	for _, l := range w {
		if !have[l] {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	return b.String()
}

// TestLimitCodesLockstep keeps the three places a resource-limit code
// lives in sync: the typed constants (datalog.LimitCodes), the
// diagnostic catalog rendered into docs/DIAGNOSTICS.md
// (analysis.Catalog), and the pre-registered children of
// lb_server_limit_trips_total. A code added to one and not the others
// fails here.
func TestLimitCodesLockstep(t *testing.T) {
	cataloged := map[string]bool{}
	for _, info := range analysis.Catalog {
		cataloged[info.Code] = true
	}
	for _, code := range datalog.LimitCodes() {
		if !cataloged[code] {
			t.Errorf("limit code %s missing from analysis.Catalog", code)
		}
	}

	var buf bytes.Buffer
	fullRegistry(t).WritePrometheus(&buf)
	exp := buf.String()

	// Every label value of lb_server_limit_trips_total must be a
	// cataloged code...
	labelRE := regexp.MustCompile(`lb_server_limit_trips_total\{code="([^"]+)"\}`)
	exposed := map[string]bool{}
	for _, m := range labelRE.FindAllStringSubmatch(exp, -1) {
		exposed[m[1]] = true
		if !cataloged[m[1]] {
			t.Errorf("metric label code %q not in analysis.Catalog", m[1])
		}
	}
	// ...and every typed limit code must already be exposed as a zero
	// series on the first scrape (operators can alert on codes that have
	// never fired).
	for _, code := range datalog.LimitCodes() {
		if !exposed[code] {
			t.Errorf("limit code %s has no pre-registered lb_server_limit_trips_total child", code)
		}
	}
}
