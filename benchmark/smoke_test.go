package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// declared is the part of BENCHMARK.json the smoke test holds the program
// to.
type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestSmoke runs all five workloads at tiny scale, untraced and traced,
// and holds what they emit to what BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	decl := loadDeclared(t)
	var wantWorkloads, gotWorkloads []string
	for _, w := range decl.Workloads {
		wantWorkloads = append(wantWorkloads, w.Name)
	}
	for _, w := range workloads {
		gotWorkloads = append(gotWorkloads, w.name)
	}
	if strings.Join(gotWorkloads, " ") != strings.Join(wantWorkloads, " ") {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", gotWorkloads, wantWorkloads)
	}
	wantUnits := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range decl.EndToEnd {
		wantUnits[false][m.Name] = m.Unit
	}
	for _, m := range decl.PerLayer {
		wantUnits[true][m.Name] = m.Unit
	}

	cfg := config{seed: 1, seconds: 10, scale: "tiny", outDir: t.TempDir()}
	emitted := map[string]bool{}
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			rep, err := runWorkload(w, cfg, traced)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d, failed %d: %v", w.name, traced, rep.Attempted, rep.Failed, rep.Failures)
			}
			for _, m := range append(append([]Metric{}, rep.EndToEnd...), rep.PerLayer...) {
				if !nameRE.MatchString(m.Name) || m.Unit == "" || m.N < 1 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: malformed metric %+v", w.name, m)
				}
			}
			for _, m := range rep.EndToEnd {
				if _, gated := gates[m.Name]; gated == ungated[m.Name] {
					t.Errorf("%s: end-to-end metric %s must be either gated or listed as ungated", w.name, m.Name)
				}
				emitted[m.Name] = true
			}
			for _, m := range rep.PerLayer {
				if perLayerUnits[m.Name] != m.Unit {
					t.Errorf("%s: per-layer metric %s [%s] is not declared in perLayerUnits", w.name, m.Name, m.Unit)
				}
				emitted[m.Name] = true
			}
			if traced {
				if _, err := os.Stat(rep.TraceFile); err != nil {
					t.Errorf("%s: trace file: %v", w.name, err)
				}
			}

			line := contractLine(w, rep)
			got := map[string]string{}
			for name, v := range line.Metrics {
				got[name] = v.Unit
				if !traced && v.Value <= 0 {
					t.Errorf("%s: contract metric %s = %v, want > 0", w.name, name, v.Value)
				}
			}
			if want := wantUnits[traced]; strings.Join(sortedKeys(got), " ") != strings.Join(sortedKeys(want), " ") {
				t.Errorf("%s traced=%v: contract line has %v, BENCHMARK.json declares %v", w.name, traced, sortedKeys(got), sortedKeys(want))
			} else {
				for name, unit := range want {
					if got[name] != unit {
						t.Errorf("%s: %s has unit %q, BENCHMARK.json declares %q", w.name, name, got[name], unit)
					}
				}
			}
		}
	}
	for name := range perLayerUnits {
		if !emitted[name] {
			t.Errorf("per-layer metric %s is declared but no workload emitted it", name)
		}
	}
}

// TestPublicSurfaceOnly keeps the benchmark off internal/bench and off
// what ROADMAP schedules for deletion, so subtraction PRs cannot break it.
func TestPublicSurfaceOnly(t *testing.T) {
	forbidden := map[string]bool{
		"LockedReads": true, "SetIncrementalChecks": true, "OnNew": true, "OnDerive": true,
		"EncodeTuple": true, "DecodeTuple": true, "NewEvaluator": true,
	}
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			for _, imp := range file.Imports {
				if strings.Contains(imp.Path.Value, "internal/bench") {
					t.Errorf("%s imports %s", name, imp.Path.Value)
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && forbidden[sel.Sel.Name] {
					t.Errorf("%s uses forbidden symbol %s", name, sel.Sel.Name)
				}
				return true
			})
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := samples{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := spread(s); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestVerdict(t *testing.T) {
	flat := samples{100, 100, 101, 99, 100}
	cases := []struct {
		name string
		g    gate
		a, b samples
		want string
	}{
		{"same", gate{bound: 0.10}, flat, flat, "ok"},
		{"slower within bound", gate{bound: 0.10}, flat, samples{108, 109, 108, 108, 107}, "ok"},
		{"slower beyond bound", gate{bound: 0.10}, flat, samples{120, 121, 119, 120, 120}, "regressed"},
		{"faster", gate{bound: 0.10}, flat, samples{50, 50, 51, 49, 50}, "ok"},
		{"throughput drop", gate{bound: 0.10, higherBetter: true}, flat, samples{80, 80, 81, 79, 80}, "regressed"},
		{"noisy base", gate{bound: 0.10}, samples{60, 100, 140, 100, 80}, samples{120, 121, 119, 120, 120}, "unresolved"},
		{"exact count moved", gate{bound: 0}, samples{39, 39}, samples{40, 40}, "regressed"},
		{"exact count held", gate{bound: 0}, samples{39, 39}, samples{39, 39}, "ok"},
		{"zero stays zero", gate{bound: 0}, samples{0}, samples{0}, "ok"},
	}
	for _, c := range cases {
		if got := verdict(c.g, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
