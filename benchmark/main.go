// Command benchmark is the repo's benchmark: five seeded workloads over the
// paper's Figure 2 path and the served path, each checked by correctness
// oracles, reporting end-to-end metrics from an untraced run and per-layer
// metrics from a traced run. See README.md in this directory.
//
//	go run ./benchmark                          # all workloads, untraced
//	go run ./benchmark -trace 1                 # untraced, then traced with layer probes
//	go run ./benchmark -workload fig2.rsa -seed 7 -seconds 10 -trace 0
//	go run ./benchmark -compare a.json b.json   # A/A or A/B gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"
)

// Report is what one invocation measured: one Run per seed.
type Report struct {
	Meta Meta  `json:"meta"`
	Runs []Run `json:"runs"`
}

// Meta records where and how the numbers were taken.
type Meta struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Scale      string `json:"scale"`
	Seconds    int    `json:"seconds"`
	Fsync      string `json:"fsync"`
}

// Run is every selected workload under one seed.
type Run struct {
	Seed      int64            `json:"seed"`
	Workloads []WorkloadReport `json:"workloads"`
}

// WorkloadReport is one workload's outcome. End-to-end metrics always come
// from an untraced measured phase; the per-layer fields are filled by the
// traced run only.
type WorkloadReport struct {
	Name      string   `json:"name"`
	Why       string   `json:"why"`
	Loop      string   `json:"loop"`
	Clients   int      `json:"clients"`
	Sizes     Sizes    `json:"sizes"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	EndToEnd  []Metric `json:"end_to_end"`

	PerLayer  []Metric    `json:"per_layer,omitempty"`
	Layers    []LayerTime `json:"layers,omitempty"`
	TraceFile string      `json:"trace_file,omitempty"`
}

func (w *WorkloadReport) find(name string) (Metric, bool) {
	return findMetric(name, w.EndToEnd, w.PerLayer)
}

// inMicros reads a timing metric in microseconds whatever its unit.
func inMicros(m Metric) float64 {
	switch m.Unit {
	case "ms":
		return m.Value * 1e3
	case "s":
		return m.Value * 1e6
	}
	return m.Value
}

// runWorkload sets the workload up SetupReps times (setup_s is the
// median) and measures on the last set-up. A traced run measures the
// second-to-last set-up untraced, for the end-to-end metrics and as the
// base of trace_overhead_pct, and the last one with the span recorder
// and the layer probes on.
func runWorkload(w *workloadDef, cfg config, traced bool) (*WorkloadReport, error) {
	sz := w.sizes(cfg)
	reps := sz.SetupReps
	if traced && reps < 2 {
		reps = 2
	}
	var setupS samples
	var base, ph *phase
	var tr *tracer
	for r := 0; r < reps; r++ {
		e := &env{cfg: cfg, sz: sz, rng: workloadRand(cfg.seed, w.name)}
		runtime.GC()
		t0 := time.Now()
		inst, err := w.setup(e)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS.add(time.Since(t0).Seconds())
		switch {
		case r == reps-1 && traced:
			tr = newTracer()
			ph = inst.measure(tr)
			inst.probe(tr, ph)
		case r == reps-1:
			ph = inst.measure(nil)
		case r == reps-2 && traced:
			base = inst.measure(nil)
		}
		inst.close()
	}

	rep := &WorkloadReport{
		Name: w.name, Why: w.why, Loop: w.loop, Clients: max(sz.Clients, 1), Sizes: sz, Traced: traced,
		Attempted: ph.attempted, Failed: ph.failed, Failures: ph.failures,
	}
	untraced := ph
	if traced {
		untraced = base
		rep.Attempted += base.attempted
		rep.Failed += base.failed
		rep.Failures = append(base.failures, rep.Failures...)
	}
	rep.Correct = rep.Failed == 0
	rep.EndToEnd = append([]Metric{timing("setup_s", "s", setupS)}, untraced.e2e...)
	rep.EndToEnd = append(rep.EndToEnd, count("fail_ratio", "ratio", float64(rep.Failed)/float64(max(rep.Attempted, 1))))
	if !traced {
		return rep, nil
	}

	rep.PerLayer = ph.layer
	layer := map[string]float64{}
	for _, m := range ph.layer {
		layer[m.Name] = m.Value
	}
	if m, ok := untraced.metric(w.attributed); ok && m.Value > 0 {
		rep.PerLayer = append(rep.PerLayer, count("unattributed_share", "ratio", 1-w.attribution(layer, sz)/inMicros(m)))
	}
	basePrimary, _ := untraced.metric(w.primary)
	tracedPrimary, _ := ph.metric(w.primary)
	if basePrimary.Value > 0 {
		rep.PerLayer = append(rep.PerLayer, count("trace_overhead_pct", "%", 100*(tracedPrimary.Value-basePrimary.Value)/basePrimary.Value))
	}
	rep.Layers = tr.layers()
	path, err := tr.write(cfg.outDir, w.name)
	if err != nil {
		return nil, fmt.Errorf("%s: writing the trace: %w", w.name, err)
	}
	rep.TraceFile = path
	return rep, nil
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func summarize(rep *WorkloadReport) {
	tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "== %s\t(%s, %d client(s))\tattempted %d\tfailed %d\n", rep.Name, rep.Loop, rep.Clients, rep.Attempted, rep.Failed)
	row := func(m Metric) {
		tail := ""
		if m.Tail != "" {
			tail = fmt.Sprintf("%s %.4g", m.Tail, m.TailValue)
		}
		fmt.Fprintf(tw, "  %s\t%.6g %s\t%s\tn=%d\n", m.Name, m.Value, m.Unit, tail, m.N)
	}
	for _, m := range rep.EndToEnd {
		row(m)
	}
	for _, m := range rep.PerLayer {
		row(m)
	}
	for _, l := range rep.Layers {
		fmt.Fprintf(tw, "  span %s\tcalls %d\tbusy %.0f us\tself %.0f us\n", l.Layer, l.Calls, l.BusyUS, l.SelfUS)
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(tw, "  FAILED\t%s\n", f)
	}
	tw.Flush()
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Int("seconds", 10, "nominal measured seconds per workload; round counts scale with seconds/10")
		trace    = flag.Int("trace", 0, "1 adds the traced run: span recorder and layer probes on, spans written to <out>/trace-<workload>.json")
		scale    = flag.String("scale", "full", "full or tiny (smoke-test sizes)")
		runs     = flag.Int("runs", 1, "repeat the whole set with seeds seed, seed+1, ...")
		jsonOut  = flag.String("json", "", "also write the report to this file")
		outDir   = flag.String("out", "benchmark/out", "directory for traces and temporary data directories")
		compare  = flag.Bool("compare", false, "compare two report files: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 || *seconds < 1 || *runs < 1 || (*scale != "full" && *scale != "tiny") || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *workload != "all" {
		w := findWorkload(*workload)
		if w == nil {
			fatal("unknown workload %q", *workload)
		}
		selected = []*workloadDef{w}
	}

	report := Report{Meta: Meta{
		Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale: *scale, Seconds: *seconds, Fsync: fsyncPolicy,
	}}
	failed := false
	for r := 0; r < *runs; r++ {
		cfg := config{seed: *seed + int64(r), seconds: *seconds, scale: *scale, outDir: *outDir}
		run := Run{Seed: cfg.seed}
		for _, w := range selected {
			rep, err := runWorkload(w, cfg, *trace == 1)
			if err != nil {
				fatal("%v", err)
			}
			summarize(rep)
			failed = failed || !rep.Correct
			run.Workloads = append(run.Workloads, *rep)
		}
		report.Runs = append(report.Runs, run)
	}

	data, err := json.MarshalIndent(report, "", " ")
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(data))
	if *jsonOut != "" {
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fatal("%v", err)
		}
	}
	if len(selected) == 1 && *runs == 1 {
		// The driver's contract: one JSON object as the last line.
		line, err := json.Marshal(contractLine(selected[0], &report.Runs[0].Workloads[0]))
		if err != nil {
			fatal("%v", err)
		}
		fmt.Println(string(line))
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}
