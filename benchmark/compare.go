package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// gate is one end-to-end metric's regression rule: the share of the base
// median by which the metric may worsen before a change counts as a
// regression. Bounds are max(10%, 2x the spread measured across
// same-commit runs on the 2-core sandbox; see README).
type gate struct {
	higherBetter bool
	bound        float64
}

var gates = map[string]gate{
	"setup_s":            {bound: 0.25},
	"msg_us":             {bound: 0.10},
	"recv_query_us":      {bound: 0.10},
	"msg_per_s":          {bound: 0.10, higherBetter: true},
	"wire_bytes_per_msg": {bound: 0},
	"query_p50_us":       {bound: 0.10},
	"query_qps":          {bound: 0.10, higherBetter: true},
	"scan_p50_us":        {bound: 0.10},
	"write_p50_us":       {bound: 0.10},
	"recover_ms":         {bound: 0.10},
	"retract_ms":         {bound: 0.10},
	"retract_per_s":      {bound: 0.10, higherBetter: true},
	"swap_ms":            {bound: 0.10},
	"live_heap_mb":       {bound: 0.10},
	"fail_ratio":         {bound: 0},
}

// ungated end-to-end metrics are printed beside their medians and never
// gated: across same-commit runs on this machine they did not repeat
// within a tenth (see README, "Measured spreads").
var ungated = map[string]bool{"query_p99_us": true, "write_p99_us": true}

func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// row identifies one compared series.
type row struct{ workload, metric, unit string }

// series gathers every (workload, end-to-end metric) of a report with its
// value in each run, in order of first appearance.
func (r *Report) series() ([]row, map[row]samples) {
	var rows []row
	values := map[row]samples{}
	for _, run := range r.Runs {
		for _, w := range run.Workloads {
			for _, m := range w.EndToEnd {
				k := row{w.Name, m.Name, m.Unit}
				if _, seen := values[k]; !seen {
					rows = append(rows, k)
				}
				values[k] = append(values[k], m.Value)
			}
		}
	}
	return rows, values
}

// ratio is the new median over the base median.
func ratio(a, b samples) float64 {
	ma, mb := median(a), median(b)
	switch {
	case ma != 0:
		return mb / ma
	case mb == 0:
		return 1
	}
	return math.Inf(1) // from zero to something
}

// verdict applies a gate to the two sides' medians and spreads.
func verdict(g gate, a, b samples) string {
	worse := ratio(a, b) - 1
	if g.higherBetter {
		worse = -worse
	}
	switch {
	case g.bound > 0 && max(spread(a), spread(b)) > g.bound:
		return "unresolved"
	case worse > g.bound:
		return "regressed"
	}
	return "ok"
}

// compareFiles prints one row per (workload, end-to-end metric) of the
// base report a against b and returns the process exit code: 1 when any
// row regressed.
func compareFiles(out io.Writer, pathA, pathB string) int {
	a, err := loadReport(pathA)
	if err != nil {
		fatal("%v", err)
	}
	b, err := loadReport(pathB)
	if err != nil {
		fatal("%v", err)
	}
	rows, base := a.series()
	_, next := b.series()
	code := 0
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median\tn\tnew median\tn\tnew/base\tbase spread\tnew spread\tbound\tstatus")
	for _, k := range rows {
		sa, sb := base[k], next[k]
		if len(sb) == 0 {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%d\t-\t0\t-\t-\t-\t-\tmissing\n", k.workload, k.metric, k.unit, median(sa), len(sa))
			code = 1
			continue
		}
		bound, status := "-", "ungated"
		if g, gated := gates[k.metric]; gated {
			bound, status = fmt.Sprintf("%.0f%%", 100*g.bound), verdict(g, sa, sb)
		}
		if status == "regressed" {
			code = 1
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%d\t%.6g\t%d\t%.4f\t%.1f%%\t%.1f%%\t%s\t%s\n",
			k.workload, k.metric, k.unit, median(sa), len(sa), median(sb), len(sb), ratio(sa, sb), 100*spread(sa), 100*spread(sb), bound, status)
	}
	tw.Flush()
	return code
}
