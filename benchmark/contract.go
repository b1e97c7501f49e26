package main

// The driver's contract (BENCHMARK.json) wants every workload to report
// every declared metric, so the contract's end-to-end metrics are generic
// slots that each workload fills with its own named metric:
//
//	primary_us        the workload's primary operation, median, in us
//	secondary_us      its second operation, median, in us
//	throughput_per_s  primary operations completed per second of measured wall
//	live_heap_mb      heap in use after a forced GC at the end of the phase
//	setup_s           median set-up time
//
// workloadDef.primary/secondary/throughput name what fills each slot; the
// full report and -compare use the workload's own metric names.

// perLayerUnits declares every per-layer metric a traced run can emit. A
// layer that takes no part in a workload reports 0 on the contract line
// and is left out of the full report.
var perLayerUnits = map[string]string{
	"datalog.parse_us":              "us",
	"meta.reify_us":                 "us",
	"workspace.flush_us":            "us",
	"datalog.gas_per_msg":           "count",
	"datalog.derived_per_msg":       "count",
	"workspace.checks_incremental":  "count",
	"workspace.checks_full":         "count",
	"workspace.checks_skipped":      "count",
	"lbcrypto.sign_us":              "us",
	"lbcrypto.verify_us":            "us",
	"lbcrypto.hmac_sign_us":         "us",
	"lbcrypto.hmac_verify_us":       "us",
	"core.say_us":                   "us",
	"dist.sync_us":                  "us",
	"dist.scanned_per_msg":          "count",
	"dist.envelopes_per_round":      "count",
	"dist.rejected":                 "count",
	"dist.codec_us":                 "us",
	"datalog.serial_us":             "us",
	"dist.transport_us":             "us",
	"workspace.snapshot_query_us":   "us",
	"workspace.snapshot_publish_us": "us",
	"server.overhead_us":            "us",
	"server.sync_p50_us":            "us",
	"server.queries":                "count",
	"server.writes":                 "count",
	"server.refused":                "count",
	"server.limit_tripped":          "count",
	"server.overloaded":             "count",
	"store.wal_us_per_write":        "us",
	"store.wal_bytes_per_write":     "B",
	"store.replay_us_per_tuple":     "us",
	"core.swap_to_hmac_ms":          "ms",
	"core.swap_to_rsa_ms":           "ms",
	"reconfig.stale_at_receiver":    "count",
	"runtime.allocs_per_op":         "count",
	"runtime.bytes_per_op":          "B",
	"runtime.gc_pause_ms":           "ms",
	"query_p99_us":                  "us",
	"write_p99_us":                  "us",
	"unattributed_share":            "ratio",
	"trace_overhead_pct":            "%",
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractResult is the JSON object the driver reads from the last line
// of standard output.
type contractResult struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

func contractLine(w *workloadDef, rep *WorkloadReport) contractResult {
	res := contractResult{Correct: rep.Correct, Attempted: max(rep.Attempted, 1), Failed: rep.Failed, Metrics: map[string]contractValue{}}
	if rep.Traced {
		for name, unit := range perLayerUnits {
			m, _ := rep.find(name)
			res.Metrics[name] = contractValue{Value: m.Value, Unit: unit}
		}
		return res
	}
	slot := func(name, unit, from string) {
		m, _ := rep.find(from)
		v := m.Value
		if unit == "us" {
			v = inMicros(m)
		}
		res.Metrics[name] = contractValue{Value: v, Unit: unit}
	}
	slot("primary_us", "us", w.primary)
	slot("secondary_us", "us", w.secondary)
	slot("throughput_per_s", "1/s", w.throughput)
	slot("live_heap_mb", "MB", "live_heap_mb")
	slot("setup_s", "s", "setup_s")
	return res
}
