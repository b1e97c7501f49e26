// Command lbtrust-bench regenerates the paper's evaluation. It prints the
// Figure 2 series (execution time vs number of messages for RSA, HMAC and
// Plaintext authentication), the incremental-sync and incremental-
// constraint-check series of the delta-driven runtime, and the ablation
// experiments indexed in DESIGN.md, as plain-text tables.
//
// Usage:
//
//	lbtrust-bench -experiment fig2 -max 10000 -step 1000
//	lbtrust-bench -experiment fig2 -transport tcp -max 2000 -step 500
//	lbtrust-bench -experiment sync,constraints -json -short
//	lbtrust-bench -experiment ablations
//	lbtrust-bench -experiment all
//
// The -experiment flag takes a comma-separated list. The -transport flag
// selects the wire layer of the distribution runtime (mem runs the
// paper's single-host evaluation in-process; tcp ships every tuple over
// loopback sockets); the protocol and results are identical, only time
// and wire cost differ. The -json flag switches the sync and constraints
// experiments to machine-readable output — one JSON array of report
// documents, so CI can archive the perf trajectory across commits
// (experiments without a JSON shape are skipped with a note on stderr);
// -short shrinks the workloads to a smoke test. JSON lands in the file
// named by -out, defaulting to BENCH_<experiment>.json in the current
// directory ("-out -" writes to stdout).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"lbtrust/internal/bench"
	"lbtrust/internal/core"
	"lbtrust/internal/store"
)

func main() {
	experiment := flag.String("experiment", "all", "comma-separated experiments: fig2, sync, constraints, wal, serve, storage, overload, obs, provenance, ablations, all")
	maxMsgs := flag.Int("max", 10000, "fig2: maximum number of messages")
	step := flag.Int("step", 1000, "fig2: message count step")
	transport := flag.String("transport", "mem", "fig2/sync: wire layer, mem or tcp")
	jsonOut := flag.Bool("json", false, "sync/constraints: emit a machine-readable JSON array instead of tables")
	short := flag.Bool("short", false, "sync/constraints: small workloads (CI smoke test)")
	out := flag.String("out", "", `with -json: output file; default BENCH_<experiment>.json, "-" for stdout`)
	flag.Parse()

	kind := bench.TransportKind(*transport)
	if _, err := bench.NewTransport(kind); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var experiments []string
	for _, e := range strings.Split(*experiment, ",") {
		e = strings.TrimSpace(e)
		if e == "" {
			continue
		}
		if e == "all" {
			experiments = append(experiments, "fig2", "sync", "constraints", "ablations")
			continue
		}
		experiments = append(experiments, e)
	}
	reports := []any{} // JSON report documents accumulated in -json mode
	// (initialized non-nil so -json always emits an array, never null)
	for _, e := range experiments {
		switch e {
		case "fig2":
			if *jsonOut {
				fmt.Fprintln(os.Stderr, "fig2 has no JSON shape; skipped in -json mode")
				continue
			}
			runFigure2(kind, *maxMsgs, *step)
		case "sync":
			reports = append(reports, runSync(kind, *jsonOut, *short))
		case "constraints":
			reports = append(reports, runConstraints(*jsonOut, *short))
		case "wal":
			reports = append(reports, runWAL(kind, *jsonOut, *short))
		case "serve":
			reports = append(reports, runServe(*jsonOut, *short))
		case "storage":
			reports = append(reports, runStorage(*jsonOut, *short))
		case "overload":
			reports = append(reports, runOverload(*jsonOut, *short))
		case "obs":
			reports = append(reports, runObs(*jsonOut, *short))
		case "provenance":
			reports = append(reports, runProvenance(*jsonOut, *short))
		case "ablations":
			if *jsonOut {
				fmt.Fprintln(os.Stderr, "ablations have no JSON shape; skipped in -json mode")
				continue
			}
			runAblations()
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", e)
			os.Exit(2)
		}
	}
	if *jsonOut {
		dest := *out
		if dest == "" {
			// Default artifact name: BENCH_<experiment>.json next to the
			// working directory, the convention CI archives (commas become
			// underscores for multi-experiment runs).
			dest = "BENCH_" + strings.ReplaceAll(*experiment, ",", "_") + ".json"
		}
		var w io.Writer = os.Stdout
		if dest != "-" {
			f, err := os.Create(dest)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer func() {
				if err := f.Close(); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			}()
			w = f
			fmt.Fprintf(os.Stderr, "writing JSON reports to %s\n", dest)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// syncReport is the machine-readable shape of the sync experiment, one
// JSON document per run so CI can diff perf across commits.
type syncReport struct {
	Experiment string          `json:"experiment"`
	Transport  string          `json:"transport"`
	Short      bool            `json:"short"`
	Points     []syncPointJSON `json:"points"`
}

type syncPointJSON struct {
	Principals   int   `json:"principals"`
	Base         int   `json:"base"`
	Fresh        int   `json:"fresh"`
	SetupNs      int64 `json:"setup_ns"`
	SetupScanned int64 `json:"setup_scanned"`
	IncrNs       int64 `json:"incr_ns"`
	IncrScanned  int64 `json:"incr_scanned"`
	IncrWireMsgs int64 `json:"incr_wire_messages"`
	IncrWireB    int64 `json:"incr_wire_bytes"`
}

// runSync measures the delta-driven pump: a chain workload per base size,
// reporting the setup shipment next to an incremental Sync carrying a
// handful of fresh tuples. With the delta pump, incr_scanned tracks
// fresh x hops regardless of base. It returns the JSON report document.
func runSync(kind bench.TransportKind, jsonOut, short bool) any {
	bases := []int{1000, 5000, 10000}
	const principals, fresh = 3, 5
	if short {
		bases = []int{100, 200}
	}
	report := syncReport{Experiment: "sync", Transport: string(kind), Short: short}
	for _, base := range bases {
		r, err := bench.RunIncrementalSync(kind, principals, base, fresh)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sync (base=%d): %v\n", base, err)
			os.Exit(1)
		}
		report.Points = append(report.Points, syncPointJSON{
			Principals:   r.Principals,
			Base:         r.Base,
			Fresh:        r.Fresh,
			SetupNs:      r.Setup.Duration.Nanoseconds(),
			SetupScanned: r.Setup.Scanned,
			IncrNs:       r.Incr.Duration.Nanoseconds(),
			IncrScanned:  r.Incr.Scanned,
			IncrWireMsgs: r.Incr.WireMessages,
			IncrWireB:    r.Incr.WireBytes,
		})
	}
	if jsonOut {
		return report
	}
	fmt.Printf("== Incremental sync: delta-driven pump (transport=%s, chain=%d, fresh=%d) ==\n", kind, principals, fresh)
	fmt.Println("(pump work — tuples scanned — must track fresh tuples, not base size)")
	fmt.Println()
	fmt.Printf("%10s %12s %14s %12s %14s %12s\n", "base", "setup(s)", "setup-scanned", "incr(ms)", "incr-scanned", "incr-wire(B)")
	for _, p := range report.Points {
		fmt.Printf("%10d %12.4f %14d %12.2f %14d %12d\n", p.Base,
			float64(p.SetupNs)/1e9, p.SetupScanned, float64(p.IncrNs)/1e6, p.IncrScanned, p.IncrWireB)
	}
	fmt.Println()
	return report
}

// constraintsReport is the machine-readable shape of the constraints
// experiment: per base size, the average per-flush check cost.
type constraintsReport struct {
	Experiment string                 `json:"experiment"`
	Short      bool                   `json:"short"`
	Flushes    int                    `json:"flushes"`
	Points     []constraintsPointJSON `json:"points"`
}

type constraintsPointJSON struct {
	Base           int   `json:"base"`
	IncrPerFlushNs int64 `json:"incr_per_flush_ns"`
	IncrChecks     int64 `json:"incr_checks_incremental"`
}

// runConstraints measures flush-time constraint checking: the delta-seeded
// check must be flat across base sizes. It returns the JSON report
// document.
func runConstraints(jsonOut, short bool) any {
	bases := []int{1000, 5000, 10000}
	flushes := 50
	if short {
		bases = []int{100, 200}
		flushes = 10
	}
	report := constraintsReport{Experiment: "constraints", Short: short, Flushes: flushes}
	for _, base := range bases {
		incr, err := bench.RunIncrementalConstraints(base, flushes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "constraints (base=%d): %v\n", base, err)
			os.Exit(1)
		}
		report.Points = append(report.Points, constraintsPointJSON{
			Base:           base,
			IncrPerFlushNs: incr.PerFlush.Nanoseconds(),
			IncrChecks:     incr.Checks.Incremental,
		})
	}
	if jsonOut {
		return report
	}
	fmt.Printf("== Incremental constraint checking (flushes=%d, 1 fresh fact each) ==\n", flushes)
	fmt.Println("(per-flush check cost: delta-seeded, must stay flat in base)")
	fmt.Println()
	fmt.Printf("%10s %16s\n", "base", "incr/flush(us)")
	for _, p := range report.Points {
		fmt.Printf("%10d %16.1f\n", p.Base, float64(p.IncrPerFlushNs)/1e3)
	}
	fmt.Println()
	return report
}

// walReport is the machine-readable shape of the wal experiment: the
// write-ahead log's overhead on the incremental-sync hot path, and
// recovery times from log replay and from a fresh snapshot.
type walReport struct {
	Experiment string            `json:"experiment"`
	Short      bool              `json:"short"`
	Overhead   []walOverheadJSON `json:"overhead"`
	Recovery   []walRecoveryJSON `json:"recovery"`
}

type walOverheadJSON struct {
	Base        int     `json:"base"`
	Fresh       int     `json:"fresh"`
	Rounds      int     `json:"rounds"`
	Fsync       string  `json:"fsync"`
	OffNs       int64   `json:"off_ns"`
	OnNs        int64   `json:"on_ns"`
	OverheadPct float64 `json:"overhead_pct"`
	WALBytes    int64   `json:"wal_bytes"`
}

type walRecoveryJSON struct {
	Base          int   `json:"base_messages"`
	Tuples        int   `json:"tuples"`
	WALBytes      int64 `json:"wal_bytes"`
	WALRecoverNs  int64 `json:"wal_recover_ns"`
	CheckpointNs  int64 `json:"checkpoint_ns"`
	SnapshotBytes int64 `json:"snapshot_bytes"`
	SnapRecoverNs int64 `json:"snap_recover_ns"`
}

// runWAL measures durability: the log's cost on the incremental-sync hot
// path (interval fsync, expected close to zero against the machine's
// noise floor) and recovery time from log replay vs a fresh snapshot.
func runWAL(kind bench.TransportKind, jsonOut, short bool) any {
	bases := []int{1000, 10000}
	recBases := []int{350, 1000, 2000}
	rounds := 200
	if short {
		bases = []int{200}
		recBases = []int{100}
		rounds = 30
	}
	report := walReport{Experiment: "wal", Short: short}
	for _, base := range bases {
		r, err := bench.RunWALOverhead(kind, 3, base, 1, rounds, store.FsyncInterval)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wal overhead (base=%d): %v\n", base, err)
			os.Exit(1)
		}
		report.Overhead = append(report.Overhead, walOverheadJSON{
			Base: r.Base, Fresh: r.Fresh, Rounds: r.Rounds, Fsync: r.Fsync,
			OffNs: r.OffNs, OnNs: r.OnNs, OverheadPct: r.OverheadPct, WALBytes: r.WALBytes,
		})
	}
	for _, base := range recBases {
		r, err := bench.RunRecovery(base)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wal recovery (base=%d): %v\n", base, err)
			os.Exit(1)
		}
		report.Recovery = append(report.Recovery, walRecoveryJSON{
			Base: r.Base, Tuples: r.Tuples, WALBytes: r.WALBytes,
			WALRecoverNs: r.WALRecoverNs, CheckpointNs: r.CheckpointNs,
			SnapshotBytes: r.SnapshotBytes, SnapRecoverNs: r.SnapRecoverNs,
		})
	}
	if jsonOut {
		return report
	}
	fmt.Printf("== WAL overhead on incremental sync (transport=%s, fresh=1, interval fsync) ==\n", kind)
	fmt.Printf("%10s %12s %12s %12s %12s\n", "base", "off(us)", "on(us)", "overhead", "wal(B)")
	for _, p := range report.Overhead {
		fmt.Printf("%10d %12.1f %12.1f %11.1f%% %12d\n", p.Base,
			float64(p.OffNs)/1e3, float64(p.OnNs)/1e3, p.OverheadPct, p.WALBytes)
	}
	fmt.Println()
	fmt.Println("== Recovery time: 3-node system, log replay vs fresh snapshot ==")
	fmt.Printf("%10s %10s %12s %14s %12s %14s %14s\n", "messages", "tuples", "wal(B)", "wal-rec(ms)", "ckpt(ms)", "snap(B)", "snap-rec(ms)")
	for _, p := range report.Recovery {
		fmt.Printf("%10d %10d %12d %14.1f %12.1f %14d %14.1f\n", p.Base, p.Tuples, p.WALBytes,
			float64(p.WALRecoverNs)/1e6, float64(p.CheckpointNs)/1e6, p.SnapshotBytes, float64(p.SnapRecoverNs)/1e6)
	}
	fmt.Println()
	return report
}

// serveReport is the machine-readable shape of the serve experiment:
// queries/sec against a loaded workspace at increasing concurrency
// (snapshot reads, no writer), plus the same reads under a signing
// writer.
type serveReport struct {
	Experiment string                `json:"experiment"`
	Short      bool                  `json:"short"`
	Base       int                   `json:"base"`
	PerClient  int                   `json:"per_client"`
	NumCPU     int                   `json:"num_cpu"`
	ScalingX   float64               `json:"scaling_x"` // top-concurrency QPS / 1-client QPS
	Scaling    []servePointJSON      `json:"scaling"`
	Contention []serveContentionJSON `json:"contention"`
}

type servePointJSON struct {
	Clients int     `json:"clients"`
	Queries int64   `json:"queries"`
	QPS     float64 `json:"qps"`
	P50Ns   int64   `json:"p50_ns"`
	P99Ns   int64   `json:"p99_ns"`
}

// serveContentionJSON keeps the array-with-mode shape of the uploaded
// artifact from when a second read path was measured beside this one;
// mode is always "snapshot".
type serveContentionJSON struct {
	Mode          string  `json:"mode"`
	Clients       int     `json:"clients"`
	WriterFlushes int64   `json:"writer_flushes"`
	QPS           float64 `json:"qps"`
	P50Ns         int64   `json:"p50_ns"`
	P99Ns         int64   `json:"p99_ns"`
}

// runServe measures the serving layer: read scaling across 1/4/16
// concurrent authenticated sessions, and tail latency with a writer
// committing signed says batches. It returns the JSON report document.
func runServe(jsonOut, short bool) any {
	opts := bench.ServeOptions{Base: 10000, PerClient: 500, Clients: []int{1, 4, 16}, Contention: true}
	if short {
		opts = bench.ServeOptions{Base: 1000, PerClient: 100, Clients: []int{1, 4, 16}, Contention: true}
	}
	r, err := bench.RunServe(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(1)
	}
	report := serveReport{
		Experiment: "serve", Short: short, Base: r.Base, PerClient: r.PerClient,
		NumCPU: runtime.NumCPU(), ScalingX: r.ScalingX,
	}
	for _, p := range r.Scaling {
		report.Scaling = append(report.Scaling, servePointJSON{
			Clients: p.Clients, Queries: p.Queries, QPS: p.QPS,
			P50Ns: p.P50.Nanoseconds(), P99Ns: p.P99.Nanoseconds(),
		})
	}
	if c := r.Contention; c != nil {
		report.Contention = []serveContentionJSON{{
			Mode: "snapshot", Clients: c.Clients, WriterFlushes: c.WriterFlushes,
			QPS: c.QPS, P50Ns: c.P50.Nanoseconds(), P99Ns: c.P99.Nanoseconds(),
		}}
	}
	if jsonOut {
		return report
	}
	fmt.Printf("== Serve throughput: snapshot reads, %d-fact workspace (GOMAXPROCS=%d) ==\n", r.Base, runtime.NumCPU())
	fmt.Printf("%10s %10s %12s %12s %12s\n", "clients", "queries", "qps", "p50(us)", "p99(us)")
	for _, p := range report.Scaling {
		fmt.Printf("%10d %10d %12.0f %12.1f %12.1f\n", p.Clients, p.Queries, p.QPS,
			float64(p.P50Ns)/1e3, float64(p.P99Ns)/1e3)
	}
	fmt.Printf("\nread scaling (top concurrency vs 1 client): %.2fx\n\n", r.ScalingX)
	if len(report.Contention) > 0 {
		fmt.Println("== Contention: reads while a writer commits RSA-signed says batches ==")
		fmt.Printf("%10s %10s %12s %12s %12s %10s\n", "mode", "clients", "qps", "p50(us)", "p99(us)", "flushes")
		for _, c := range report.Contention {
			fmt.Printf("%10s %10d %12.0f %12.1f %12.1f %10d\n", c.Mode, c.Clients, c.QPS,
				float64(c.P50Ns)/1e3, float64(c.P99Ns)/1e3, c.WriterFlushes)
		}
		fmt.Println()
	}
	return report
}

// storageReport is the machine-readable shape of the storage experiment:
// per base size, bytes retained per tuple and snapshot republication
// cost, plus the workspace-level hot-writer A/B across base sizes.
type storageReport struct {
	Experiment string                 `json:"experiment"`
	Short      bool                   `json:"short"`
	Dirty      int                    `json:"dirty_per_round"`
	Rounds     int                    `json:"rounds"`
	Points     []storagePointJSON     `json:"points"`
	HotWriter  []storageHotWriterJSON `json:"hot_writer"`
}

type storagePointJSON struct {
	Base          int     `json:"base"`
	BytesPerTuple float64 `json:"bytes_per_tuple"`
	GCNs          int64   `json:"gc_ns"`
	ColdPublishNs int64   `json:"cold_publish_ns"`
	RepublishNs   int64   `json:"republish_ns"`
	DirtyChunks   float64 `json:"dirty_chunks"`
	Chunks        int     `json:"chunks"`
}

type storageHotWriterJSON struct {
	Base       int   `json:"base"`
	Writes     int   `json:"writes_per_round"`
	PerRoundNs int64 `json:"per_round_ns"`
	SnapshotNs int64 `json:"snapshot_ns"`
}

// runStorage measures the storage engine: retention and snapshot
// republication must be flat in base size (the republication cost tracks
// dirty chunks), and bytes/tuple must stay far below the old
// map-of-strings design's per-row key strings. It returns the JSON
// report document.
func runStorage(jsonOut, short bool) any {
	bases := []int{1000, 10000, 100000}
	dirty, rounds := 64, 50
	if short {
		bases = []int{1000, 10000}
		rounds = 10
	}
	r, err := bench.RunStorage(bases, dirty, rounds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "storage: %v\n", err)
		os.Exit(1)
	}
	report := storageReport{Experiment: "storage", Short: short, Dirty: dirty, Rounds: rounds}
	for _, p := range r.Points {
		report.Points = append(report.Points, storagePointJSON{
			Base: p.Base, BytesPerTuple: p.BytesPerTuple, GCNs: p.GCNs,
			ColdPublishNs: p.ColdPublishNs, RepublishNs: p.RepublishNs,
			DirtyChunks: p.DirtyChunks, Chunks: p.Chunks,
		})
	}
	for _, h := range r.Hot {
		report.HotWriter = append(report.HotWriter, storageHotWriterJSON{
			Base: h.Base, Writes: h.Writes, PerRoundNs: h.PerRoundNs, SnapshotNs: h.SnapshotNs,
		})
	}
	if jsonOut {
		return report
	}
	fmt.Printf("== Storage engine: retention + snapshot republication (dirty=%d/round, rounds=%d) ==\n", dirty, rounds)
	fmt.Println("(bytes/tuple excludes the shared tuple values; republication must be flat in base)")
	fmt.Println()
	fmt.Printf("%10s %12s %10s %14s %14s %12s %8s\n", "base", "bytes/tuple", "gc(ms)", "cold-pub(us)", "repub(us)", "dirty-chunks", "chunks")
	for _, p := range report.Points {
		fmt.Printf("%10d %12.1f %10.2f %14.1f %14.1f %12.1f %8d\n", p.Base, p.BytesPerTuple,
			float64(p.GCNs)/1e6, float64(p.ColdPublishNs)/1e3, float64(p.RepublishNs)/1e3, p.DirtyChunks, p.Chunks)
	}
	fmt.Println()
	fmt.Printf("== Hot writer: %d facts committed + Snapshot() republished per round ==\n", dirty)
	fmt.Printf("%10s %16s %16s\n", "base", "per-round(us)", "snapshot(us)")
	for _, h := range report.HotWriter {
		fmt.Printf("%10d %16.1f %16.1f\n", h.Base, float64(h.PerRoundNs)/1e3, float64(h.SnapshotNs)/1e3)
	}
	fmt.Println()
	return report
}

// overloadReport is the machine-readable shape of the overload
// experiment: a budgeted, admission-controlled server under a hostile
// mix, reporting how many requests were served vs killed by a budget vs
// refused at admission, and what the storm did to control-read tails.
type overloadReport struct {
	Experiment string  `json:"experiment"`
	Short      bool    `json:"short"`
	Base       int     `json:"base"`
	DurationNs int64   `json:"duration_ns"`
	Served     int64   `json:"served"`
	Tripped    int64   `json:"tripped"`
	Refused    int64   `json:"refused"`
	Auths      int64   `json:"auths"`
	P50Ns      int64   `json:"control_p50_ns"`
	P99Ns      int64   `json:"control_p99_ns"`
	SrvTripped int64   `json:"server_limit_tripped"`
	SrvRefused int64   `json:"server_overloaded"`
	ServedQPS  float64 `json:"served_qps"`
}

// runOverload storms a budgeted server with mixed read/write/adversarial
// load and reports tripped-vs-served counts with control-read latency.
func runOverload(jsonOut, short bool) any {
	opts := bench.OverloadOptions{Base: 10000, Duration: 3 * time.Second}
	if short {
		opts = bench.OverloadOptions{Base: 2000, Duration: time.Second}
	}
	r, err := bench.RunOverload(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "overload: %v\n", err)
		os.Exit(1)
	}
	report := overloadReport{
		Experiment: "overload", Short: short, Base: r.Base,
		DurationNs: r.Duration.Nanoseconds(),
		Served:     r.Served, Tripped: r.Tripped, Refused: r.Refused, Auths: r.Auths,
		P50Ns: r.P50.Nanoseconds(), P99Ns: r.P99.Nanoseconds(),
		SrvTripped: r.Stats.LimitTripped, SrvRefused: r.Stats.Overloaded,
		ServedQPS: float64(r.Served) / r.Duration.Seconds(),
	}
	if jsonOut {
		return report
	}
	fmt.Printf("== Overload: budgeted server under a hostile mix (%d-fact base, %.1fs) ==\n",
		r.Base, r.Duration.Seconds())
	fmt.Println("(every adversarial request must die with a typed LB-LIMIT-* error;")
	fmt.Println(" control reads keep completing through the storm)")
	fmt.Println()
	fmt.Printf("%12s %12s %12s %10s %14s %12s %12s\n",
		"served", "tripped", "refused", "auths", "served-qps", "p50(us)", "p99(us)")
	fmt.Printf("%12d %12d %12d %10d %14.0f %12.1f %12.1f\n",
		report.Served, report.Tripped, report.Refused, report.Auths, report.ServedQPS,
		float64(report.P50Ns)/1e3, float64(report.P99Ns)/1e3)
	fmt.Printf("\nserver counters: limit_tripped=%d overloaded=%d\n\n",
		report.SrvTripped, report.SrvRefused)
	return report
}

// obsReport is the machine-readable shape of the observability-overhead
// experiment: the same serve workload with instrumentation off vs on,
// so CI can alert when telemetry cost drifts past the <5% budget.
type obsReport struct {
	Experiment string `json:"experiment"`
	Short      bool   `json:"short"`
	Base       int    `json:"base"`
	PerClient  int    `json:"per_client"`
	Clients    int    `json:"clients"`
	Rounds     int    `json:"rounds"`

	NilQPS         []float64 `json:"nil_qps"`
	NilMedianQPS   float64   `json:"nil_median_qps"`
	ObsQPS         []float64 `json:"instrumented_qps"`
	ObsMedianQPS   float64   `json:"instrumented_median_qps"`
	NilP50Ns       int64     `json:"nil_p50_ns"`
	NilP99Ns       int64     `json:"nil_p99_ns"`
	ObsP50Ns       int64     `json:"instrumented_p50_ns"`
	ObsP99Ns       int64     `json:"instrumented_p99_ns"`
	OverheadPct    float64   `json:"overhead_pct"`
	OverheadBudget float64   `json:"overhead_budget_pct"`
}

func runObs(jsonOut, short bool) any {
	opts := bench.ObsOptions{Base: 10000, PerClient: 1000, Clients: 4, Rounds: 7}
	if short {
		opts = bench.ObsOptions{Base: 1000, PerClient: 500, Clients: 4, Rounds: 7}
	}
	r, err := bench.RunObs(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "obs: %v\n", err)
		os.Exit(1)
	}
	report := obsReport{
		Experiment: "obs", Short: short,
		Base: r.Base, PerClient: r.PerClient, Clients: r.Clients, Rounds: r.Rounds,
		NilQPS: r.Nil.QPS, NilMedianQPS: r.Nil.MedianQPS,
		ObsQPS: r.Obs.QPS, ObsMedianQPS: r.Obs.MedianQPS,
		NilP50Ns: r.Nil.P50.Nanoseconds(), NilP99Ns: r.Nil.P99.Nanoseconds(),
		ObsP50Ns: r.Obs.P50.Nanoseconds(), ObsP99Ns: r.Obs.P99.Nanoseconds(),
		OverheadPct: r.OverheadPct, OverheadBudget: 5,
	}
	if jsonOut {
		return report
	}
	fmt.Printf("== Observability overhead: serve workload, instrumentation off vs on ==\n")
	fmt.Printf("(%d-fact workspace, %d clients x %d queries, %d rounds per arm)\n\n",
		r.Base, r.Clients, r.PerClient, r.Rounds)
	fmt.Printf("%14s %14s %12s %12s\n", "mode", "median-qps", "p50(us)", "p99(us)")
	fmt.Printf("%14s %14.0f %12.1f %12.1f\n", "nil", report.NilMedianQPS,
		float64(report.NilP50Ns)/1e3, float64(report.NilP99Ns)/1e3)
	fmt.Printf("%14s %14.0f %12.1f %12.1f\n", "instrumented", report.ObsMedianQPS,
		float64(report.ObsP50Ns)/1e3, float64(report.ObsP99Ns)/1e3)
	fmt.Printf("\noverhead: %.2f%% of median throughput (budget: <%.0f%%)\n\n",
		report.OverheadPct, report.OverheadBudget)
	return report
}

// provenanceReport is the machine-readable shape of the
// provenance-overhead experiment: the sync-heavy serve workload with
// derivation capture off (twice, bounding the noise floor) vs on, so CI
// can alert when capture cost drifts past the <10% budget.
type provenanceReport struct {
	Experiment string `json:"experiment"`
	Short      bool   `json:"short"`
	Base       int    `json:"base"`
	PerClient  int    `json:"per_client"`
	Clients    int    `json:"clients"`
	Rounds     int    `json:"rounds"`

	OffAQPS        []float64 `json:"off_a_qps"`
	OffAMedianQPS  float64   `json:"off_a_median_qps"`
	OffBQPS        []float64 `json:"off_b_qps"`
	OffBMedianQPS  float64   `json:"off_b_median_qps"`
	OnQPS          []float64 `json:"on_qps"`
	OnMedianQPS    float64   `json:"on_median_qps"`
	OffAP50Ns      int64     `json:"off_a_p50_ns"`
	OffAP99Ns      int64     `json:"off_a_p99_ns"`
	OnP50Ns        int64     `json:"on_p50_ns"`
	OnP99Ns        int64     `json:"on_p99_ns"`
	NoisePct       float64   `json:"noise_pct"`
	OverheadPct    float64   `json:"overhead_pct"`
	OverheadBudget float64   `json:"overhead_budget_pct"`
	RecordedFacts  int       `json:"recorded_facts"`
	RecordedBytes  int64     `json:"recorded_bytes"`
	Dropped        int64     `json:"dropped"`
}

func runProvenance(jsonOut, short bool) any {
	opts := bench.ProvenanceOptions{Base: 10000, PerClient: 1000, Clients: 4, Rounds: 5, Window: 2 * time.Second}
	if short {
		opts = bench.ProvenanceOptions{Base: 1000, PerClient: 500, Clients: 4, Rounds: 3, Window: time.Second}
	}
	r, err := bench.RunProvenance(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "provenance: %v\n", err)
		os.Exit(1)
	}
	report := provenanceReport{
		Experiment: "provenance", Short: short,
		Base: r.Base, PerClient: r.PerClient, Clients: r.Clients, Rounds: r.Rounds,
		OffAQPS: r.OffA.QPS, OffAMedianQPS: r.OffA.MedianQPS,
		OffBQPS: r.OffB.QPS, OffBMedianQPS: r.OffB.MedianQPS,
		OnQPS: r.On.QPS, OnMedianQPS: r.On.MedianQPS,
		OffAP50Ns: r.OffA.P50.Nanoseconds(), OffAP99Ns: r.OffA.P99.Nanoseconds(),
		OnP50Ns: r.On.P50.Nanoseconds(), OnP99Ns: r.On.P99.Nanoseconds(),
		NoisePct: r.NoisePct, OverheadPct: r.OverheadPct, OverheadBudget: 10,
		RecordedFacts: r.RecordedFacts, RecordedBytes: r.RecordedBytes, Dropped: r.Dropped,
	}
	if jsonOut {
		return report
	}
	fmt.Printf("== Provenance overhead: sync-heavy serve workload, capture off vs on ==\n")
	fmt.Printf("(%d-fact workspace, %d clients, %d rounds per arm, continuous says+sync writer)\n\n",
		r.Base, r.Clients, r.Rounds)
	fmt.Printf("%10s %14s %12s %12s\n", "mode", "median-qps", "p50(us)", "p99(us)")
	fmt.Printf("%10s %14.0f %12.1f %12.1f\n", "off-a", report.OffAMedianQPS,
		float64(report.OffAP50Ns)/1e3, float64(report.OffAP99Ns)/1e3)
	fmt.Printf("%10s %14.0f %12s %12s\n", "off-b", report.OffBMedianQPS, "-", "-")
	fmt.Printf("%10s %14.0f %12.1f %12.1f\n", "on", report.OnMedianQPS,
		float64(report.OnP50Ns)/1e3, float64(report.OnP99Ns)/1e3)
	fmt.Printf("\nnoise floor (off vs off): %.2f%%   capture overhead: %.2f%% (budget: <%.0f%%)\n",
		report.NoisePct, report.OverheadPct, report.OverheadBudget)
	fmt.Printf("captured: %d facts, %d bytes, %d dropped by cap\n\n",
		report.RecordedFacts, report.RecordedBytes, report.Dropped)
	return report
}

func runFigure2(kind bench.TransportKind, maxMsgs, step int) {
	fmt.Printf("== Figure 2: Execution Time over Number of Messages (transport=%s) ==\n", kind)
	fmt.Println("(paper: Section 6; two principals exchange authenticated facts;")
	fmt.Println(" expected shape: linear; RSA >> HMAC >= Plaintext)")
	fmt.Println()
	var counts []int
	for n := 0; n <= maxMsgs; n += step {
		if n == 0 {
			counts = append(counts, 1) // zero-message runs carry no signal
			continue
		}
		counts = append(counts, n)
	}
	schemes := []core.Scheme{core.SchemePlaintext, core.SchemeHMAC, core.SchemeRSA}
	results := map[core.Scheme]*bench.Figure2Series{}
	for _, sc := range schemes {
		s, err := bench.RunFigure2On(kind, sc, counts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure 2 (%s): %v\n", sc, err)
			os.Exit(1)
		}
		results[sc] = s
	}
	fmt.Printf("%12s %14s %14s %14s\n", "messages", "plaintext(s)", "hmac(s)", "rsa(s)")
	for i, n := range counts {
		fmt.Printf("%12d %14.4f %14.4f %14.4f\n", n,
			results[core.SchemePlaintext].Points[i].Duration.Seconds(),
			results[core.SchemeHMAC].Points[i].Duration.Seconds(),
			results[core.SchemeRSA].Points[i].Duration.Seconds())
	}
	last := len(counts) - 1
	fmt.Println()
	fmt.Printf("slope check at %d messages: rsa/plaintext = %.1fx, rsa/hmac = %.1fx, hmac/plaintext = %.2fx\n",
		counts[last],
		ratio(results[core.SchemeRSA].Points[last].Duration.Seconds(), results[core.SchemePlaintext].Points[last].Duration.Seconds()),
		ratio(results[core.SchemeRSA].Points[last].Duration.Seconds(), results[core.SchemeHMAC].Points[last].Duration.Seconds()),
		ratio(results[core.SchemeHMAC].Points[last].Duration.Seconds(), results[core.SchemePlaintext].Points[last].Duration.Seconds()))
	fmt.Println()

	fmt.Println("wire cost (encoded envelope bytes sent, per scheme):")
	fmt.Printf("%12s %14s %14s %14s\n", "messages", "plaintext(B)", "hmac(B)", "rsa(B)")
	for i, n := range counts {
		fmt.Printf("%12d %14d %14d %14d\n", n,
			results[core.SchemePlaintext].Points[i].WireBytes,
			results[core.SchemeHMAC].Points[i].WireBytes,
			results[core.SchemeRSA].Points[i].WireBytes)
	}
	fmt.Println()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func runAblations() {
	fmt.Println("== Ablation A1: semi-naive fixpoint (transitive closure) ==")
	fmt.Printf("%10s %14s %10s\n", "chain", "seminaive(s)", "paths")
	for _, n := range []int{50, 100, 200} {
		semi, paths, err := bench.RunTC(n)
		check(err)
		fmt.Printf("%10d %14.4f %10d\n", n, semi.Seconds(), paths)
	}
	fmt.Println()

	fmt.Println("== Ablation A2: incremental insertion vs full recomputation ==")
	fmt.Printf("%10s %10s %16s %14s\n", "base", "inserts", "incremental(s)", "recompute(s)")
	for _, in := range []int{10, 20, 40} {
		inc, err := bench.RunIncremental(200, in, true)
		check(err)
		full, err := bench.RunIncremental(200, in, false)
		check(err)
		fmt.Printf("%10d %10d %16.4f %14.4f\n", 200, in, inc.Seconds(), full.Seconds())
	}
	fmt.Println()

	fmt.Println("== Ablation A3: meta-constraint checking overhead (rule loads) ==")
	fmt.Printf("%10s %14s %12s\n", "rules", "without(s)", "with(s)")
	for _, n := range []int{50, 100, 200} {
		without, err := bench.RunMetaConstraintLoad(n, false)
		check(err)
		with, err := bench.RunMetaConstraintLoad(n, true)
		check(err)
		fmt.Printf("%10d %14.4f %12.4f\n", n, without.Seconds(), with.Seconds())
	}
	fmt.Println()

	fmt.Println("== Ablation A5: magic sets vs full bottom-up (goal-directed query) ==")
	fmt.Printf("%10s %12s %10s %10s\n", "chain", "magic(s)", "full(s)", "answers")
	for _, n := range []int{100, 200, 400} {
		magic, answers, err := bench.RunGoalDirected(n, true)
		check(err)
		full, _, err := bench.RunGoalDirected(n, false)
		check(err)
		fmt.Printf("%10d %12.4f %10.4f %10d\n", n, magic.Seconds(), full.Seconds(), answers)
	}
	fmt.Println()

	fmt.Println("== Ablation A6: SeNDlog authenticated reachability (ring) ==")
	fmt.Printf("%10s %14s %12s\n", "nodes", "plaintext(s)", "hmac(s)")
	for _, n := range []int{4, 6, 8} {
		plain, err := bench.RunSeNDlogReachability(n, core.SchemePlaintext)
		check(err)
		hmac, err := bench.RunSeNDlogReachability(n, core.SchemeHMAC)
		check(err)
		fmt.Printf("%10d %14.4f %12.4f\n", n, plain.Seconds(), hmac.Seconds())
	}
	fmt.Println()
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
