package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"lbtrust/internal/core"
)

// Sizes fixes how much work a workload does. Every measured phase is
// work-fixed: the same seed, scale and -seconds give the same rounds and
// requests on both sides of a comparison. Fields a workload does not use
// stay zero and are omitted from the report.
type Sizes struct {
	Rounds      int `json:"rounds,omitempty"`       // fig2: measured SayAll+Sync rounds
	Batch       int `json:"batch,omitempty"`        // fig2: statements per round
	Warmup      int `json:"warmup,omitempty"`       // discarded rounds / requests per client
	RecvQueries int `json:"recv_queries,omitempty"` // fig2: receiver point queries per round
	BaseFacts   int `json:"base_facts,omitempty"`   // serve: perm facts loaded
	Clients     int `json:"clients,omitempty"`      // serve: client sessions (1 caller when 0)
	Requests    int `json:"requests,omitempty"`     // serve.read: requests per client
	Writes      int `json:"writes,omitempty"`       // serve.mixed: say requests
	SyncEvery   int `json:"sync_every,omitempty"`   // serve.mixed: says per sync request
	Reopens     int `json:"reopens,omitempty"`      // serve.mixed: timed recoveries
	Delivered   int `json:"delivered,omitempty"`    // reconfig: statements delivered in set-up
	Retractions int `json:"retractions,omitempty"`  // reconfig: measured retractions
	SwapCycles  int `json:"swap_cycles,omitempty"`  // reconfig: RSA->HMAC->RSA cycles
	SetupReps   int `json:"setup_reps"`             // set-ups per run (setup_s is their median)
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds int    // nominal measured seconds; round counts scale with seconds/10
	scale   string // "full" or "tiny"
	outDir  string
}

// scaled multiplies a full-scale count by seconds/10, keeping at least min.
func (c config) scaled(n, min int) int {
	v := n * c.seconds / 10
	if v < min {
		v = min
	}
	return v
}

// objects is the number of distinct objects in the served perm relation:
// perm(uI, o(I mod objects), read), so a scan of one object returns
// BaseFacts/objects rows (103 or 104 at full scale).
const objects = 97

// workloadDef describes one named workload.
type workloadDef struct {
	name  string
	why   string
	loop  string // load shape
	sizes func(config) Sizes
	setup func(e *env) (instance, error)
	// primary and secondary name the end-to-end metrics this workload
	// reports under the contract's generic names (see contract.go).
	primary, secondary, throughput string
	// attribution is the time the layer probes account for, in
	// microseconds per operation of the end-to-end metric attributed
	// (see README, "unattributed_share").
	attributed  string
	attribution func(layer map[string]float64, s Sizes) float64
}

// instance is one set-up system ready to be measured.
type instance interface {
	// measure runs the work-fixed measured phase and its oracles.
	measure(tr *tracer) *phase
	// probe replays the workload's own inputs through single layers.
	probe(tr *tracer, ph *phase)
	close()
}

// env is what a set-up works from: the run's settings, the workload's
// sizes and its seeded generator.
type env struct {
	cfg config
	sz  Sizes
	rng *rand.Rand
}

// phase is what one measured phase produced.
type phase struct {
	e2e       []Metric
	layer     []Metric
	attempted int64
	failed    int64
	failures  []string // first few failure descriptions
}

func (p *phase) fail(n int64, format string, args ...any) {
	p.failed += n
	if len(p.failures) < 8 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

func (p *phase) metric(name string) (Metric, bool) { return findMetric(name, p.e2e, p.layer) }

func fig2Sizes(rounds, batch int) func(config) Sizes {
	return func(c config) Sizes {
		if c.scale == "tiny" {
			return Sizes{Rounds: 4, Batch: 20, Warmup: 1, RecvQueries: 5, SetupReps: 1}
		}
		return Sizes{Rounds: c.scaled(rounds, 12), Batch: batch, Warmup: 3, RecvQueries: 50, SetupReps: 5}
	}
}

var workloads = []*workloadDef{
	{
		name:    "fig2.plain",
		why:     "Figure 2 path, plaintext scheme on the mem transport: no crypto, so parse, reification, fixpoint, constraint check and the dist codec do all the work",
		loop:    "closed, 1 caller",
		sizes:   fig2Sizes(100, 1000),
		setup:   func(e *env) (instance, error) { return setupFig2(e, core.SchemePlaintext) },
		primary: "msg_us", secondary: "recv_query_us", throughput: "msg_per_s",
		attributed: "msg_us", attribution: fig2Attribution,
	},
	{
		name:    "fig2.rsa",
		why:     "the same path and code under SchemeRSA: lbcrypto sign/verify dominates here and is absent from fig2.plain, so crypto and engine changes separate",
		loop:    "closed, 1 caller",
		sizes:   fig2Sizes(40, 250),
		setup:   func(e *env) (instance, error) { return setupFig2(e, core.SchemeRSA) },
		primary: "msg_us", secondary: "recv_query_us", throughput: "msg_per_s",
		attributed: "msg_us", attribution: fig2Attribution,
	},
	{
		name: "serve.read",
		why:  "served read-only path: frame parse, query parse, snapshot read, row encoding and loopback; no flush, no crypto after auth, no WAL",
		loop: "closed, nproc sessions",
		sizes: func(c config) Sizes {
			if c.scale == "tiny" {
				return Sizes{BaseFacts: 970, Clients: runtime.NumCPU(), Requests: 300, Warmup: 20, SetupReps: 1}
			}
			return Sizes{BaseFacts: 10000, Clients: runtime.NumCPU(), Requests: c.scaled(150000, 20000), Warmup: 2000, SetupReps: 5}
		},
		setup:   setupServeRead,
		primary: "query_p50_us", secondary: "scan_p50_us", throughput: "query_qps",
		attributed: "query_p50_us",
		attribution: func(l map[string]float64, _ Sizes) float64 {
			return l["dist.transport_us"] + l["workspace.snapshot_query_us"] + l["dist.codec_us"]
		},
	},
	{
		name: "serve.mixed",
		why:  "the same server on a durable system with a signing writer beside the reader: lock hold under in-rule signing, snapshot republication, WAL append and recovery appear only here",
		loop: "closed, 1 reader + 1 writer session",
		sizes: func(c config) Sizes {
			if c.scale == "tiny" {
				return Sizes{BaseFacts: 970, Clients: 2, Writes: 48, SyncEvery: 16, Warmup: 8, Reopens: 1, SetupReps: 1}
			}
			// This set-up is short and two RSA key generations dominate its
			// variance, so its median takes more repetitions.
			return Sizes{BaseFacts: 10000, Clients: 2, Writes: c.scaled(4000, 800), SyncEvery: 16, Warmup: 64, Reopens: 3, SetupReps: 9}
		},
		setup:   setupServeMixed,
		primary: "query_p50_us", secondary: "write_p50_us", throughput: "query_qps",
		// The write is what only this workload has, so it is what the
		// probes are summed against.
		attributed: "write_p50_us",
		attribution: func(l map[string]float64, _ Sizes) float64 {
			return l["dist.transport_us"] + l["datalog.parse_us"] + l["workspace.flush_us"] + l["store.wal_us_per_write"]
		},
	},
	{
		name: "reconfig",
		why:  "the paper's headline operation: single-statement retractions and RSA<->HMAC scheme swaps over delivered history, the only O(state) path left (rebuild and re-sign)",
		loop: "closed, 1 caller",
		sizes: func(c config) Sizes {
			if c.scale == "tiny" {
				return Sizes{Delivered: 40, Retractions: 3, Warmup: 1, SwapCycles: 1, SetupReps: 1}
			}
			return Sizes{Delivered: 1000, Retractions: c.scaled(12, 6), Warmup: 1, SwapCycles: 1, SetupReps: 5}
		},
		setup:   setupReconfig,
		primary: "retract_ms", secondary: "swap_ms", throughput: "retract_per_s",
		attributed: "retract_ms",
		attribution: func(l map[string]float64, s Sizes) float64 {
			// A retraction rebuilds alice's derived state, re-signing every
			// statement still live.
			return l["lbcrypto.sign_us"] * float64(s.Delivered)
		},
	},
}

// fig2Attribution sums the probes that partition one message's path
// without overlap: the sender's parse and flush (which contains its
// reification and, under RSA, its signing), the wire codec, and the
// receiver's reification and verification. The receiver's fixpoint and
// the pump are what is left unattributed.
func fig2Attribution(l map[string]float64, _ Sizes) float64 {
	return l["datalog.parse_us"] + l["workspace.flush_us"] + l["dist.codec_us"] +
		l["meta.reify_us"] + l["lbcrypto.verify_us"]
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
