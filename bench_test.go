package lbtrust

import (
	"fmt"
	"runtime"
	"testing"

	"lbtrust/internal/bench"
	"lbtrust/internal/core"
	"lbtrust/internal/store"
)

// ---- Figure 2: execution time vs number of authenticated messages ----------
//
// The paper's single data figure: alice exports N messages to bob, each
// signed on export and verified on import, for Plaintext, HMAC-SHA1 and
// 1024-bit RSA. The expected shape — linear growth, RSA >> HMAC >=
// Plaintext — is checked in EXPERIMENTS.md against cmd/lbtrust-bench
// output; these benchmarks expose the same workload to `go test -bench`.

func benchmarkFigure2(b *testing.B, scheme core.Scheme, messages int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := bench.RunFigure2Point(scheme, messages)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(p.Duration.Microseconds())/float64(messages), "us/msg")
		b.ReportMetric(float64(p.WireBytes)/float64(messages), "wireB/msg")
	}
}

func BenchmarkFigure2Plaintext(b *testing.B) {
	for _, n := range []int{100, 500, 1000} {
		b.Run(fmt.Sprintf("msgs=%d", n), func(b *testing.B) {
			benchmarkFigure2(b, core.SchemePlaintext, n)
		})
	}
}

func BenchmarkFigure2HMAC(b *testing.B) {
	for _, n := range []int{100, 500, 1000} {
		b.Run(fmt.Sprintf("msgs=%d", n), func(b *testing.B) {
			benchmarkFigure2(b, core.SchemeHMAC, n)
		})
	}
}

func BenchmarkFigure2RSA(b *testing.B) {
	for _, n := range []int{100, 500, 1000} {
		b.Run(fmt.Sprintf("msgs=%d", n), func(b *testing.B) {
			benchmarkFigure2(b, core.SchemeRSA, n)
		})
	}
}

// ---- Figure 2 over the TCP transport ----------------------------------------
//
// The same workload with the tuples crossing loopback sockets instead of
// in-process calls: the delta over BenchmarkFigure2* is the wire cost of
// the distribution runtime.

func BenchmarkFigure2TransportTCP(b *testing.B) {
	for _, sc := range []core.Scheme{core.SchemePlaintext, core.SchemeHMAC} {
		b.Run(string(sc), func(b *testing.B) {
			const messages = 100
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := bench.RunFigure2PointOn(bench.TransportTCP, sc, messages)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(p.Duration.Microseconds())/float64(messages), "us/msg")
				b.ReportMetric(float64(p.WireBytes)/float64(messages), "wireB/msg")
			}
		})
	}
}

// ---- Ablation A1: semi-naive fixpoint ---------------------------------------

func BenchmarkAblationSeminaive(b *testing.B) {
	for _, n := range []int{50, 100} {
		b.Run(fmt.Sprintf("chain=%d/seminaive", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := bench.RunTC(n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Ablation A2: incremental insertion vs full recomputation ---------------

func BenchmarkAblationIncremental(b *testing.B) {
	const base, inserts = 200, 20
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.RunIncremental(base, inserts, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.RunIncremental(base, inserts, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Ablation A3: meta-constraint checking overhead -------------------------

func BenchmarkAblationMetaConstraint(b *testing.B) {
	const rules = 100
	b.Run("without", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.RunMetaConstraintLoad(rules, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("with", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.RunMetaConstraintLoad(rules, true); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Ablation A5: magic sets vs full bottom-up (goal-directed query) --------

func BenchmarkAblationMagicSets(b *testing.B) {
	const chain = 300
	b.Run("magic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := bench.RunGoalDirected(chain, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := bench.RunGoalDirected(chain, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Ablation A6: SeNDlog reachability scaling ------------------------------

func BenchmarkSeNDlogReachability(b *testing.B) {
	for _, n := range []int{4, 8} {
		b.Run(fmt.Sprintf("ring=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunSeNDlogReachability(n, core.SchemePlaintext); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Incremental sync: delta-driven pump ------------------------------------
//
// The distribution runtime accumulates per-flush deltas, so a Sync's pump
// work tracks the number of fresh tuples, not the size of the already
// shipped relations: ns/op and scanned/op should be flat across base
// sizes. Receiver-side constraint checking is delta-seeded too, so wall
// time no longer scales with relation size either (see EXPERIMENTS.md).

func BenchmarkIncrementalSync(b *testing.B) {
	for _, base := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("base=%d", base), func(b *testing.B) {
			s, _, err := bench.NewIncrementalSync(bench.TransportMem, 3, base)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			var scanned int64
			for i := 0; i < b.N; i++ {
				p, err := s.Sync(1)
				if err != nil {
					b.Fatal(err)
				}
				scanned += p.Scanned
			}
			b.ReportMetric(float64(scanned)/float64(b.N), "scanned/op")
		})
	}
}

// ---- Incremental constraint checking ----------------------------------------
//
// Receiver-side flush checks are delta-seeded: the cost of checking one
// fresh tuple must be flat across base relation sizes.

func BenchmarkIncrementalConstraintCheck(b *testing.B) {
	for _, base := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("base=%d/incr", base), func(b *testing.B) {
			c, _, err := bench.NewIncrementalConstraints(base)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestIncrementalConstraintCheckUsesDeltaPath(t *testing.T) {
	const base, flushes = 2000, 8
	incr, err := bench.RunIncrementalConstraints(base, flushes)
	if err != nil {
		t.Fatal(err)
	}
	if incr.Checks.Incremental != flushes || incr.Checks.Full != 0 {
		t.Errorf("check stats = %+v, want %d incremental and 0 full", incr.Checks, flushes)
	}
}

func TestIncrementalSyncScansFreshNotBase(t *testing.T) {
	const base, fresh = 5000, 3
	r, err := bench.RunIncrementalSync(bench.TransportMem, 3, base, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if r.Setup.Delivered < int64(base) {
		t.Fatalf("setup delivered %d, want >= %d", r.Setup.Delivered, base)
	}
	// Two hops: each fresh announcement is scanned once per hop, plus a
	// final confirming round; nowhere near the base relation size.
	if r.Incr.Scanned >= int64(base) {
		t.Errorf("incremental sync scanned %d tuples, want O(fresh)=O(%d), not O(base)=O(%d)",
			r.Incr.Scanned, fresh, base)
	}
	if r.Incr.Delivered != int64(fresh*2) {
		t.Errorf("incremental sync delivered %d tuples, want %d (fresh x hops)", r.Incr.Delivered, fresh*2)
	}
}

func TestIncrementalSyncWireIdenticalAcrossTransports(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp transport in -short mode")
	}
	const base, fresh = 200, 5
	mem, err := bench.RunIncrementalSync(bench.TransportMem, 3, base, fresh)
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := bench.RunIncrementalSync(bench.TransportTCP, 3, base, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if mem.Setup.WireBytes != tcp.Setup.WireBytes || mem.Setup.WireMessages != tcp.Setup.WireMessages {
		t.Errorf("setup wire differs: mem %d msg/%d B, tcp %d msg/%d B",
			mem.Setup.WireMessages, mem.Setup.WireBytes, tcp.Setup.WireMessages, tcp.Setup.WireBytes)
	}
	if mem.Incr.WireBytes != tcp.Incr.WireBytes || mem.Incr.WireMessages != tcp.Incr.WireMessages {
		t.Errorf("incremental wire differs: mem %d msg/%d B, tcp %d msg/%d B",
			mem.Incr.WireMessages, mem.Incr.WireBytes, tcp.Incr.WireMessages, tcp.Incr.WireBytes)
	}
}

// ---- WAL overhead on the incremental-sync hot path --------------------------
//
// The same chain workload as BenchmarkIncrementalSync with a write-ahead
// log attached (interval fsync): every flush and shipment is journaled.
// The acceptance bar for the durability subsystem is that this stays
// within 10% of the WAL-off benchmark above.

func BenchmarkIncrementalSyncWAL(b *testing.B) {
	for _, mode := range []struct {
		name  string
		fsync store.FsyncPolicy
	}{{"interval", store.FsyncInterval}, {"off", store.FsyncOff}} {
		for _, base := range []int{1000, 10000} {
			b.Run(fmt.Sprintf("fsync=%s/base=%d", mode.name, base), func(b *testing.B) {
				s, _, err := bench.NewIncrementalSyncWAL(bench.TransportMem, 3, base, b.TempDir(), mode.fsync)
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				// Drain the setup shipment's log backlog so the loop measures
				// steady-state logging, not the setup's deferred fsync.
				if err := s.FlushWAL(); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				var scanned int64
				for i := 0; i < b.N; i++ {
					p, err := s.Sync(1)
					if err != nil {
						b.Fatal(err)
					}
					scanned += p.Scanned
				}
				b.ReportMetric(float64(scanned)/float64(b.N), "scanned/op")
			})
		}
	}
}

// ---- recovery time ----------------------------------------------------------
//
// How long OpenSystem takes to rebuild a 3-node system from a fresh
// snapshot. The workload pushes `base` authenticated messages through
// p0 -> p1 -> p2 before the checkpoint.

func BenchmarkRecovery(b *testing.B) {
	for _, base := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("msgs=%d", base), func(b *testing.B) {
			dir := b.TempDir()
			sys, err := bench.BuildRecoverySystem(dir, base)
			if err != nil {
				b.Fatal(err)
			}
			tuples := bench.SystemTuples(sys)
			if err := sys.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			if err := sys.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				re, err := core.OpenSystem(dir, core.DurableOptions{Fsync: store.FsyncOff})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				re.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(tuples), "tuples")
		})
	}
}

// ---- serve throughput -------------------------------------------------------
//
// Queries/sec against the trust service at increasing client
// concurrency: each client is an authenticated session issuing point
// queries answered from workspace snapshots.

func BenchmarkServe(b *testing.B) {
	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := bench.RunServe(bench.ServeOptions{
					Base: 2000, PerClient: 200, Clients: []int{clients},
				})
				if err != nil {
					b.Fatal(err)
				}
				p := r.Scaling[0]
				b.ReportMetric(p.QPS, "queries/s")
				b.ReportMetric(float64(p.P99.Microseconds()), "p99-us")
			}
		})
	}
}

// TestServeReadScaling asserts the serving layer's reason to exist:
// concurrent readers must not serialize behind the workspace lock. The
// CPU-parallel speedup this manifests as is physically bounded by the
// core count, so the threshold scales with (and is skipped below 4)
// available CPUs; the recorded BENCH_serve.json carries the full curve
// either way.
func TestServeReadScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("serve scaling is a perf assertion; skipped in -short")
	}
	r, err := bench.RunServe(bench.ServeOptions{Base: 2000, PerClient: 300, Clients: []int{1, 16}})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("serve scaling: 1 client %.0f qps, 16 clients %.0f qps (%.2fx, NumCPU=%d)",
		r.Scaling[0].QPS, r.Scaling[1].QPS, r.ScalingX, runtime.NumCPU())
	// On any machine, 16 clients must not collapse throughput (a lock
	// convoy would); the generous floor absorbs 1-CPU and -race jitter.
	if r.ScalingX < 0.5 {
		t.Fatalf("16-client throughput collapsed to %.2fx of single-client", r.ScalingX)
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("NumCPU=%d: the >=4x read-scaling assertion needs >=4 cores", runtime.NumCPU())
	}
	if want := 4.0; r.ScalingX < want {
		t.Fatalf("16-client throughput only %.2fx single-client, want >= %.1fx (readers serializing?)", r.ScalingX, want)
	}
}

// ---- Storage engine ---------------------------------------------------------
//
// The chunked copy-on-write relation rework (see EXPERIMENTS.md, storage
// section) is gated structurally, not on wall time: retained bytes per
// tuple prove no per-row canonical key strings live in storage, and the
// dirty-chunk count (measured from relation generation tags) proves
// snapshot republication copies O(dirty chunks), not O(relation).

func TestStorageRetentionGate(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement; skipped in -short")
	}
	pt := bench.RunStoragePoint(10000, 64, 5)
	t.Logf("storage retention: %.1f bytes/tuple at base %d", pt.BytesPerTuple, pt.Base)
	// A chunk slot is a 32 B Tuple header and the table adds ~1.6 12 B
	// entries per row; 96 B leaves room for allocator slack but not for a
	// retained canonical key string (>= 40 B at this tuple shape).
	if pt.BytesPerTuple > 96 {
		t.Fatalf("relation retains %.1f bytes/tuple, want <= 96 (per-row key strings back in storage?)", pt.BytesPerTuple)
	}
	if pt.BytesPerTuple <= 0 {
		t.Fatalf("retention measurement broken: %.1f bytes/tuple", pt.BytesPerTuple)
	}
}

func TestStorageRepublishTracksDirtyChunks(t *testing.T) {
	small := bench.RunStoragePoint(1000, 64, 8)
	big := bench.RunStoragePoint(20000, 64, 8)
	t.Logf("dirty chunks per republication round: %.1f at base 1k, %.1f at base 20k", small.DirtyChunks, big.DirtyChunks)
	// 64 tuples land in at most two 256-slot chunks (tail spill); allow
	// slack for a table-growth round but never anything near O(chunks).
	for _, pt := range []bench.StoragePoint{small, big} {
		if pt.DirtyChunks > 4 {
			t.Fatalf("republication at base %d copies %.1f chunks per round of %d writes, want O(dirty), not O(relation) (%d chunks)",
				pt.Base, pt.DirtyChunks, pt.Dirty, pt.Chunks)
		}
	}
}

func BenchmarkStorageRepublish(b *testing.B) {
	for _, base := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("base=%d", base), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pt := bench.RunStoragePoint(base, 64, 10)
				b.ReportMetric(float64(pt.RepublishNs)/1e3, "repub-us")
				b.ReportMetric(pt.DirtyChunks, "dirty-chunks")
			}
		})
	}
}
