package main

import (
	"crypto/rsa"
	"fmt"
	"runtime"
	"time"

	"lbtrust/internal/core"
	"lbtrust/internal/dist"
	"lbtrust/internal/workspace"
)

// pair is the paper's two-principal system: alice on node A says to bob on
// node B, who trusts everything said to him, over the mem transport.
type pair struct {
	sys        *core.System
	alice, bob *core.Principal
	nodeB      *dist.Node
}

// rsaKeys are both principals' identities, generated by the first pair of
// a set-up and handed to every later one, so that a workload which builds
// a fresh pair per round pays key generation once, in set-up.
type rsaKeys map[string]*rsa.PrivateKey

// newPair builds the system with RSA identities when any scheme in use
// needs them and a shared secret when HMAC is among them, then puts both
// principals on the first scheme. keys may be nil.
func newPair(keys rsaKeys, schemes ...core.Scheme) (*pair, error) {
	sys, err := core.NewSystemWith(dist.NewMemNetwork())
	if err != nil {
		return nil, err
	}
	p := &pair{sys: sys}
	fail := func(err error) (*pair, error) {
		sys.Close()
		return nil, err
	}
	nodeA, err := sys.AddNode("node-alice")
	if err != nil {
		return fail(err)
	}
	if p.nodeB, err = sys.AddNode("node-bob"); err != nil {
		return fail(err)
	}
	if p.alice, err = sys.AddPrincipalOn("alice", nodeA); err != nil {
		return fail(err)
	}
	if p.bob, err = sys.AddPrincipalOn("bob", p.nodeB); err != nil {
		return fail(err)
	}
	for _, sc := range schemes {
		switch sc {
		case core.SchemeRSA:
			for _, pr := range []*core.Principal{p.alice, p.bob} {
				if key, ok := keys[pr.Name()]; ok {
					// EstablishRSA keeps an identity the key store already has.
					pr.Keys().ImportRSA(pr.Name(), key)
				}
				if err := sys.EstablishRSA(pr.Name()); err != nil {
					return fail(err)
				}
			}
		case core.SchemeHMAC:
			if err := sys.EstablishSharedSecret("alice", "bob"); err != nil {
				return fail(err)
			}
		}
	}
	if err := p.bob.TrustAll(); err != nil {
		return fail(err)
	}
	if err := p.useScheme(schemes[0]); err != nil {
		return fail(err)
	}
	return p, nil
}

// rsaKeys returns the pair's RSA identities (empty without RSA).
func (p *pair) rsaKeys() rsaKeys {
	keys := rsaKeys{}
	for _, pr := range []*core.Principal{p.alice, p.bob} {
		if k, ok := pr.Keys().RSAKey(pr.Name()); ok && k.D != nil {
			keys[pr.Name()] = k
		}
	}
	return keys
}

// useScheme swaps the signer and verifier clauses on both ends, receiver
// first so that nothing signed the new way meets the old verifier.
func (p *pair) useScheme(sc core.Scheme) error {
	for _, pr := range []*core.Principal{p.bob, p.alice} {
		if err := pr.UseScheme(sc); err != nil {
			return err
		}
	}
	return nil
}

// round is one SayAll + Sync; it returns when it started and the two wall
// times.
func (p *pair) round(batch []string) (start time.Time, say, sync time.Duration, err error) {
	start = time.Now()
	if err = p.alice.SayAll("bob", batch); err != nil {
		return start, 0, 0, fmt.Errorf("SayAll: %w", err)
	}
	t1 := time.Now()
	if err = p.sys.Sync(); err != nil {
		return start, 0, 0, fmt.Errorf("Sync: %w", err)
	}
	return start, t1.Sub(start), time.Since(t1), nil
}

// fig2 runs Figure 2 points: every round says one batch of fresh
// statements on a fresh pair, as the paper's experiment does. One pair
// must not accumulate rounds: each statement bob receives becomes an
// active rule, and delivery cost grows with their number (about 40 us per
// message at 1 000 held, 570 us at 12 000), so an accumulating system
// would measure its own history instead of the path.
type fig2 struct {
	e      *env
	scheme core.Scheme
	keys   rsaKeys
	pair   *pair    // the latest round's pair, kept for the probes
	ids    []int    // message ids, in the order they are said
	stmts  []string // msg(id). per id
	said   int      // statements said so far (warm-up included)
}

func setupFig2(e *env, scheme core.Scheme) (instance, error) {
	f := &fig2{e: e, scheme: scheme}
	f.ids = freshIDs(e.rng, (e.sz.Warmup+e.sz.Rounds)*e.sz.Batch)
	f.stmts = statements("msg", f.ids)
	for r := 0; r < e.sz.Warmup; r++ {
		if _, _, _, err := f.round(); err != nil {
			f.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return f, nil
}

// round replaces the pair with a fresh one (untimed) and says the next
// batch on it.
func (f *fig2) round() (start time.Time, say, sync time.Duration, err error) {
	f.close()
	if f.pair, err = newPair(f.keys, f.scheme); err != nil {
		return start, 0, 0, err
	}
	if f.keys == nil {
		f.keys = f.pair.rsaKeys()
	}
	batch := f.stmts[f.said : f.said+f.e.sz.Batch]
	f.said += len(batch)
	return f.pair.round(batch)
}

func (f *fig2) close() {
	if f.pair != nil {
		f.pair.sys.Close()
		f.pair = nil
	}
}

func (f *fig2) measure(tr *tracer) *phase {
	sz := f.e.sz
	ph := &phase{}
	var msgUS, recvUS, sayUS, syncUS samples
	var wall time.Duration
	var scanned, envelopes, bytes, rejected int64
	var checks workspace.CheckStats
	picks := f.e.rng.Perm(sz.Batch)[:sz.RecvQueries]

	runtime.GC()
	memBefore := markMem()
	for r := 0; r < sz.Rounds; r++ {
		first := f.said
		start, say, sync, err := f.round()
		ph.attempted += int64(sz.Batch)
		if err != nil {
			ph.fail(int64(sz.Batch), "round %d: %v", r, err)
			continue
		}
		if tr != nil {
			root := tr.record("round", -1, r, start, say+sync)
			tr.record("core.say", root, r, start, say)
			tr.record("dist.sync", root, r, start.Add(say), sync)
		}
		wall += say + sync
		n := float64(sz.Batch)
		msgUS.add(us(say+sync) / n)
		sayUS.add(us(say) / n)
		syncUS.add(us(sync) / n)

		// Oracle: the whole batch is at bob, nothing was rejected, and the
		// receiver answers a point query for a sample of the messages.
		if got := f.pair.bob.Count("msg"); got != sz.Batch {
			ph.fail(int64(sz.Batch-got), "round %d: bob holds %d of %d messages", r, got, sz.Batch)
		}
		stats := f.pair.sys.Stats()
		if rej := stats.TuplesRejected(); rej > 0 {
			rejected += rej
			ph.fail(rej, "round %d: %d node rejections, first: %v", r, rej, f.pair.nodeB.Rejected()[0])
		}
		scanned += stats.ScannedTuples
		envelopes += stats.Totals().MessagesSent
		bytes += stats.Totals().BytesSent
		cs := f.pair.alice.Workspace().CheckStats()
		checks.Incremental += cs.Incremental
		checks.Full += cs.Full
		checks.Skipped += cs.Skipped
		for _, k := range picks {
			q := fmt.Sprintf("msg(%d)", f.ids[first+k])
			t0 := time.Now()
			rows, err := f.pair.bob.Query(q)
			recvUS.addDur(time.Since(t0))
			ph.attempted++
			if err != nil || len(rows) != 1 {
				ph.fail(1, "bob.Query(%s): %d rows, err %v", q, len(rows), err)
			}
		}
	}
	memAfter := markMem()
	heap := liveHeapMB()
	runtime.KeepAlive(f)

	msgs := float64(sz.Rounds * sz.Batch)
	ph.e2e = []Metric{
		timing("msg_us", "us", msgUS),
		timing("recv_query_us", "us", recvUS),
		count("msg_per_s", "1/s", msgs/wall.Seconds()),
		count("wire_bytes_per_msg", "B", float64(bytes)/msgs),
		count("live_heap_mb", "MB", heap),
	}
	// Counts cover each round's whole pair, its few set-up flushes
	// included; they are the same on every round and every run.
	ph.layer = append([]Metric{
		timing("core.say_us", "us", sayUS),
		timing("dist.sync_us", "us", syncUS),
		count("dist.scanned_per_msg", "count", float64(scanned)/msgs),
		count("dist.envelopes_per_round", "count", float64(envelopes)/float64(sz.Rounds)),
		count("dist.rejected", "count", float64(rejected)),
		count("workspace.checks_incremental", "count", float64(checks.Incremental)),
		count("workspace.checks_full", "count", float64(checks.Full)),
		count("workspace.checks_skipped", "count", float64(checks.Skipped)),
	}, runtimeMetrics(memBefore, memAfter, int64(msgs))...)
	return ph
}

func (f *fig2) probe(tr *tracer, ph *phase) {
	said := f.stmts[:f.said]
	pr := newProber(tr, ph)
	defer pr.done()
	pr.parse(said)
	pr.reify(said)
	pr.flush(f.scheme, said, f.e.sz.Batch, 5)
	pr.gas(f.scheme, said)
	pr.crypto(f.scheme, f.pair.alice, said)
	pr.codec(f.pair.alice.Workspace().Facts("export"), "alice", "bob")
}
