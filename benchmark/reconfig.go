package main

import (
	"fmt"
	"runtime"
	"time"

	"lbtrust/internal/core"
	"lbtrust/internal/datalog"
	"lbtrust/internal/workspace"
)

// reconfig is alice -> bob under RSA with delivered history, ready for
// retractions and scheme swaps.
type reconfig struct {
	e         *env
	pair      *pair
	ids       []int
	stmts     []string
	victims   []int        // indexes into ids, in retraction order
	retracted map[int]bool // ids withdrawn so far
}

// sayChunk bounds one SayAll during set-up, so the delivered history is
// built the way fig2.rsa builds it.
const sayChunk = 250

func setupReconfig(e *env) (instance, error) {
	p, err := newPair(nil, core.SchemeRSA, core.SchemeHMAC)
	if err != nil {
		return nil, err
	}
	r := &reconfig{e: e, pair: p, retracted: map[int]bool{}}
	r.ids = freshIDs(e.rng, e.sz.Delivered)
	r.stmts = statements("msg", r.ids)
	r.victims = e.rng.Perm(len(r.ids))[:e.sz.Warmup+e.sz.Retractions]
	fail := func(err error) (instance, error) {
		p.sys.Close()
		return nil, err
	}
	for at := 0; at < len(r.stmts); at += sayChunk {
		if _, _, _, err := p.round(r.stmts[at:min(at+sayChunk, len(r.stmts))]); err != nil {
			return fail(err)
		}
	}
	if got := p.bob.Count("msg"); got != len(r.ids) {
		return fail(fmt.Errorf("set-up delivered %d of %d statements", got, len(r.ids)))
	}
	for i := 0; i < e.sz.Warmup; i++ {
		if _, _, err := r.retract(r.ids[r.victims[i]]); err != nil {
			return fail(fmt.Errorf("warm-up: %w", err))
		}
	}
	return r, nil
}

func (r *reconfig) close() { r.pair.sys.Close() }

func (r *reconfig) live() int { return len(r.ids) - len(r.retracted) }

// retract withdraws one says(alice,bob,[| msg(id). |]) at alice and syncs.
func (r *reconfig) retract(id int) (tx, sync time.Duration, err error) {
	fact := fmt.Sprintf("says(alice, bob, [| msg(%d). |])", id)
	t0 := time.Now()
	if err = r.pair.alice.Update(func(tx *workspace.Tx) error { return tx.Retract(fact) }); err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	if err = r.pair.sys.Sync(); err != nil {
		return 0, 0, err
	}
	r.retracted[id] = true
	return t1.Sub(t0), time.Since(t1), nil
}

// holdsCode reports whether any tuple of the principal's predicate carries
// the statement's code.
func holdsCode(p *core.Principal, pred string, code datalog.Code) bool {
	for _, t := range p.Workspace().Facts(pred) {
		for _, v := range t.Values() {
			if c, ok := v.(datalog.Code); ok && c.Key() == code.Key() {
				return true
			}
		}
	}
	return false
}

func (r *reconfig) measure(tr *tracer) *phase {
	sz := r.e.sz
	ph := &phase{}
	alice, bob := r.pair.alice, r.pair.bob
	var retractMS samples
	var wall time.Duration

	checksBefore := alice.Workspace().CheckStats()
	runtime.GC()
	memBefore := markMem()
	for i := 0; i < sz.Retractions; i++ {
		id := r.ids[r.victims[sz.Warmup+i]]
		start := time.Now()
		txD, syncD, err := r.retract(id)
		ph.attempted++
		if err != nil {
			ph.fail(1, "retracting msg(%d): %v", id, err)
			continue
		}
		if tr != nil {
			root := tr.record("retract", -1, i, start, txD+syncD)
			tr.record("tx", root, i, start, txD)
			tr.record("sync", root, i, start.Add(txD), syncD)
		}
		wall += txD + syncD
		retractMS.add(ms(txD + syncD))

		// Oracle: the statement is gone from alice's says and export, and
		// nothing else went with it.
		code, err := codesOf([]string{fmt.Sprintf("msg(%d).", id)})
		switch {
		case err != nil:
			ph.fail(1, "msg(%d): %v", id, err)
		case holdsCode(alice, "says", code[0]) || holdsCode(alice, "export", code[0]):
			ph.fail(1, "msg(%d) still in alice's says or export after retraction", id)
		case alice.Count("says") != r.live() || alice.Count("export") != r.live():
			ph.fail(1, "after retracting msg(%d) alice holds %d says, %d export, want %d",
				id, alice.Count("says"), alice.Count("export"), r.live())
		}
	}
	memAfter := markMem()
	checks := alice.Workspace().CheckStats()

	// dist cannot withdraw a shipped export, so bob still holds what was
	// retracted: reported as a gauge, not as a failure.
	stale := 0
	for id := range r.retracted {
		if rows, err := bob.Query(fmt.Sprintf("msg(%d)", id)); err == nil && len(rows) > 0 {
			stale++
		}
	}

	var swapMS, toHMAC, toRSA samples
	for c := 0; c < sz.SwapCycles; c++ {
		h := r.swap(tr, ph, core.SchemeHMAC, 40)
		s := r.swap(tr, ph, core.SchemeRSA, 2*1024/8)
		toHMAC.add(ms(h))
		toRSA.add(ms(s))
		swapMS.add(ms(h + s))
	}
	heap := liveHeapMB()
	runtime.KeepAlive(r)

	ph.e2e = []Metric{
		timing("retract_ms", "ms", retractMS),
		timing("swap_ms", "ms", swapMS),
		count("retract_per_s", "1/s", float64(len(retractMS))/wall.Seconds()),
		count("live_heap_mb", "MB", heap),
	}
	ph.layer = append([]Metric{
		timing("core.swap_to_hmac_ms", "ms", toHMAC),
		timing("core.swap_to_rsa_ms", "ms", toRSA),
		count("reconfig.stale_at_receiver", "count", float64(stale)),
		count("workspace.checks_incremental", "count", float64(checks.Incremental-checksBefore.Incremental)),
		count("workspace.checks_full", "count", float64(checks.Full-checksBefore.Full)),
		count("workspace.checks_skipped", "count", float64(checks.Skipped-checksBefore.Skipped)),
	}, runtimeMetrics(memBefore, memAfter, int64(sz.Retractions))...)
	return ph
}

// swap moves both ends to the scheme: the receiver forgets history signed
// the old way, both swap their two clauses, and Sync re-ships alice's
// history re-signed. It checks that bob again holds exactly the live
// statements and that every export carries a signature of the new
// scheme's length (hex digits).
func (r *reconfig) swap(tr *tracer, ph *phase, to core.Scheme, sigLen int) time.Duration {
	id := tr.begin("swap."+string(to), -1, -1)
	t0 := time.Now()
	err := r.pair.bob.ForgetCommunication()
	if err == nil {
		err = r.pair.useScheme(to)
	}
	if err == nil {
		err = r.pair.sys.Sync()
	}
	d := time.Since(t0)
	tr.finish(id)

	live := r.live()
	ph.attempted += int64(live)
	if err != nil {
		ph.fail(int64(live), "swap to %s: %v", to, err)
		return d
	}
	if got := r.pair.bob.Count("msg"); got != live {
		ph.fail(int64(max(live-got, got-live)), "after swap to %s bob holds %d statements, want %d", to, got, live)
	}
	wrong := 0
	exports := r.pair.alice.Workspace().Facts("export")
	for _, t := range exports {
		if sig, ok := t.At(t.Len() - 1).(datalog.String); !ok || len(sig) != sigLen {
			wrong++
		}
	}
	if wrong > 0 || len(exports) != live {
		ph.fail(int64(max(wrong, 1)), "after swap to %s: %d exports (want %d), %d not signed under %s", to, len(exports), live, wrong, to)
	}
	return d
}

func (r *reconfig) probe(tr *tracer, ph *phase) {
	pr := newProber(tr, ph)
	defer pr.done()
	pr.parse(r.stmts)
	pr.reify(r.stmts)
	pr.flush(core.SchemeRSA, r.stmts, sayChunk, 4)
	pr.crypto(core.SchemeRSA, r.pair.alice, r.stmts)
	pr.hmac(r.pair.alice, "bob", r.stmts)
	pr.codec(r.pair.alice.Workspace().Facts("export"), "alice", "bob")
}
