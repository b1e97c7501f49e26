package workspace

import (
	"lbtrust/internal/datalog"
	"lbtrust/internal/obs"
)

// Metrics aggregates workspace-level observability: flush latency,
// snapshot republication cost, and the evaluator's run/gas/derived
// counters. A nil *Metrics disables everything; instrumented sites pay
// one branch.
type Metrics struct {
	flushSeconds *obs.Histogram

	snapPublishSeconds *obs.Histogram
	snapRelsCloned     *obs.Counter

	eval *datalog.EvalMetrics
}

// newMetrics registers the workspace metric families on r: the families
// above, plus reads of w's CheckStats counters, which /metrics reports at
// scrape time summed over every workspace of the registry. Nil r returns
// nil — the disabled configuration.
func newMetrics(r *obs.Registry, w *Workspace) *Metrics {
	if r == nil {
		return nil
	}
	const checkHelp = "flush constraint checks by path taken (incremental delta-seeded, full re-evaluation, or skipped)"
	r.CounterFunc("lb_workspace_constraint_checks_total", checkHelp, w, w.checkIncremental.Load, "path", "incremental")
	r.CounterFunc("lb_workspace_constraint_checks_total", checkHelp, w, w.checkFull.Load, "path", "full")
	r.CounterFunc("lb_workspace_constraint_checks_total", checkHelp, w, w.checkSkipped.Load, "path", "skipped")
	return &Metrics{
		flushSeconds: r.Histogram("lb_workspace_flush_seconds", "transactional flush latency (rule fixpoint, constraint check, journal append)"),
		snapPublishSeconds: r.Histogram("lb_workspace_snapshot_publish_seconds",
			"snapshot republication latency (cloning relations stale since the last publication)"),
		snapRelsCloned: r.Counter("lb_workspace_snapshot_relations_cloned_total",
			"relations cloned during snapshot republication"),
		eval: datalog.NewEvalMetrics(r),
	}
}

// evalMetrics returns the evaluator sub-metrics (nil on nil).
func (m *Metrics) evalMetrics() *datalog.EvalMetrics {
	if m == nil {
		return nil
	}
	return m.eval
}

// SetObs attaches observability to the workspace: metrics register on
// o's registry (shared across workspaces — the families are
// per-process, not per-principal) and log lines go to a
// workspace-scoped logger. A nil Obs detaches the histograms, evaluator
// counters and logger; the CheckStats reads stay registered on the
// registry they were first given, as there is no unregistration.
func (w *Workspace) SetObs(o *obs.Obs) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.metrics = newMetrics(o.Reg(), w)
	if o == nil || o.Log == nil {
		w.log = nil
	} else {
		w.log = o.Logger("workspace").With("principal", string(w.principal))
	}
	w.userEv.Metrics = w.metrics.evalMetrics()
	w.checkEv.Metrics = w.metrics.evalMetrics()
	// Published snapshots captured the old metrics; republish.
	w.snapAll = true
	w.snapClean.Store(false)
}

// metricsBudget arms a budget for one flush when metrics need one: gas
// and derived tuples are counted inside the Budget, so a metered
// workspace with no configured limits still arms an unlimited (zero
// value, never trips) budget to make the counts visible. Flushes only —
// a flush runs a rule fixpoint whose cost dwarfs the per-tuple
// accounting, while the point-query hot path stays budget-free unless
// the operator configured real limits (the <5% obs-overhead budget is
// measured on exactly that path).
func (w *Workspace) metricsBudget(b *datalog.Budget) *datalog.Budget {
	if b == nil && w.metrics != nil {
		return new(datalog.Budget)
	}
	return b
}
