package workspace

import (
	"errors"
	"fmt"
	"time"

	"lbtrust/internal/datalog"
	"lbtrust/internal/meta"
)

// maxMetaIterations bounds the reify/activate/evaluate loop, guarding
// against non-terminating code generation (the paper's dd3-style meta-rules
// terminate because generated depths strictly decrease; buggy programs may
// not).
const maxMetaIterations = 10000

// Tx batches updates to a workspace. All mutations are applied immediately
// to the base and full databases; if the transaction function or the
// subsequent flush and constraint check fail, the workspace is rolled back
// to its pre-transaction state.
type Tx struct {
	w                *Workspace
	changed          map[string][]datalog.Tuple
	removal          bool
	newlyPartitioned []string

	// facts records base-fact changes in application order — one list,
	// not separate insert/remove groups, so both rollback (applied in
	// reverse) and journal replay (applied forward) land in exactly the
	// committed state when one transaction asserts and retracts the same
	// fact.
	facts []factRef
	// schema records rule and constraint changes in application order,
	// for the flush journal (see FlushJournal.Schema).
	schema []SchemaChange
}

type factRef struct {
	pred    string
	tuple   datalog.Tuple
	retract bool
}

// EvalStats reports the evaluation cost of one flush or query: gas steps
// consumed and tuples derived, sampled from the armed budget. Both are -1
// when no budget was armed (unlimited, unmetered work is not counted).
type EvalStats struct {
	Gas     int64
	Derived int64
}

// Update runs fn inside a transaction, then flushes rules to fixpoint and
// checks all constraints. On any error the workspace state is restored.
func (w *Workspace) Update(fn func(tx *Tx) error) error {
	_, err := w.UpdateTraced("", fn)
	return err
}

// UpdateTraced is Update carrying a request trace ID: the ID labels the
// rollback log line when the flush fails (so a rejected remote delivery
// correlates with the sender's trace), and the returned EvalStats reports
// the flush's budget consumption for slow-flush logging.
func (w *Workspace) UpdateTraced(trace string, fn func(tx *Tx) error) (EvalStats, error) {
	w.mu.Lock()
	stats := EvalStats{Gas: -1, Derived: -1}
	snap := w.snapshotLocked()
	tx := &Tx{w: w, changed: map[string][]datalog.Tuple{}}
	// The flush delta — every tuple that becomes newly present during the
	// flush — seeds the incremental constraint check and is handed to flush
	// observers; recordDerived appends each tuple the evaluator freshly
	// inserts, and flushLocked folds the base assertions in.
	w.flushNew = map[string][]datalog.Tuple{}
	w.flushRebuilt = false
	w.flushActivated = nil
	err := fn(tx)
	// fn failing before it recorded any change (an unparsable fact, say)
	// left the workspace as it was: there is nothing to undo, and
	// restoreLocked would rebuild and re-sign the whole state under w.mu
	// for it.
	pristine := err != nil && len(tx.facts) == 0 && len(tx.schema) == 0
	if err == nil {
		// Arm the flush budget on the workspace (rebuildDerivedLocked
		// re-attaches it when it replaces the evaluators) and on both
		// evaluators, then disarm before any rollback: restoring the
		// pre-transaction state must never itself be budgeted. A metered
		// workspace arms an unlimited metrics-only budget when no flush
		// limits are configured, so gas/derived counts stay visible.
		if b := w.metricsBudget(w.flushLimits.NewBudget()); b != nil {
			w.flushBudget = b
			w.userEv.Budget = b
			w.checkEv.Budget = b
		}
		var flushStart time.Time
		if w.metrics != nil {
			flushStart = time.Now()
		}
		err = w.flushLocked(tx)
		if w.metrics != nil {
			w.metrics.flushSeconds.Observe(time.Since(flushStart))
		}
		if b := w.flushBudget; b != nil {
			stats = EvalStats{Gas: b.Steps(), Derived: b.Derived()}
		}
		w.flushBudget = nil
		w.userEv.Budget = nil
		w.checkEv.Budget = nil
	}
	if err != nil {
		w.flushNew, w.flushRebuilt, w.flushActivated = nil, false, nil
		if !pristine {
			if rerr := w.restoreLocked(snap, tx); rerr != nil {
				err = errors.Join(err, fmt.Errorf("workspace: rollback: %w", rerr))
			}
		}
		if w.log != nil {
			if trace != "" {
				w.log.Debug("flush rolled back", "error", err, "trace", trace)
			} else {
				w.log.Debug("flush rolled back", "error", err)
			}
		}
		w.mu.Unlock()
		return stats, err
	}
	delta := FlushDelta{Rebuilt: w.flushRebuilt, NewlyPartitioned: tx.newlyPartitioned}
	if !delta.Rebuilt {
		delta.Changed = w.flushNew // merged with tx.changed by flushLocked
	}
	w.markSnapStaleLocked(delta.Changed, delta.Rebuilt)
	var journal *FlushJournal
	if w.journal != nil {
		journal = &FlushJournal{
			Changed: delta.Changed,
			Rebuilt: delta.Rebuilt,
			Schema:  append(tx.schema, w.flushActivated...),
		}
		if len(tx.facts) > 0 {
			journal.Facts = make([]FactChange, len(tx.facts))
			for i, f := range tx.facts {
				journal.Facts[i] = FactChange{Pred: f.pred, Tuple: f.tuple, Retract: f.retract}
			}
		}
	}
	w.flushNew, w.flushRebuilt, w.flushActivated = nil, false, nil
	// The journal observer runs under the workspace lock: concurrent
	// transactions on one workspace must reach the write-ahead log in
	// commit order, or replay would interleave them differently than the
	// live system did (an assert/retract pair could resurrect). The hook
	// only appends to the log's in-memory buffer, never waits for the
	// disk and never re-enters the workspace; the durability barrier
	// (journalSync, e.g. the FsyncAlways group commit) runs after the
	// unlock, so a flush waiting out an fsync does not serialize readers
	// or concurrent commits — they append behind it and share the batch's
	// sync.
	journaled := false
	if w.journal != nil && journal != nil && !journal.Empty() {
		w.journal(journal)
		journaled = true
	}
	sync := w.journalSync
	hooks := append([]func(FlushDelta){}, w.onFlush...)
	w.mu.Unlock()
	if journaled && sync != nil {
		sync()
	}
	for _, h := range hooks {
		h(delta)
	}
	return stats, nil
}

// Assert inserts a base fact given in surface syntax, e.g.
// tx.Assert(`says(bob, me, [| access(p,o,read). |])`).
func (tx *Tx) Assert(src string) error {
	clause, err := datalog.ParseClause(datalog.EnsureDot(src))
	if err != nil {
		return err
	}
	if !clause.IsFact() {
		return fmt.Errorf("workspace: Assert expects a fact, got %q", src)
	}
	return tx.AssertAtom(&clause.Heads[0])
}

// AssertAtom inserts a ground atom as a base fact.
func (tx *Tx) AssertAtom(a *datalog.Atom) error {
	specialized := substMe(&datalog.Rule{Heads: []datalog.Atom{*a}}, tx.w.principal)
	tuple, err := atomTuple(&specialized.Heads[0])
	if err != nil {
		return err
	}
	return tx.AssertTuple(specialized.Heads[0].Pred, tuple)
}

// AssertTuple inserts a base tuple directly.
func (tx *Tx) AssertTuple(pred string, tuple datalog.Tuple) error {
	w := tx.w
	base := w.baseRel(pred, tuple.Len())
	if !base.Insert(tuple) {
		return nil // already present
	}
	w.db.Rel(pred, tuple.Len()).Insert(tuple)
	tx.changed[pred] = append(tx.changed[pred], tuple)
	tx.facts = append(tx.facts, factRef{pred: pred, tuple: tuple})
	// Reify carried code values now so the delta includes their meta facts.
	for _, v := range tuple.Values() {
		if c, ok := v.(datalog.Code); ok {
			for _, f := range w.model.Reify(c) {
				tx.changed[f.Pred] = append(tx.changed[f.Pred], f.Tuple)
			}
		}
	}
	return nil
}

// Retract removes a base fact (surface syntax). Derived consequences are
// withdrawn by recomputation from the remaining base facts.
func (tx *Tx) Retract(src string) error {
	clause, err := datalog.ParseClause(datalog.EnsureDot(src))
	if err != nil {
		return err
	}
	if !clause.IsFact() {
		return fmt.Errorf("workspace: Retract expects a fact, got %q", src)
	}
	specialized := substMe(clause, tx.w.principal)
	tuple, err := atomTuple(&specialized.Heads[0])
	if err != nil {
		return err
	}
	pred := specialized.Heads[0].Pred
	base, ok := tx.w.base.Get(pred)
	if !ok || !base.Delete(tuple) {
		return nil
	}
	tx.facts = append(tx.facts, factRef{pred: pred, tuple: tuple, retract: true})
	tx.removal = true
	return nil
}

// RetractTuple removes a base tuple directly.
func (tx *Tx) RetractTuple(pred string, tuple datalog.Tuple) error {
	base, ok := tx.w.base.Get(pred)
	if !ok || !base.Delete(tuple) {
		return nil
	}
	tx.facts = append(tx.facts, factRef{pred: pred, tuple: tuple, retract: true})
	tx.removal = true
	return nil
}

// AddRule installs a rule owned by the local principal.
func (tx *Tx) AddRule(r *datalog.Rule) error { return tx.AddRuleAs(r, tx.w.principal) }

// AddRuleSrc parses and installs a rule given in surface syntax. The
// clause is safety-checked eagerly, so an unsafe rule is refused with
// its typed, positioned diagnostic before it enters the transaction
// (the flush would reject it too, but after the rest of the transaction
// has been applied and must be rolled back).
func (tx *Tx) AddRuleSrc(src string) error {
	r, err := datalog.ParseClause(datalog.EnsureDot(src))
	if err != nil {
		return err
	}
	specialized := substMe(r, tx.w.principal)
	if t, terr := meta.TranslatePatterns(specialized); terr == nil {
		for _, s := range t.SplitHeads() {
			if err := datalog.CheckSafety(s, tx.w.builtins); err != nil {
				return err
			}
		}
	}
	return tx.AddRule(r)
}

// AddRuleAs installs a rule with an explicit owner, as used by the
// single-workspace multi-principal emulation of the paper's demonstration
// (Section 9). The owner is recorded in the owner meta-predicate for
// meta-constraints such as the Section 3.3 read-protection example.
func (tx *Tx) AddRuleAs(r *datalog.Rule, owner datalog.Sym) error {
	w := tx.w
	specialized := substMe(r, w.principal)
	code := datalog.NewCode(specialized)
	if _, ok := w.active[code.Key()]; ok {
		return nil
	}
	entry, err := newRuleEntry(code, specialized, owner)
	if err != nil {
		return err
	}
	w.active[code.Key()] = entry
	w.activeOrder = append(w.activeOrder, code.Key())
	w.rulesChanged = true
	if entry.isCheck {
		w.constraintsChanged = true // the check-rule set itself changed
	}
	tx.schema = append(tx.schema, SchemaChange{Kind: SchemaRuleAdd, Rule: RuleChange{Code: code, Owner: owner}})
	// Record activation and ownership as base facts so recomputation
	// rebuilds them; reification happens against the live database.
	if err := tx.AssertTuple(meta.PredActive, datalog.NewTuple(code)); err != nil {
		return err
	}
	if owner != "" {
		if err := tx.AssertTuple("owner", datalog.NewTuple(code, owner)); err != nil {
			return err
		}
	}
	for _, f := range w.model.Reify(code) {
		tx.changed[f.Pred] = append(tx.changed[f.Pred], f.Tuple)
	}
	return nil
}

// RemoveRule deactivates a rule by its code value.
func (tx *Tx) RemoveRule(code datalog.Code) error {
	w := tx.w
	key := code.Key()
	if _, ok := w.active[key]; !ok {
		return nil
	}
	delete(w.active, key)
	for i, k := range w.activeOrder {
		if k == key {
			w.activeOrder = append(w.activeOrder[:i], w.activeOrder[i+1:]...)
			break
		}
	}
	w.rulesChanged = true
	tx.removal = true
	tx.schema = append(tx.schema, SchemaChange{Kind: SchemaRuleRemove, Code: code})
	if rel, ok := w.base.Get(meta.PredActive); ok {
		// Record the deletion so rollback re-inserts the active fact and
		// journal replay retracts it (a restored active table would
		// otherwise re-activate the removed rule during recovery).
		t := datalog.NewTuple(code)
		if rel.Delete(t) {
			tx.facts = append(tx.facts, factRef{pred: meta.PredActive, tuple: t, retract: true})
		}
	}
	if rel, ok := w.base.Get("owner"); ok {
		var drop []datalog.Tuple
		rel.Each(func(t datalog.Tuple) bool {
			if datalog.ValueEqual(t.At(0), code) {
				drop = append(drop, t)
			}
			return true
		})
		for _, t := range drop {
			rel.Delete(t)
			tx.facts = append(tx.facts, factRef{pred: "owner", tuple: t, retract: true})
		}
	}
	return nil
}

// AddConstraint compiles and installs a schema constraint.
func (tx *Tx) AddConstraint(c *datalog.Constraint) error {
	w := tx.w
	w.auxSeq++
	cc, decls, err := compileConstraint(c, w.auxSeq, w.principal)
	if err != nil {
		return err
	}
	label := c.Label
	source := datalog.CanonicalConstraint(c)
	if cc != nil {
		label = cc.label // auto-generated when the source had none
		cc.auxID = w.auxSeq
		cc.source = source
	}
	tx.schema = append(tx.schema, SchemaChange{Kind: SchemaConstraintAdd, Constraint: ConstraintChange{
		AuxID:  w.auxSeq,
		Label:  label,
		Source: source,
	}})
	for _, d := range decls {
		was := w.decls[d.Name].Partitioned
		w.registerDecl(d)
		if !was && w.decls[d.Name].Partitioned {
			tx.newlyPartitioned = append(tx.newlyPartitioned, d.Name)
		}
	}
	if cc != nil {
		w.constraints = append(w.constraints, cc)
		w.constraintsChanged = true
	}
	return nil
}

// RemoveConstraint drops a constraint by label, as the scheme-swap
// reconfiguration of Section 4.1.2 requires. It reports whether a
// constraint was removed.
func (tx *Tx) RemoveConstraint(label string) bool {
	w := tx.w
	kept := w.constraints[:0]
	removed := false
	for _, cc := range w.constraints {
		if cc.label == label {
			removed = true
			if rel, ok := w.db.Get(cc.auxPred); ok {
				rel.Clear()
			}
			continue
		}
		kept = append(kept, cc)
	}
	w.constraints = kept
	if removed {
		w.constraintsChanged = true
		tx.schema = append(tx.schema, SchemaChange{Kind: SchemaConstraintRemove, Label: label})
	}
	return removed
}

// AddConstraintSrc parses and installs constraints given in surface syntax.
func (tx *Tx) AddConstraintSrc(src string) error {
	prog, err := datalog.ParseProgram(src)
	if err != nil {
		return err
	}
	if len(prog.Rules) != 0 {
		return fmt.Errorf("workspace: AddConstraintSrc expects only constraints")
	}
	for _, c := range prog.Constraints {
		if err := tx.AddConstraint(c); err != nil {
			return err
		}
	}
	return nil
}

// atomTuple evaluates a ground atom into a tuple.
func atomTuple(a *datalog.Atom) (datalog.Tuple, error) {
	if a.Pred == "" {
		return datalog.Tuple{}, fmt.Errorf("workspace: fact must have a concrete predicate")
	}
	args := a.AllArgs()
	vs := make([]datalog.Value, len(args))
	for i, t := range args {
		v, ground, err := datalog.EvalGroundTerm(t)
		if err != nil {
			return datalog.Tuple{}, err
		}
		if !ground {
			return datalog.Tuple{}, fmt.Errorf("workspace: fact %s is not ground", a.String())
		}
		vs[i] = v
	}
	return datalog.TupleOf(vs), nil
}

// newRuleEntry translates a specialized rule for the engine.
func newRuleEntry(code datalog.Code, specialized *datalog.Rule, owner datalog.Sym) (*ruleEntry, error) {
	translated, err := meta.TranslatePatterns(specialized)
	if err != nil {
		return nil, err
	}
	isCheck := false
	for i := range translated.Heads {
		if translated.Heads[i].Pred == "fail" {
			isCheck = true
		}
	}
	return &ruleEntry{
		code:       code,
		source:     specialized,
		translated: translated,
		owner:      owner,
		isCheck:    isCheck,
	}, nil
}

// ---- flush -----------------------------------------------------------------

func (w *Workspace) flushLocked(tx *Tx) error {
	if tx.removal {
		if err := w.rebuildDerivedLocked(); err != nil {
			return err
		}
		if err := w.runFixpointLocked(nil); err != nil {
			return err
		}
		// Retractions can create violations among the remaining old tuples,
		// which only the full check sees.
		return w.checkConstraintsLocked(nil, false)
	}
	delta := tx.changed
	if len(delta) == 0 {
		delta = nil
	}
	if err := w.runFixpointLocked(delta); err != nil {
		return err
	}
	if w.flushRebuilt {
		// The fixpoint fell back to a rebuild (negation/aggregation hit by
		// the user-rule delta): the accumulated per-tuple delta is void.
		return w.checkConstraintsLocked(nil, false)
	}
	// Fold base assertions (and reified meta facts) into the derived delta
	// accumulated by the evaluator's OnNew hook. Both sides only record
	// tuples freshly inserted into the database, so no tuple appears
	// twice; Update hands the same merged map to flush observers.
	for pred, tuples := range tx.changed {
		w.flushNew[pred] = append(w.flushNew[pred], tuples...)
	}
	return w.checkConstraintsLocked(w.flushNew, true)
}

// runFixpointLocked runs rule evaluation, code reification, and rule
// activation to a combined fixpoint.
func (w *Workspace) runFixpointLocked(delta map[string][]datalog.Tuple) error {
	if w.rulesChanged {
		if err := w.refreshRulesLocked(); err != nil {
			return err
		}
		delta = nil // new rules need a full round
	}
	if delta != nil {
		err := w.userEv.RunDelta(delta)
		switch {
		case errors.Is(err, datalog.ErrNeedsFullEval):
			// The insertions can invalidate negated or aggregated premises:
			// recompute derived facts from base.
			if err := w.rebuildDerivedLocked(); err != nil {
				return err
			}
			delta = nil
		case err != nil:
			return err
		}
	}
	if delta == nil {
		// Rule-set changes (including evaluator rebuilds) require a full
		// round.
		if w.rulesChanged {
			if err := w.refreshRulesLocked(); err != nil {
				return err
			}
		}
		if err := w.userEv.Run(); err != nil {
			return err
		}
	}
	scanCursor := map[string]int{}
	for iter := 0; ; iter++ {
		if iter > maxMetaIterations {
			return fmt.Errorf("workspace: meta-evaluation did not converge after %d iterations (non-terminating code generation?)", maxMetaIterations)
		}
		// The evaluator checks the wall clock every 1024 gas steps; meta
		// iterations that activate rules with little enumeration in
		// between would dodge it, so check between rounds too.
		if err := w.flushBudget.CheckDeadline(); err != nil {
			return err
		}
		changed := false
		if facts := w.reifyFreshCodesLocked(scanCursor); len(facts) > 0 {
			// Code values arriving inside derived tuples reify here; their
			// meta facts must join the flush delta or the incremental check
			// would miss them (meta-constraints consult rule/head/body/...).
			for _, f := range facts {
				w.recordDerived(f.Pred, f.Tuple)
			}
			changed = true
		}
		activated, err := w.activateDerivedLocked()
		if err != nil {
			return err
		}
		if activated {
			if err := w.refreshRulesLocked(); err != nil {
				return err
			}
			changed = true
		}
		if !changed {
			return nil
		}
		if err := w.userEv.Run(); err != nil {
			return err
		}
	}
}

// reifyFreshCodesLocked reifies code values occurring in tuples appended
// to the flush delta since the last call (the cursor records how far each
// predicate's slice has been scanned). Base assertions reify their codes
// inline in AssertTuple and rebuilds rescan everything, so only tuples the
// evaluator freshly derived can carry unreified codes — scanning the
// delta instead of the whole database keeps the meta loop O(fresh
// tuples). When no per-flush delta is being tracked (mid-rebuild), it
// falls back to the full database scan.
func (w *Workspace) reifyFreshCodesLocked(cursor map[string]int) []meta.Fact {
	if w.flushNew == nil || w.flushRebuilt {
		return w.model.ReifyDatabaseCodes()
	}
	var facts []meta.Fact
	for pred, tuples := range w.flushNew {
		from := cursor[pred]
		if from >= len(tuples) {
			continue
		}
		cursor[pred] = len(tuples)
		for _, t := range tuples[from:] {
			for _, v := range t.Values() {
				if c, ok := v.(datalog.Code); ok && !w.model.Reified(c) {
					facts = append(facts, w.model.Reify(c)...)
				}
			}
		}
	}
	return facts
}

// activateDerivedLocked scans the active table for code values derived by
// rules (for example via says1: active(R) <- says(_,me,R)) that are not yet
// activated, and installs them.
func (w *Workspace) activateDerivedLocked() (bool, error) {
	activated := false
	for _, code := range w.model.ActiveCodes() {
		if _, ok := w.active[code.Key()]; ok {
			continue
		}
		entry, err := newRuleEntry(code, code.Rule(), "")
		if err != nil {
			return false, fmt.Errorf("workspace: activating derived rule %s: %w", code.String(), err)
		}
		entry.derived = true
		w.active[code.Key()] = entry
		w.activeOrder = append(w.activeOrder, code.Key())
		if entry.isCheck {
			w.constraintsChanged = true
		}
		w.model.Reify(code)
		w.flushActivated = append(w.flushActivated, SchemaChange{Kind: SchemaRuleAdd, Rule: RuleChange{Code: code, Derived: true}})
		activated = true
	}
	return activated, nil
}

func (w *Workspace) refreshRulesLocked() error {
	var userRules []*datalog.Rule
	for _, k := range w.activeOrder {
		e := w.active[k]
		if !e.isCheck {
			userRules = append(userRules, e.translated)
		}
	}
	if err := w.userEv.SetRules(userRules); err != nil {
		return err
	}
	w.rulesChanged = false
	// constraintsChanged is NOT set here: the check evaluator only needs
	// recompiling when the check rules themselves change (AddConstraint,
	// RemoveConstraint, fail()-headed rule entries, rebuilds), and leaving
	// it clear keeps flushes that merely activate ordinary rules — every
	// says-import does — on the incremental check path.
	return nil
}

// baseRel returns (creating if needed) a base relation, mirroring the
// partitioned flag from declarations.
func (w *Workspace) baseRel(pred string, arity int) *datalog.Relation {
	rel := w.base.Rel(pred, arity)
	if d, ok := w.decls[pred]; ok && d.Partitioned {
		rel.Partitioned = true
	}
	return rel
}

func (w *Workspace) registerDecl(d Decl) {
	if prev, ok := w.decls[d.Name]; ok {
		if prev.Partitioned {
			d.Partitioned = true
		}
	}
	w.decls[d.Name] = d
	if d.Partitioned {
		w.db.Rel(d.Name, d.Arity).Partitioned = true
		w.base.Rel(d.Name, d.Arity).Partitioned = true
	}
}

// rebuildDerivedLocked reconstructs the full database from base facts and
// re-runs all active rules. Derived-activation rule entries are dropped;
// they will re-activate if still derivable.
func (w *Workspace) rebuildDerivedLocked() error {
	w.flushRebuilt = true
	// The database is replaced wholesale: every published relation version
	// is stale (rollbacks land here too — conservative, merely an extra
	// clone on the next Snapshot call).
	w.snapAll = true
	w.snapClean.Store(false)
	fresh := datalog.NewDatabase()
	for _, name := range w.base.Names() {
		rel, _ := w.base.Get(name)
		dst := fresh.Rel(name, rel.Arity)
		dst.Partitioned = rel.Partitioned
		rel.Each(func(t datalog.Tuple) bool {
			dst.Insert(t)
			return true
		})
	}
	w.db = fresh
	w.model = meta.NewModel(fresh)
	w.userEv = datalog.NewEvaluator(fresh, w.builtins)
	w.userEv.OnNew = w.recordDerived
	w.checkEv = newCheckEvaluator(fresh, w.builtins)
	w.userEv.Metrics = w.metrics.evalMetrics()
	w.checkEv.Metrics = w.metrics.evalMetrics()
	if w.flushBudget != nil {
		w.userEv.Budget = w.flushBudget
		w.checkEv.Budget = w.flushBudget
	}
	if w.prov != nil {
		// Derivations recorded against the old database are void; remote
		// leaves survive (a delivery happens once). The full evaluation run
		// this rebuild forces (rulesChanged below) re-fires OnDerive for
		// every still-derivable fact, re-capturing the DAG with no stale
		// premises.
		w.prov.ResetDerivations()
		w.userEv.OnDerive = w.prov.Record
	}
	// Drop derived activations; they re-derive if still justified.
	kept := w.activeOrder[:0]
	for _, k := range w.activeOrder {
		if w.active[k].derived {
			delete(w.active, k)
			continue
		}
		kept = append(kept, k)
	}
	w.activeOrder = kept
	for _, k := range w.activeOrder {
		w.model.Reify(w.active[k].code)
	}
	w.model.ReifyDatabaseCodes()
	w.rulesChanged = true
	w.constraintsChanged = true
	return nil
}

// ---- snapshots -------------------------------------------------------------

type wsSnapshot struct {
	active             map[string]*ruleEntry
	activeOrder        []string
	constraints        []*compiledConstraint
	decls              map[string]Decl
	rulesChanged       bool
	constraintsChanged bool
}

func (w *Workspace) snapshotLocked() *wsSnapshot {
	s := &wsSnapshot{
		active:             make(map[string]*ruleEntry, len(w.active)),
		activeOrder:        append([]string{}, w.activeOrder...),
		constraints:        append([]*compiledConstraint{}, w.constraints...),
		decls:              make(map[string]Decl, len(w.decls)),
		rulesChanged:       w.rulesChanged,
		constraintsChanged: w.constraintsChanged,
	}
	for k, v := range w.active {
		s.active[k] = v
	}
	for k, v := range w.decls {
		s.decls[k] = v
	}
	return s
}

func (w *Workspace) restoreLocked(s *wsSnapshot, tx *Tx) error {
	w.active = s.active
	w.activeOrder = s.activeOrder
	w.constraints = s.constraints
	w.decls = s.decls
	w.rulesChanged = s.rulesChanged
	w.constraintsChanged = s.constraintsChanged
	// Revert base fact changes in reverse order, inverting each op, so an
	// assert/retract pair over one fact unwinds to the pre-transaction
	// state.
	for i := len(tx.facts) - 1; i >= 0; i-- {
		f := tx.facts[i]
		if f.retract {
			w.baseRel(f.pred, f.tuple.Len()).Insert(f.tuple)
		} else if rel, ok := w.base.Get(f.pred); ok {
			rel.Delete(f.tuple)
		}
	}
	if err := w.rebuildDerivedLocked(); err != nil {
		return err
	}
	if err := w.runFixpointLocked(nil); err != nil {
		return err
	}
	// The pre-transaction state was consistent; re-checking constraints
	// here is unnecessary.
	return nil
}
