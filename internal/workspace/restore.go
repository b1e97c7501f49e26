// Durability support: a workspace's durable state is written down in one
// vocabulary, the flush journal. Every committed flush journals its
// changes (tx.go); CaptureJournal renders the whole current state in the
// same form — a compacted log — for checkpoints; ApplyJournal replays
// either. Replay runs in "load mode": logged tuples are inserted directly
// into the base and full databases and logged rules/constraints are
// re-installed without running evaluation or constraint checks — the log
// records state that was already derived and validated before the crash.
// Only when the journal contains a retraction or rebuilt flush (whose
// per-tuple delta is void by construction) does FinishRestore fall back
// to recomputing derived state from base facts.
package workspace

import (
	"cmp"
	"fmt"
	"slices"

	"lbtrust/internal/datalog"
	"lbtrust/internal/meta"
)

// checkStatePred reports relations that hold check-evaluator state, which
// captures skip: aux relations are rebuilt by the first full check after
// restore, and fail relations are empty in any committed state.
func checkStatePred(name string) bool {
	if len(name) >= len(auxPredPrefix) && name[:len(auxPredPrefix)] == auxPredPrefix {
		return true
	}
	return name == failPred || name == "fail"
}

// captureChunk is how many tuples one captured journal carries: it bounds
// the size of a snapshot record however large the workspace.
const captureChunk = 4096

// CaptureJournal renders the workspace's full state as flush journals
// that, replayed in order by ApplyJournal into a fresh workspace and
// finished with FinishRestore, rebuild it without re-running evaluation.
// The first journal carries the declarations, the aux id counter, every
// installed constraint (with its original aux id) and every active rule
// in activation order; base tuples follow as Facts and the rest of the
// database (derived tuples and meta facts) as Changed, so each tuple is
// stored once. Check-evaluator state is deliberately excluded — the first
// post-restore flush with checks rebuilds it with one full constraint
// pass. Tuples are shared with the live database (they are immutable);
// relation contents are sorted so identical states serialize identically.
//
// The workspace lock is held only for the O(1)-per-relation copy-on-write
// clones plus the schema copies — materializing and sorting the tuples
// (the expensive part, proportional to total database size) happens after
// the lock is released, so a large capture does not stall concurrent
// flushes.
func (w *Workspace) CaptureJournal() []*FlushJournal {
	w.mu.Lock()
	head := &FlushJournal{AuxSeq: w.auxSeq}
	for _, d := range w.decls {
		head.Decls = append(head.Decls, d)
	}
	for _, cc := range w.constraints {
		head.Schema = append(head.Schema, SchemaChange{Kind: SchemaConstraintAdd, Constraint: ConstraintChange{
			AuxID: cc.auxID, Label: cc.label, Source: cc.source,
		}})
	}
	for _, k := range w.activeOrder {
		e := w.active[k]
		head.Schema = append(head.Schema, SchemaChange{Kind: SchemaRuleAdd, Rule: RuleChange{
			Code: e.code, Owner: e.owner, Derived: e.derived,
		}})
	}
	type capturedRel struct {
		name string
		rel  *datalog.Relation // COW clone, private to the capture
		base *datalog.Relation // COW clone of the base overlay, derived pass only
	}
	var baseRels, derivedRels []capturedRel
	for _, name := range w.base.Names() {
		rel, _ := w.base.Get(name)
		baseRels = append(baseRels, capturedRel{name: name, rel: rel.Clone()})
	}
	for _, name := range w.db.Names() {
		if checkStatePred(name) {
			continue
		}
		rel, _ := w.db.Get(name)
		cr := capturedRel{name: name, rel: rel.Clone()}
		if base, ok := w.base.Get(name); ok {
			cr.base = base.Clone()
		}
		derivedRels = append(derivedRels, cr)
	}
	w.mu.Unlock()

	slices.SortFunc(head.Decls, func(a, b Decl) int { return cmp.Compare(a.Name, b.Name) })
	out := []*FlushJournal{head}
	cur, n := head, 0
	next := func() *FlushJournal {
		if n == captureChunk {
			cur, n = &FlushJournal{}, 0
			out = append(out, cur)
		}
		n++
		return cur
	}
	for _, cr := range baseRels {
		for _, t := range cr.rel.Sorted() {
			j := next()
			j.Facts = append(j.Facts, FactChange{Pred: cr.name, Tuple: t})
		}
	}
	for _, cr := range derivedRels {
		for _, t := range cr.rel.Sorted() {
			if cr.base != nil && cr.base.Contains(t) {
				continue
			}
			j := next()
			if j.Changed == nil {
				j.Changed = map[string][]datalog.Tuple{}
			}
			j.Changed[cr.name] = append(j.Changed[cr.name], t)
		}
	}
	return out
}

// installConstraintLocked re-compiles a logged constraint under its
// original aux id. Replay must be idempotent (a checkpoint can capture
// state whose journal record lands in the rotated log), so a constraint
// whose exact (auxID, label, source) is already installed is skipped;
// distinct installations of an identical constraint have distinct aux ids
// and both replay.
func (w *Workspace) installConstraintLocked(change ConstraintChange) error {
	for _, cc := range w.constraints {
		if cc.auxID == change.AuxID && cc.label == change.Label && cc.source == change.Source {
			return nil
		}
	}
	c, err := datalog.ParseConstraint(change.Source, change.Label)
	if err != nil {
		return fmt.Errorf("workspace: restoring constraint %q: %w", change.Label, err)
	}
	cc, decls, err := compileConstraint(c, change.AuxID, w.principal)
	if err != nil {
		return fmt.Errorf("workspace: restoring constraint %q: %w", change.Label, err)
	}
	for _, d := range decls {
		w.registerDecl(d)
	}
	if change.AuxID > w.auxSeq {
		w.auxSeq = change.AuxID
	}
	if cc != nil {
		cc.auxID = change.AuxID
		cc.source = change.Source
		w.constraints = append(w.constraints, cc)
	}
	w.constraintsChanged = true
	return nil
}

// installRuleLocked re-activates a logged rule. Idempotent: the active
// table is keyed by code.
func (w *Workspace) installRuleLocked(change RuleChange) error {
	key := change.Code.Key()
	if _, ok := w.active[key]; ok {
		return nil
	}
	entry, err := newRuleEntry(change.Code, change.Code.Rule(), change.Owner)
	if err != nil {
		return fmt.Errorf("workspace: restoring rule %s: %w", change.Code.String(), err)
	}
	entry.derived = change.Derived
	w.active[key] = entry
	w.activeOrder = append(w.activeOrder, key)
	w.rulesChanged = true
	if entry.isCheck {
		w.constraintsChanged = true
	}
	return nil
}

// ApplyJournal replays one journal — a logged flush or a piece of a
// capture — in load mode: base changes and the logged derived delta are
// applied directly, with no evaluation. Replay is idempotent, so a flush
// that is both captured in a snapshot and present in the log applies
// cleanly. Declarations and the aux id counter (captures only) land
// before the schema changes, so base relations created below inherit
// their partitioned flag. Schema changes replay in their recorded
// order, so a transaction that adds and then removes the same rule lands
// removed, exactly as it committed.
func (w *Workspace) ApplyJournal(j *FlushJournal) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if j.AuxSeq > w.auxSeq {
		w.auxSeq = j.AuxSeq
	}
	for _, d := range j.Decls {
		w.registerDecl(d)
	}
	for _, op := range j.Schema {
		switch op.Kind {
		case SchemaConstraintRemove:
			kept := w.constraints[:0]
			for _, cc := range w.constraints {
				if cc.label == op.Label {
					if rel, ok := w.db.Get(cc.auxPred); ok {
						rel.Clear()
					}
					w.constraintsChanged = true
					continue
				}
				kept = append(kept, cc)
			}
			w.constraints = kept
		case SchemaRuleRemove:
			key := op.Code.Key()
			if _, ok := w.active[key]; !ok {
				continue
			}
			delete(w.active, key)
			for i, k := range w.activeOrder {
				if k == key {
					w.activeOrder = append(w.activeOrder[:i], w.activeOrder[i+1:]...)
					break
				}
			}
			w.rulesChanged = true
		case SchemaConstraintAdd:
			if err := w.installConstraintLocked(op.Constraint); err != nil {
				return err
			}
		case SchemaRuleAdd:
			if err := w.installRuleLocked(op.Rule); err != nil {
				return err
			}
		default:
			return fmt.Errorf("workspace: unknown schema change kind %d", op.Kind)
		}
	}
	for _, f := range j.Facts {
		if f.Retract {
			if rel, ok := w.base.Get(f.Pred); ok && rel.Delete(f.Tuple) {
				w.restoreRebuild = true
			}
			continue
		}
		w.baseRel(f.Pred, f.Tuple.Len()).Insert(f.Tuple)
		w.db.Rel(f.Pred, f.Tuple.Len()).Insert(f.Tuple)
	}
	if j.Rebuilt {
		w.restoreRebuild = true
	}
	if !w.restoreRebuild {
		for pred, tuples := range j.Changed {
			if len(tuples) == 0 {
				continue
			}
			dst := w.db.Rel(pred, tuples[0].Len())
			for _, t := range tuples {
				dst.Insert(t)
			}
		}
	}
	w.snapAll = true
	w.snapClean.Store(false)
	return nil
}

// FinishRestore completes a restore. When the replayed journal contained
// retractions or rebuilt flushes, derived state is recomputed from base
// facts (the logged deltas stopped being authoritative at that point);
// otherwise the restored database is complete and only the bookkeeping is
// rebuilt: the meta model re-adopts the database and the user evaluator
// recompiles its rules, so the next Update runs incrementally.
// constraintsChanged stays set either way — the first post-restore flush
// with checks runs one full constraint pass, rebuilding the aux relations
// that snapshots and the log do not carry.
func (w *Workspace) FinishRestore() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.restoreRebuild {
		w.restoreRebuild = false
		if err := w.rebuildDerivedLocked(); err != nil {
			return err
		}
		return w.runFixpointLocked(nil)
	}
	w.model = meta.AdoptModel(w.db)
	return w.refreshRulesLocked()
}
