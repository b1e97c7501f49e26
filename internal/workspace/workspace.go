// Package workspace implements the LogicBlox workspace of Section 3.1 of
// the paper: a database instance holding predicate definitions and a set of
// active rules, with a query interface for adding/removing facts and rules.
// When data is modified, active rules are incrementally recomputed; schema
// constraints (including meta-constraints) are checked transactionally, and
// violations roll the update back.
//
// The workspace also runs the meta-programming loop: code values appearing
// in tuples are reified into the Figure 1 meta-model, and rules derived
// into the active table are activated and evaluated, to fixpoint.
package workspace

import (
	"log/slog"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"lbtrust/internal/analysis"
	"lbtrust/internal/datalog"
	"lbtrust/internal/meta"
	"lbtrust/internal/provenance"
)

// Decl records a predicate declaration from a type constraint such as
// exp0: export[U1](U2,R,S) -> prin(U1), ... .
type Decl struct {
	Name        string
	Arity       int
	Partitioned bool
}

// ruleEntry tracks one active rule.
type ruleEntry struct {
	code       datalog.Code
	source     *datalog.Rule // me-specialized clause
	translated *datalog.Rule // pattern-translated engine clause
	owner      datalog.Sym   // "" when activated by derivation
	isCheck    bool          // head is fail(): evaluated with constraints
	derived    bool          // activated via the active table, not AddRule
}

// Workspace is a per-principal database instance with active rules.
type Workspace struct {
	mu        sync.Mutex
	principal datalog.Sym

	db       *datalog.Database
	base     *datalog.Database // asserted facts only, ground truth for recompute
	builtins *datalog.BuiltinSet
	model    *meta.Model

	userEv  *datalog.Evaluator
	checkEv *datalog.Evaluator

	active      map[string]*ruleEntry // by code key
	activeOrder []string
	constraints []*compiledConstraint
	decls       map[string]Decl

	rulesChanged       bool
	constraintsChanged bool
	prov               *provenance.Store

	// auxSeq issues workspace-lifetime-unique ids for constraint aux
	// predicates; ids are never reused so persistent aux relations cannot
	// alias across RemoveConstraint/AddConstraint cycles.
	auxSeq int
	// checkDeps maps each predicate consulted by some check rule to the
	// labels of the constraints / fail() rules depending on it. A flush
	// whose delta misses this index entirely needs no check evaluation.
	checkDeps map[string][]string
	// checkIncremental, checkFull and checkSkipped are the CheckStats
	// counters; atomic so /metrics reads them while a flush holds mu.
	checkIncremental, checkFull, checkSkipped atomic.Int64

	// OnFlush hooks run after a successful flush with the flush's delta;
	// used by the distribution runtime to ship partitioned tuples without
	// rescanning relations.
	onFlush []func(FlushDelta)
	// journal, when set, observes every successful flush at the base level
	// (asserted and retracted facts, rule and constraint changes, plus the
	// derived delta); the durability layer records it in the write-ahead
	// log. It runs under the workspace lock (commit order) but must only
	// append — never wait for the disk; journalSync, when set, runs after
	// the lock is released and blocks until everything appended so far is
	// durable. Both run before the OnFlush hooks, so a flush is durable
	// before the distribution runtime can act on it, without serializing
	// concurrent sessions behind an fsync.
	journal     func(*FlushJournal)
	journalSync func()

	// flushNew accumulates tuples newly derived by evaluation during the
	// current flush (fed by the evaluator's OnNew hook); flushRebuilt is
	// set when the flush rebuilt derived state from scratch, making the
	// accumulated delta meaningless. flushActivated records rules the meta
	// loop activated through the active table (they carry no Tx record).
	flushNew       map[string][]datalog.Tuple
	flushRebuilt   bool
	flushActivated []SchemaChange

	// restoreRebuild marks, during a store recovery, that a replayed
	// journal contained a retraction or rebuilt flush, so the logged
	// per-tuple deltas stop being authoritative and FinishRestore must
	// recompute derived state from base facts.
	restoreRebuild bool

	// Snapshot-read state (see snapshot.go): snapRels holds the frozen
	// relation versions of the last published snapshot, snapStale the
	// predicates flushed since then, snapAll that everything is stale (a
	// rebuild or restore replaced the database wholesale), snapCached the
	// current published view and snapVer its publication counter. All of
	// these are guarded by w.mu; snapPtr/snapClean additionally publish
	// the view atomically so readers whose cache is current never touch
	// w.mu at all (they must not stall behind an unrelated in-flight
	// flush).
	snapRels   map[string]*datalog.Relation
	snapStale  map[string]struct{}
	snapAll    bool
	snapCached *Snapshot
	snapVer    uint64
	snapPtr    atomic.Pointer[Snapshot]
	snapClean  atomic.Bool

	// queryLimits bounds read-side work (Workspace.Query and snapshots
	// published after SetLimits); flushLimits bounds write-side evaluation
	// (the flush fixpoint, meta loop, and constraint checks inside
	// Update). flushBudget is the counter armed for the current flush —
	// held on the workspace, not just the evaluators, because
	// rebuildDerivedLocked replaces the evaluators mid-flush and must
	// re-attach it.
	queryLimits datalog.Limits
	flushLimits datalog.Limits
	flushBudget *datalog.Budget

	// metrics and log are the workspace's observability attachment (see
	// SetObs). Both are nil by default: every instrumented site costs one
	// branch when observability is off.
	metrics *Metrics
	log     *slog.Logger
}

// RuleChange records one active-rule addition for journal observers and
// snapshots: the activated code, its owner (empty for derived
// activations), and whether it was activated through the active table.
type RuleChange struct {
	Code    datalog.Code
	Owner   datalog.Sym
	Derived bool
}

// ConstraintChange records one installed constraint for journal observers
// and snapshots. Source is the datalog.CanonicalConstraint rendering (the
// label is carried separately: labels are not always lexable), and AuxID
// is the workspace-unique id of the constraint's aux predicate, preserved
// across recovery so restored aux state cannot alias.
type ConstraintChange struct {
	AuxID  int
	Label  string
	Source string
}

// FactChange is one base-fact change in a flush journal: an assertion,
// or a retraction when Retract is set.
type FactChange struct {
	Pred    string
	Tuple   datalog.Tuple
	Retract bool
}

// SchemaKind tags one entry of a flush journal's ordered schema-change
// list.
type SchemaKind int

// The schema change kinds.
const (
	SchemaRuleAdd SchemaKind = iota
	SchemaRuleRemove
	SchemaConstraintAdd
	SchemaConstraintRemove
)

// SchemaChange is one rule or constraint change. Exactly the field named
// by Kind is meaningful. Changes are journaled as one ordered list —
// not per-kind groups — because a single transaction may add and remove
// the same rule (or same-label constraint) and replay must apply the
// operations in the order they happened to land in the same state.
type SchemaChange struct {
	Kind       SchemaKind
	Rule       RuleChange       // SchemaRuleAdd
	Code       datalog.Code     // SchemaRuleRemove
	Constraint ConstraintChange // SchemaConstraintAdd
	Label      string           // SchemaConstraintRemove
}

// FlushJournal describes one successful flush to the journal observer:
// everything needed to replay the flush against a restored workspace
// without re-running evaluation. Asserted and Retracted are ordered
// slices (transaction order), not maps: the journal is built on every
// committed flush, so it stays allocation-light.
type FlushJournal struct {
	// Facts is the transaction's base-fact changes in application order
	// (one list, so an assert/retract pair over the same fact replays to
	// the committed state).
	Facts []FactChange
	// Changed is the full flush delta (base assertions, reified meta
	// facts, derived tuples) — the same map handed to FlushDelta
	// observers. Nil when Rebuilt is set.
	Changed map[string][]datalog.Tuple
	// Rebuilt reports that the flush reconstructed derived state from
	// base facts; replay must do the same.
	Rebuilt bool
	// Schema is the transaction's rule and constraint changes, in
	// application order (derived activations by the meta loop follow the
	// transaction's own changes).
	Schema []SchemaChange
	// Decls and AuxSeq are set only by CaptureJournal. A flush's
	// declarations and aux ids replay from its constraint adds; a capture
	// lists only the constraints still installed, but a declaration
	// outlives the constraint that made it and the aux id counter
	// outlives removed constraints, so it carries both explicitly.
	Decls  []Decl
	AuxSeq int
}

// Empty reports whether the journal records no changes at all, so the
// durability layer can skip logging a no-op flush.
func (j *FlushJournal) Empty() bool {
	return len(j.Facts) == 0 && len(j.Changed) == 0 && !j.Rebuilt && len(j.Schema) == 0 &&
		len(j.Decls) == 0 && j.AuxSeq == 0
}

// SetJournal installs the flush journal observer (at most one; the
// durability layer owns it). It must be set before data is loaded —
// flushes preceding it are never logged. The observer runs under the
// workspace lock and must only enqueue the record; pair it with
// SetJournalSync when commits must wait for durability.
func (w *Workspace) SetJournal(fn func(*FlushJournal)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.journal = fn
}

// SetJournalSync installs the durability barrier run after each journaled
// flush, outside the workspace lock: Update blocks on it before
// returning (and before OnFlush hooks fire), so the flush is durable
// without the workspace serializing concurrent sessions behind the disk.
func (w *Workspace) SetJournalSync(fn func()) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.journalSync = fn
}

// FlushDelta describes one successful flush to OnFlush observers.
type FlushDelta struct {
	// Changed maps predicate name to the tuples that became newly present
	// in the database during the flush: base facts asserted by the
	// transaction, meta facts reified from carried code, and tuples derived
	// by rule evaluation. Nil when Rebuilt is set.
	Changed map[string][]datalog.Tuple
	// Rebuilt reports that the flush reconstructed derived state from base
	// facts (a retraction or rule removal ran): no per-tuple delta exists
	// and observers tracking incremental state must rescan the workspace.
	Rebuilt bool
	// NewlyPartitioned lists predicates that this transaction declared
	// partitioned for the first time. Facts of such a predicate asserted
	// before the declaration never appeared in any delta as shippable, so
	// observers must rescan them.
	NewlyPartitioned []string
}

// New creates a workspace for the given local principal (the paper's "me").
func New(principal string) *Workspace {
	w := &Workspace{
		principal: datalog.Sym(principal),
		db:        datalog.NewDatabase(),
		base:      datalog.NewDatabase(),
		builtins:  datalog.NewBuiltinSet(),
		active:    map[string]*ruleEntry{},
		decls:     map[string]Decl{},
		snapAll:   true,
	}
	w.model = meta.NewModel(w.db)
	w.userEv = datalog.NewEvaluator(w.db, w.builtins)
	w.userEv.OnNew = w.recordDerived
	w.checkEv = newCheckEvaluator(w.db, w.builtins)
	return w
}

// newCheckEvaluator builds the evaluator running constraint and fail()
// rules. Aux predicates are marked growth-safe for delta classification:
// they live strictly below the fail rules that negate them, so fresh aux
// facts can only suppress violations, never create them.
func newCheckEvaluator(db *datalog.Database, builtins *datalog.BuiltinSet) *datalog.Evaluator {
	ev := datalog.NewEvaluator(db, builtins)
	ev.SafeNeg = func(pred string) bool { return strings.HasPrefix(pred, auxPredPrefix) }
	return ev
}

// SetLimits installs resource limits: query bounds read-side evaluation
// (Workspace.Query and every snapshot published from now on), flush bounds
// write-side evaluation inside Update (rule fixpoint, meta loop, and
// constraint checks). Zero-value Limits mean unlimited. A tripped flush
// budget fails the transaction with a *datalog.LimitError and the
// workspace rolls back to its pre-transaction state exactly as any other
// flush failure does; the rollback itself is never budgeted.
func (w *Workspace) SetLimits(query, flush datalog.Limits) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.queryLimits = query
	w.flushLimits = flush
	// Already-published snapshots carry the old query limits; force the
	// next Snapshot() call to publish a fresh view.
	w.snapAll = true
	w.snapClean.Store(false)
}

// Limits returns the currently configured (query, flush) limits.
func (w *Workspace) Limits() (query, flush datalog.Limits) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.queryLimits, w.flushLimits
}

// CheckStats reports how constraint checking resolved the flushes so far.
func (w *Workspace) CheckStats() CheckStats {
	return CheckStats{
		Incremental: w.checkIncremental.Load(),
		Full:        w.checkFull.Load(),
		Skipped:     w.checkSkipped.Load(),
	}
}

// recordDerived accumulates evaluator insertions into the current flush
// delta. It runs under w.mu (evaluation holds the workspace lock).
func (w *Workspace) recordDerived(pred string, t datalog.Tuple) {
	if w.flushNew == nil || w.flushRebuilt {
		return
	}
	w.flushNew[pred] = append(w.flushNew[pred], t)
}

// Principal returns the local principal symbol.
func (w *Workspace) Principal() datalog.Sym { return w.principal }

// Builtins exposes the built-in registry so callers can install the
// cryptographic primitives.
func (w *Workspace) Builtins() *datalog.BuiltinSet { return w.builtins }

// DB exposes the underlying database for read-only inspection.
func (w *Workspace) DB() *datalog.Database { return w.db }

// AddOnFlush registers a hook invoked after each successful flush with the
// flush's delta (see FlushDelta).
func (w *Workspace) AddOnFlush(fn func(FlushDelta)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.onFlush = append(w.onFlush, fn)
}

// Decls returns the recorded predicate declarations.
func (w *Workspace) Decls() []Decl {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]Decl, 0, len(w.decls))
	for _, d := range w.decls {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// substMe specializes the distinguished symbol me to the local principal,
// throughout the clause including quoted code (so that exported facts carry
// the sender's identity, as in the paper's dd3 and ls2 rules).
func substMe(r *datalog.Rule, principal datalog.Sym) *datalog.Rule {
	out := r.Clone()
	var fixTerm func(t datalog.Term) datalog.Term
	fixAtom := func(a *datalog.Atom) {
		if a.Part != nil {
			a.Part = fixTerm(a.Part)
		}
		for i, t := range a.Args {
			a.Args[i] = fixTerm(t)
		}
	}
	var fixRule func(r *datalog.Rule)
	fixTerm = func(t datalog.Term) datalog.Term {
		switch t := t.(type) {
		case datalog.Const:
			if s, ok := t.Val.(datalog.Sym); ok && s == datalog.Me {
				return datalog.Const{Val: principal}
			}
			if c, ok := t.Val.(datalog.Code); ok {
				inner := c.Rule().Clone()
				fixRule(inner)
				return datalog.Const{Val: datalog.NewCode(inner)}
			}
			return t
		case datalog.Quote:
			inner := t.Pat.Clone()
			fixRule(inner)
			return datalog.Quote{Pat: inner}
		case datalog.Arith:
			return datalog.Arith{Op: t.Op, L: fixTerm(t.L), R: fixTerm(t.R)}
		case datalog.TermPart:
			return datalog.TermPart{Pred: t.Pred, Arg: fixTerm(t.Arg)}
		}
		return t
	}
	fixRule = func(r *datalog.Rule) {
		for i := range r.Heads {
			fixAtom(&r.Heads[i])
		}
		for i := range r.Body {
			fixAtom(&r.Body[i].Atom)
		}
	}
	fixRule(out)
	return out
}

// SpecializeCode returns the code value under which a clause is activated
// in a workspace of the given principal: me-specialized and canonicalized.
func SpecializeCode(r *datalog.Rule, principal datalog.Sym) datalog.Code {
	return datalog.NewCode(substMe(r, principal))
}

// LoadProgram parses and installs a program: declarations register
// predicates, ground facts are asserted, rules and constraints are added.
// The whole load is one transaction; constraint violations roll it back.
//
// Before anything is installed the program is run through the static
// analyzer against this workspace's active rules and declarations;
// error-severity diagnostics refuse the load with an *analysis.Error
// carrying the typed codes (warnings do not block — callers that want
// them should run AnalyzeSource themselves).
func (w *Workspace) LoadProgram(src string) error {
	prog, err := datalog.ParseProgram(src)
	if err != nil {
		return err
	}
	if diags := w.AnalyzeProgram(prog); analysis.HasErrors(diags) {
		return analysis.NewError(diags)
	}
	return w.Update(func(tx *Tx) error {
		for _, c := range prog.Constraints {
			if err := tx.AddConstraint(c); err != nil {
				return err
			}
		}
		for _, r := range prog.Rules {
			if r.IsFact() && isGroundAtom(&r.Heads[0]) {
				if err := tx.AssertAtom(&r.Heads[0]); err != nil {
					return err
				}
				continue
			}
			if err := tx.AddRule(r); err != nil {
				return err
			}
		}
		return nil
	})
}

func isGroundAtom(a *datalog.Atom) bool {
	ground := true
	var check func(t datalog.Term)
	check = func(t datalog.Term) {
		switch t := t.(type) {
		case datalog.Var, datalog.StarVar:
			ground = false
		case datalog.Arith:
			check(t.L)
			check(t.R)
		case datalog.TermPart:
			check(t.Arg)
		}
	}
	for _, t := range a.AllArgs() {
		check(t)
	}
	return ground && a.Pred != "" && a.PredVar == "" && a.AtomVar == ""
}

// Query evaluates a single atom against the workspace, in surface syntax.
// Quoted-code arguments act as patterns, exactly as in rule bodies: for
// example Query(`says(bob, me, [| access(P,O,read). |])`) returns the says
// tuples whose carried rule matches the pattern. The returned tuples have
// the relation's shape (code values stay in their argument positions).
func (w *Workspace) Query(src string) ([]datalog.Tuple, error) {
	atom, err := parseQueryAtom(src, w.principal)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if b := w.queryLimits.NewBudget(); b != nil {
		w.userEv.Budget = b
		defer func() { w.userEv.Budget = nil }()
	}
	if !atomHasQuote(atom) {
		return w.userEv.Query(atom)
	}
	return w.queryPatternLocked(atom)
}

func atomHasQuote(a *datalog.Atom) bool {
	for _, t := range a.AllArgs() {
		if _, ok := t.(datalog.Quote); ok {
			return true
		}
	}
	return false
}

// queryPatternLocked evaluates an atom whose arguments contain quoted-code
// patterns against the current database. The shared overlay-based helper
// (see snapshot.go) keeps the transient result relation out of w.db.
func (w *Workspace) queryPatternLocked(a *datalog.Atom) ([]datalog.Tuple, error) {
	return queryPattern(w.db, w.builtins, a, w.queryLimits, w.metrics.evalMetrics())
}

// BaseFacts returns the sorted asserted (non-derived) tuples of a
// predicate.
func (w *Workspace) BaseFacts(pred string) []datalog.Tuple {
	w.mu.Lock()
	defer w.mu.Unlock()
	rel, ok := w.base.Get(pred)
	if !ok {
		return nil
	}
	return rel.Sorted()
}

// Facts returns the sorted tuples of a predicate.
func (w *Workspace) Facts(pred string) []datalog.Tuple {
	w.mu.Lock()
	defer w.mu.Unlock()
	rel, ok := w.db.Get(pred)
	if !ok {
		return nil
	}
	return rel.Sorted()
}

// Count returns the number of tuples in a predicate.
func (w *Workspace) Count(pred string) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	rel, ok := w.db.Get(pred)
	if !ok {
		return 0
	}
	return rel.Len()
}

// ActiveRules returns the code values of all active rules, sorted by
// canonical form.
func (w *Workspace) ActiveRules() []datalog.Code {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]datalog.Code, 0, len(w.activeOrder))
	for _, k := range w.activeOrder {
		out = append(out, w.active[k].code)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// PartitionedPredicates lists declared partitioned predicates.
func (w *Workspace) PartitionedPredicates() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []string
	for _, d := range w.decls {
		if d.Partitioned {
			out = append(out, d.Name)
		}
	}
	sort.Strings(out)
	return out
}
