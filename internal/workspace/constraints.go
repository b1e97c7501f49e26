package workspace

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"lbtrust/internal/datalog"
	"lbtrust/internal/meta"
)

// failPred is the internal relation collecting constraint violations; the
// paper's user-visible fail() predicate is checked alongside it.
const failPred = "lb:fail"

// auxPredPrefix prefixes the auxiliary predicates capturing the
// existentially quantified RHS of each constraint. Aux relations are
// maintained incrementally across flushes; the prefix identifies them to
// the engine's SafeNeg classification (their growth only suppresses fail
// derivations) and keeps them out of the dependency index.
const auxPredPrefix = "lb:aux:"

// compiledConstraint is a schema constraint lowered to Datalog rules per
// Section 3.2 of the paper: F1 -> F2 behaves as fail() <- F1, !F2, with the
// existentially quantified RHS captured by an auxiliary predicate:
//
//	aux(shared) <- F1, F2alt.       (one rule per RHS alternative)
//	lb:fail(label) <- F1, !aux(shared).
type compiledConstraint struct {
	label    string
	auxPred  string
	rules    []*datalog.Rule
	declOnly bool
	// auxID and source identify the constraint for durability: auxID is
	// the workspace-unique id its aux predicate was compiled with, source
	// the canonical re-parseable rendering (label carried separately).
	auxID  int
	source string
}

// compileConstraint lowers one constraint. It also extracts predicate
// declarations (name, arity, partitionedness) from the LHS atoms, which is
// how exp0-style type declarations register schemas. auxID must be unique
// across the workspace's lifetime (not reused after RemoveConstraint):
// aux relations persist between flushes, so a reused name would let a
// removed constraint's leftover aux facts suppress a new constraint's
// violations. Auto-generated labels use the same unique id — a positional
// default would alias a live constraint's label after a removal, and
// labels key RemoveConstraint, violation dedup, and the dependency index.
func compileConstraint(c *datalog.Constraint, auxID int, principal datalog.Sym) (*compiledConstraint, []Decl, error) {
	label := c.Label
	if label == "" {
		label = fmt.Sprintf("constraint#%d", auxID)
	}
	// me-specialize both sides by round-tripping through a dummy rule.
	lhs := substLits(c.LHS, principal)
	var decls []Decl
	for i := range lhs {
		a := &lhs[i]
		if a.Atom.Pred == "" || a.Negated {
			continue
		}
		decls = append(decls, Decl{
			Name:        a.Atom.Pred,
			Arity:       a.Atom.Arity(),
			Partitioned: a.Atom.Part != nil,
		})
	}
	if len(c.RHS) == 0 {
		return nil, decls, nil // pure declaration
	}

	lhsT, err := translateLits(lhs)
	if err != nil {
		return nil, nil, fmt.Errorf("constraint %s: %w", label, err)
	}
	lhsVars := litVars(lhsT)

	auxPred := fmt.Sprintf("%s%d", auxPredPrefix, auxID)
	var rules []*datalog.Rule
	sharedSet := map[string]bool{}
	var altBodies [][]datalog.Literal
	for _, alt := range c.RHS {
		altT, err := translateLits(substLits(alt, principal))
		if err != nil {
			return nil, nil, fmt.Errorf("constraint %s: %w", label, err)
		}
		altBodies = append(altBodies, altT)
		for v := range litVars(altT) {
			if lhsVars[v] {
				sharedSet[v] = true
			}
		}
	}
	shared := make([]string, 0, len(sharedSet))
	for v := range sharedSet {
		shared = append(shared, v)
	}
	sort.Strings(shared)
	sharedTerms := make([]datalog.Term, len(shared))
	for i, v := range shared {
		sharedTerms[i] = datalog.Var(v)
	}

	for _, altT := range altBodies {
		body := make([]datalog.Literal, 0, len(lhsT)+len(altT))
		body = append(body, lhsT...)
		body = append(body, altT...)
		rules = append(rules, &datalog.Rule{
			Label: label + ":aux",
			Heads: []datalog.Atom{{Pred: auxPred, Args: sharedTerms}},
			Body:  body,
		})
	}
	failBody := make([]datalog.Literal, 0, len(lhsT)+1)
	failBody = append(failBody, lhsT...)
	failBody = append(failBody, datalog.Literal{
		Negated: true,
		Atom:    datalog.Atom{Pred: auxPred, Args: sharedTerms},
	})
	rules = append(rules, &datalog.Rule{
		Label: label,
		Heads: []datalog.Atom{{Pred: failPred, Args: []datalog.Term{datalog.Const{Val: datalog.String(label)}}}},
		Body:  failBody,
	})
	return &compiledConstraint{label: label, auxPred: auxPred, rules: rules}, decls, nil
}

func substLits(lits []datalog.Literal, principal datalog.Sym) []datalog.Literal {
	dummy := &datalog.Rule{Heads: []datalog.Atom{{Pred: "lb:dummy"}}, Body: lits}
	return substMe(dummy, principal).Body
}

func translateLits(lits []datalog.Literal) ([]datalog.Literal, error) {
	dummy := &datalog.Rule{Heads: []datalog.Atom{{Pred: "lb:dummy"}}, Body: lits}
	out, err := meta.TranslatePatterns(dummy)
	if err != nil {
		return nil, err
	}
	return out.Body, nil
}

func litVars(lits []datalog.Literal) map[string]bool {
	dummy := &datalog.Rule{Heads: []datalog.Atom{{Pred: "lb:dummy"}}, Body: lits}
	return dummy.Vars()
}

// Violation describes one constraint violation with the premises that
// triggered it.
type Violation struct {
	Constraint string
	Premises   []datalog.Premise
}

func (v Violation) String() string {
	var b strings.Builder
	b.WriteString(v.Constraint)
	if len(v.Premises) > 0 {
		b.WriteString(" [")
		for i, p := range v.Premises {
			if i > 0 {
				b.WriteString("; ")
			}
			b.WriteString(p.Pred)
			b.WriteString(p.Tuple.String())
		}
		b.WriteString("]")
	}
	return b.String()
}

// ViolationError reports constraint violations that aborted a transaction.
type ViolationError struct {
	Violations []Violation
}

func (e *ViolationError) Error() string {
	var b strings.Builder
	b.WriteString("workspace: constraint violation")
	if len(e.Violations) > 1 {
		fmt.Fprintf(&b, "s (%d)", len(e.Violations))
	}
	b.WriteString(": ")
	for i, v := range e.Violations {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(v.String())
	}
	return b.String()
}

// CheckStats counts how constraint checking resolved flushes, for tests
// and benchmarks that assert the incremental path is actually taken.
type CheckStats struct {
	// Incremental counts flushes checked by seeding the check evaluator
	// with the flush delta (cost proportional to the fresh tuples).
	Incremental int64
	// Full counts flushes checked by clearing the aux/fail relations and
	// re-evaluating every constraint against the whole database —
	// retractions, rebuilds, constraint or check-rule changes, and
	// delta-affected negation/aggregation all land here.
	Full int64
	// Skipped counts flushes that ran no check evaluation at all: the
	// workspace has no constraints and no fail() rules, or no predicate of
	// the flush delta occurs in any check-rule body.
	Skipped int64
}

// checkConstraintsLocked evaluates the constraints and user fail() rules
// and returns a ViolationError when any fail.
//
// When canDelta is set, delta holds every tuple that became newly present
// in the database during this flush (base assertions, reified meta facts,
// and derived tuples) and the committed pre-flush state is known to be
// violation-free. The check is then driven incrementally: aux relations
// are maintained in place (an insert-only flush can only grow them), and
// only fail-rule instantiations joining at least one fresh tuple are
// enumerated, which is complete because a violation among old tuples only
// would have been reported by the previous flush's check. Retractions,
// rebuilds, constraint or check-rule changes, and deltas touching negated
// or aggregated premises fall back to the full re-evaluation.
func (w *Workspace) checkConstraintsLocked(delta map[string][]datalog.Tuple, canDelta bool) error {
	if len(w.constraints) == 0 && !w.hasCheckRulesLocked() {
		// Fast path: nothing to check — skip compilation, the per-constraint
		// clear loop, and the evaluator run entirely. constraintsChanged is
		// left as-is so a later AddConstraint still recompiles.
		w.checkSkipped.Add(1)
		return nil
	}
	if w.constraintsChanged {
		if err := w.compileChecksLocked(); err != nil {
			return err
		}
		// New or removed check rules must see the whole database once (a
		// late AddConstraint can be violated by pre-existing facts, and the
		// aux relations of new constraints are empty until seeded).
		canDelta = false
	}
	if canDelta {
		filtered := w.filterCheckDeltaLocked(delta)
		if filtered == nil {
			// No predicate of the delta occurs in any check-rule body: the
			// flush cannot have created a violation or a new aux fact.
			w.checkSkipped.Add(1)
			return nil
		}
		violations, err := w.runChecksLocked(filtered)
		switch {
		case errors.Is(err, datalog.ErrNeedsFullEval):
			// Classification is purely static and runs before any
			// evaluation, so falling through to the full check is safe.
		case err != nil:
			return fmt.Errorf("workspace: checking constraints: %w", err)
		default:
			w.checkIncremental.Add(1)
			return violationError(violations)
		}
	}
	w.checkFull.Add(1)
	// Full re-evaluation: clear previous check results and recompute from
	// scratch (fail/aux predicates never feed user rules).
	for _, cc := range w.constraints {
		if rel, ok := w.db.Get(cc.auxPred); ok {
			rel.Clear()
		}
	}
	if rel, ok := w.db.Get(failPred); ok {
		rel.Clear()
	}
	if rel, ok := w.db.Get("fail"); ok {
		rel.Clear()
	}
	violations, err := w.runChecksLocked(nil)
	if err != nil {
		return fmt.Errorf("workspace: checking constraints: %w", err)
	}
	return violationError(violations)
}

// compileChecksLocked (re)installs the check-rule set — the lowered
// constraints plus the user rules with fail() heads — and rebuilds the
// per-predicate dependency index mapping each body predicate to the labels
// of the checks that consult it.
func (w *Workspace) compileChecksLocked() error {
	var rules []*datalog.Rule
	for _, cc := range w.constraints {
		rules = append(rules, cc.rules...)
	}
	for _, k := range w.activeOrder {
		if e := w.active[k]; e.isCheck {
			rules = append(rules, e.translated)
		}
	}
	if err := w.checkEv.SetRules(rules); err != nil {
		return fmt.Errorf("workspace: compiling constraints: %w", err)
	}
	deps := map[string][]string{}
	index := func(label string, r *datalog.Rule) {
		for i := range r.Body {
			pred := r.Body[i].Atom.Pred
			if pred == "" || w.builtins.Has(pred) || strings.HasPrefix(pred, auxPredPrefix) {
				continue
			}
			labels := deps[pred]
			dup := false
			for _, l := range labels {
				if l == label {
					dup = true
					break
				}
			}
			if !dup {
				deps[pred] = append(labels, label)
			}
		}
	}
	for _, cc := range w.constraints {
		for _, r := range cc.rules {
			index(cc.label, r)
		}
	}
	for _, k := range w.activeOrder {
		if e := w.active[k]; e.isCheck {
			label := e.translated.Label
			if label == "" {
				label = "fail()"
			}
			index(label, e.translated)
		}
	}
	w.checkDeps = deps
	w.constraintsChanged = false
	return nil
}

// hasCheckRulesLocked reports whether any active rule has a fail() head.
func (w *Workspace) hasCheckRulesLocked() bool {
	for _, k := range w.activeOrder {
		if w.active[k].isCheck {
			return true
		}
	}
	return false
}

// filterCheckDeltaLocked restricts a flush delta to the predicates some
// check rule actually consults (per the dependency index). It returns nil
// when no predicate intersects, meaning the check can be skipped outright.
func (w *Workspace) filterCheckDeltaLocked(delta map[string][]datalog.Tuple) map[string][]datalog.Tuple {
	var out map[string][]datalog.Tuple
	for pred, tuples := range delta {
		if len(tuples) == 0 {
			continue
		}
		if _, ok := w.checkDeps[pred]; !ok {
			continue
		}
		if out == nil {
			out = make(map[string][]datalog.Tuple, len(delta))
		}
		out[pred] = tuples
	}
	return out
}

// runChecksLocked evaluates the check rules — fully when seed is nil,
// seeded with the flush delta otherwise — and returns the deduplicated,
// deterministically ordered violations. Both paths observe every
// derivation (not just first tuple inserts), so they report identical
// violation sets for the same database state.
func (w *Workspace) runChecksLocked(seed map[string][]datalog.Tuple) ([]Violation, error) {
	var raw []Violation
	w.checkEv.OnDerive = func(pred string, t datalog.Tuple, r *datalog.Rule, premises []datalog.Premise) {
		switch pred {
		case failPred:
			label := ""
			if s, ok := t.At(0).(datalog.String); ok {
				label = string(s)
			}
			raw = append(raw, Violation{Constraint: label, Premises: filterMetaPremises(premises)})
		case "fail":
			label := r.Label
			if label == "" {
				label = "fail()"
			}
			raw = append(raw, Violation{Constraint: label, Premises: filterMetaPremises(premises)})
		}
	}
	var err error
	if seed == nil {
		err = w.checkEv.Run()
	} else {
		err = w.checkEv.RunDelta(seed)
	}
	w.checkEv.OnDerive = nil
	if err != nil {
		return nil, err
	}
	return canonicalViolations(raw), nil
}

// canonicalViolations sorts the premises within each violation, orders the
// violations, and drops duplicates (the same label and premise set can be
// derived once per RHS alternative, join order, or delta seed position).
func canonicalViolations(raw []Violation) []Violation {
	if len(raw) == 0 {
		return nil
	}
	keys := make([]string, len(raw))
	for i := range raw {
		sort.Slice(raw[i].Premises, func(a, b int) bool {
			pa, pb := raw[i].Premises[a], raw[i].Premises[b]
			if pa.Pred != pb.Pred {
				return pa.Pred < pb.Pred
			}
			return pa.Tuple.Key() < pb.Tuple.Key()
		})
		var b strings.Builder
		b.WriteString(raw[i].Constraint)
		for _, p := range raw[i].Premises {
			b.WriteString("\x1f")
			b.WriteString(p.Pred)
			b.WriteString("\x1e")
			b.WriteString(p.Tuple.Key())
		}
		keys[i] = b.String()
	}
	order := make([]int, len(raw))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	out := make([]Violation, 0, len(raw))
	for n, i := range order {
		if n > 0 && keys[i] == keys[order[n-1]] {
			continue
		}
		out = append(out, raw[i])
	}
	return out
}

// violationError wraps a non-empty violation list in a ViolationError.
func violationError(violations []Violation) error {
	if len(violations) == 0 {
		return nil
	}
	return &ViolationError{Violations: violations}
}

// filterMetaPremises drops meta-model bookkeeping facts from violation
// reports, keeping the user-level premises that explain the failure.
func filterMetaPremises(premises []datalog.Premise) []datalog.Premise {
	var out []datalog.Premise
	for _, p := range premises {
		if meta.IsMetaPredicate(p.Pred) {
			continue
		}
		out = append(out, p)
	}
	return out
}
