package workspace

import (
	"errors"
	"fmt"

	"lbtrust/internal/datalog"
	"lbtrust/internal/meta"
	"lbtrust/internal/provenance"
)

// This file wires the provenance subsystem (internal/provenance) into the
// workspace lifecycle: capture through the evaluator's OnDerive hook,
// re-capture across retraction-driven rebuilds, proof construction down
// to base facts and remote Sync leaves, and independent verification of
// every returned proof against the loaded rules.

// EnableProvenance switches on derivation recording, bounded by
// limitBytes of datalog.TupleCost accounting (<= 0 selects
// provenance.DefaultMemBytes). It may be called at any point in the
// workspace's life: the evaluator's OnDerive hook fires on every
// successful body instantiation — not just fresh inserts — so the full
// evaluation run performed here re-captures derivations for state loaded
// before the call (this is also how proofs reappear after crash
// recovery: replayed state is re-derived, never journaled).
func (w *Workspace) EnableProvenance(limitBytes int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.prov = provenance.NewStore(limitBytes)
	w.userEv.OnDerive = w.prov.Record
	return w.userEv.Run()
}

// RecordRemoteLeaf records leaf provenance for a tuple delivered by the
// distribution runtime: the origin node, the exporting principal, and the
// envelope trace ID. No-op when provenance is disabled (one branch, the
// obs convention).
func (w *Workspace) RecordRemoteLeaf(pred string, t datalog.Tuple, node, sender, trace string) {
	if w.prov == nil {
		return
	}
	w.prov.RecordRemote(pred, t, provenance.Remote{Node: node, Sender: sender, Trace: trace})
}

// Explain returns the proof tree for one tuple: the chosen derivation's
// rule and premise subtrees, down to asserted base facts, says-attributed
// credentials, and remote Sync leaves. The tuple must be present in the
// database; explaining an absent tuple is an error rather than a
// fabricated "base fact" answer.
func (w *Workspace) Explain(pred string, t datalog.Tuple) (*provenance.Proof, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.explainLocked(pred, t)
}

func (w *Workspace) explainLocked(pred string, t datalog.Tuple) (*provenance.Proof, error) {
	if w.prov == nil {
		return nil, fmt.Errorf("workspace: provenance not enabled for %s", w.principal)
	}
	rel, ok := w.db.Get(pred)
	if !ok || !rel.Contains(t) {
		return nil, fmt.Errorf("workspace: no fact %s%s to explain", pred, t.String())
	}
	p := w.prov.Explain(pred, t)
	w.attachActivationsLocked(p, w.derivedRuleCodesLocked(), map[string]bool{})
	return p, nil
}

// derivedRuleCodesLocked maps each engine rule installed through the
// active table (a derived activation, e.g. via says1) to the code value
// that activated it, keyed by the rule text OnDerive reports.
func (w *Workspace) derivedRuleCodesLocked() map[string]datalog.Code {
	var m map[string]datalog.Code
	for _, k := range w.activeOrder {
		e := w.active[k]
		if !e.derived || e.isCheck {
			continue
		}
		if m == nil {
			m = map[string]datalog.Code{}
		}
		for _, r := range e.translated.SplitHeads() {
			m[r.String()] = e.code
		}
	}
	return m
}

// attachActivationsLocked completes a proof tree with activation
// credentials: every step taken by a rule that was activated through the
// active table gains the proof of its active(R) fact, so the tree
// descends through says1 and the says chain to the credential that
// authorized the rule — a remote Sync leaf when it crossed nodes. The
// seen set guards against activation chains that loop (a said rule whose
// derivations support its own credential).
func (w *Workspace) attachActivationsLocked(p *provenance.Proof, derived map[string]datalog.Code, seen map[string]bool) {
	if p == nil || p.Rule == nil || len(derived) == 0 {
		return
	}
	for _, sub := range p.Premises {
		w.attachActivationsLocked(sub, derived, seen)
	}
	code, ok := derived[p.Rule.String()]
	if !ok {
		return
	}
	at := datalog.NewTuple(code)
	if seen[code.Key()] {
		p.Activation = &provenance.Proof{Pred: meta.PredActive, Tuple: at, Cycle: true}
		return
	}
	seen[code.Key()] = true
	p.Activation = w.prov.Explain(meta.PredActive, at)
	w.attachActivationsLocked(p.Activation, derived, seen)
	delete(seen, code.Key())
}

// ExplainQuery parses a single-atom query (the same surface syntax as
// Query), evaluates it, and returns one proof per matching tuple, sorted
// by tuple key. Quoted-code patterns are not supported: their results are
// transient projections, not database facts with provenance.
func (w *Workspace) ExplainQuery(src string) ([]*provenance.Proof, error) {
	atom, err := parseQueryAtom(src, w.principal)
	if err != nil {
		return nil, err
	}
	if atomHasQuote(atom) {
		return nil, fmt.Errorf("workspace: explain does not support quoted-code patterns")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.prov == nil {
		return nil, fmt.Errorf("workspace: provenance not enabled for %s", w.principal)
	}
	if b := w.queryLimits.NewBudget(); b != nil {
		w.userEv.Budget = b
		defer func() { w.userEv.Budget = nil }()
	}
	rows, err := w.userEv.Query(atom)
	if err != nil {
		return nil, err
	}
	derived := w.derivedRuleCodesLocked()
	proofs := make([]*provenance.Proof, 0, len(rows))
	for _, t := range rows {
		p := w.prov.Explain(atom.Pred, t)
		w.attachActivationsLocked(p, derived, map[string]bool{})
		proofs = append(proofs, p)
	}
	provenance.SortProofs(proofs)
	return proofs, nil
}

// VerifyProof independently checks a proof returned by Explain, without
// trusting the provenance store: every interior step must replay under
// datalog.ReplayDerivation (the instantiated head follows from the rule
// and exactly the recorded premises), every step's rule must either be
// statically loaded in this workspace or carry an activation credential —
// a verified proof of the active(R) fact whose code translates to exactly
// the step's rule — and every leaf tuple must be present in the database.
// Aggregation steps are accepted as unsupported (see
// datalog.ErrReplayUnsupported); Truncated leaves are accepted — the
// memory cap dropped their derivation, which the proof says honestly.
func (w *Workspace) VerifyProof(p *provenance.Proof) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	loaded := map[string]bool{}
	for _, k := range w.activeOrder {
		e := w.active[k]
		// Derived activations are deliberately excluded: a proof step by a
		// says-activated rule must justify the rule itself through its
		// Activation subtree, not by pointing at mutable workspace state.
		if e.isCheck || e.derived {
			continue
		}
		for _, r := range e.translated.SplitHeads() {
			loaded[r.String()] = true
		}
	}
	return w.verifyProofLocked(p, loaded)
}

func (w *Workspace) verifyProofLocked(p *provenance.Proof, loaded map[string]bool) error {
	if p == nil {
		return fmt.Errorf("workspace: nil proof node")
	}
	if rel, ok := w.db.Get(p.Pred); !ok || !rel.Contains(p.Tuple) {
		return fmt.Errorf("workspace: proof names absent fact %s%s", p.Pred, p.Tuple.String())
	}
	if p.Rule == nil {
		// Leaf: base fact, remote delivery, cycle guard, or truncation —
		// presence in the database (checked above) is the whole claim.
		return nil
	}
	if !loaded[p.Rule.String()] {
		if p.Activation == nil {
			return fmt.Errorf("workspace: proof step for %s%s uses rule neither loaded here nor activated by a credential: %s",
				p.Pred, p.Tuple.String(), p.Rule.String())
		}
		if err := w.verifyActivationLocked(p, loaded); err != nil {
			return err
		}
	} else if p.Activation != nil {
		if err := w.verifyActivationLocked(p, loaded); err != nil {
			return err
		}
	}
	premises := make([]datalog.Premise, len(p.Premises))
	for i, sub := range p.Premises {
		premises[i] = datalog.Premise{Pred: sub.Pred, Tuple: sub.Tuple}
	}
	err := datalog.ReplayDerivation(w.builtins, p.Pred, p.Tuple, p.Rule, premises)
	if err != nil && !errors.Is(err, datalog.ErrReplayUnsupported) {
		// (Aggregation steps are accepted, not independently checkable.)
		return err
	}
	for _, sub := range p.Premises {
		if err := w.verifyProofLocked(sub, loaded); err != nil {
			return err
		}
	}
	return nil
}

// verifyActivationLocked checks a proof step's activation credential: the
// subtree must prove an active(R) fact whose code value translates (via
// the same pattern translation activation uses) to exactly the step's
// rule, and the subtree itself must verify like any other proof. This is
// what makes proofs over says-activated rules independently checkable —
// the rule's authority is demonstrated, not assumed from workspace state.
func (w *Workspace) verifyActivationLocked(p *provenance.Proof, loaded map[string]bool) error {
	a := p.Activation
	if a.Pred != meta.PredActive {
		return fmt.Errorf("workspace: activation credential for %s%s proves %s, not %s",
			p.Pred, p.Tuple.String(), a.Pred, meta.PredActive)
	}
	code, ok := a.Tuple.At(0).(datalog.Code)
	if !ok {
		return fmt.Errorf("workspace: activation credential for %s%s carries no code value", p.Pred, p.Tuple.String())
	}
	translated, err := meta.TranslatePatterns(code.Rule())
	if err != nil {
		return fmt.Errorf("workspace: activation credential code does not translate: %w", err)
	}
	match := false
	for _, r := range translated.SplitHeads() {
		if r.String() == p.Rule.String() {
			match = true
			break
		}
	}
	if !match {
		return fmt.Errorf("workspace: activation credential %s activates a different rule than proof step %s",
			code.String(), p.Rule.String())
	}
	return w.verifyProofLocked(a, loaded)
}
