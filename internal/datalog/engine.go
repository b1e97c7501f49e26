package datalog

import (
	"errors"
	"fmt"
	"sort"
)

// Premise identifies one body fact used in a derivation, for provenance
// (Section 7 of the paper lists provenance support as ongoing work; we
// implement it).
type Premise struct {
	Pred  string
	Tuple Tuple
}

// TraceFunc observes one derivation: the head tuple together with the
// rule and the body facts that produced it.
type TraceFunc func(pred string, t Tuple, r *Rule, premises []Premise)

// ErrNeedsFullEval is returned by RunDelta when the incremental update
// touches predicates consulted under negation or aggregation, in which case
// the caller must re-run full evaluation.
var ErrNeedsFullEval = errors.New("datalog: incremental update affects negation or aggregation; full evaluation required")

// Evaluator runs a rule set to fixpoint over a database using bottom-up
// semi-naive evaluation (Section 3.1 of the paper), stratified for negation
// and aggregation.
type Evaluator struct {
	DB       *Database
	Builtins *BuiltinSet
	// OnNew, when set, observes every tuple newly inserted into DB by
	// evaluation (derived tuples only; base assertions go through the
	// caller). The workspace uses it to expose per-flush deltas to flush
	// observers without rescanning relations.
	OnNew func(pred string, t Tuple)
	// OnDerive, when set, observes every successful body instantiation —
	// including re-derivations of tuples already present in DB, which OnNew
	// never sees. The workspace's constraint checker uses it to collect the
	// complete premise set of every violation, so full and delta evaluation
	// report identical (deduplicated) violations regardless of which
	// derivation the tuple-level insert happens to see first.
	OnDerive TraceFunc
	// SafeNeg, when set, reports predicates whose growth can only suppress
	// derivations of the rules that negate them (the caller guarantees the
	// semantics). RunDelta's needs-full-eval classification skips negated
	// literals over such predicates: inserting facts can then never create
	// a derivation through the negation, only remove one, which is exactly
	// the constraint checker's fail(L) <- LHS, !aux(...) shape where the
	// aux predicate is maintained in a strictly lower stratum.
	SafeNeg func(pred string) bool
	// Budget, when non-nil, bounds the work this evaluator may do: one
	// gas unit per tuple enumerated while solving bodies or queries, plus
	// derived-tuple and memory accounting on every new insertion. When a
	// limit trips, Run/RunDelta/Query return a *LimitError and evaluation
	// stops where it stood (the database may hold a partial fixpoint —
	// callers that need atomicity must roll back, as the workspace does).
	// The counter is owned by the caller: arm a fresh one per request.
	Budget *Budget
	// Metrics, when non-nil, aggregates run counts, gas, and derived
	// tuples into an obs registry at each Run/RunDelta/Query boundary
	// (see NewEvalMetrics). Accounting is per evaluation, not per tuple.
	Metrics *EvalMetrics

	rules []*compiledRule
	strat *Stratification
	arity map[string]int
}

type compiledRule struct {
	src   *Rule
	head  Atom
	agg   *AggSpec
	body  []Literal
	plan  []int
	plans map[int][]int // forced-first plans for semi-naive deltas
	// groupVars are head variables other than the aggregation result.
	groupVars []string
}

// NewEvaluator creates an evaluator over db with the given built-ins.
func NewEvaluator(db *Database, builtins *BuiltinSet) *Evaluator {
	if builtins == nil {
		builtins = NewBuiltinSet()
	}
	return &Evaluator{DB: db, Builtins: builtins, arity: map[string]int{}}
}

// SetRules installs the active rule set: multi-head rules are split, safety
// is checked, strata are computed, and join orders are planned. Rules must
// be concrete (quoted-code patterns already translated by the meta layer;
// head templates are permitted).
func (ev *Evaluator) SetRules(rules []*Rule) error {
	var flat []*Rule
	for _, r := range rules {
		flat = append(flat, r.SplitHeads()...)
	}
	ev.arity = map[string]int{}
	compiled := make([]*compiledRule, 0, len(flat))
	for _, r := range flat {
		if err := ev.checkConcrete(r); err != nil {
			return err
		}
		if err := CheckSafety(r, ev.Builtins); err != nil {
			return err
		}
		if err := ev.recordArity(r); err != nil {
			return err
		}
		cr := &compiledRule{src: r, head: r.Heads[0], agg: r.Agg, body: r.Body, plans: map[int][]int{}}
		plan, err := planBody(r.Body, ev.Builtins, -1)
		if err != nil {
			return fmt.Errorf("rule %s: %w", r.Label, err)
		}
		cr.plan = plan
		if r.Agg != nil {
			seen := map[string]bool{}
			for _, t := range cr.head.AllArgs() {
				collectTopVars(t, seen)
			}
			delete(seen, r.Agg.Result)
			for v := range seen {
				cr.groupVars = append(cr.groupVars, v)
			}
			sort.Strings(cr.groupVars)
		}
		compiled = append(compiled, cr)
	}
	strat, err := Stratify(flat, ev.Builtins)
	if err != nil {
		return err
	}
	ev.rules = compiled
	ev.strat = strat
	return nil
}

func (ev *Evaluator) checkConcrete(r *Rule) error {
	bad := func(a *Atom) bool { return a.PredVar != "" || a.AtomVar != "" || a.ArgStar }
	for i := range r.Heads {
		if bad(&r.Heads[i]) {
			return fmt.Errorf("rule %s: pattern atom %s outside quoted code", r.Label, r.Heads[i].String())
		}
	}
	for i := range r.Body {
		if bad(&r.Body[i].Atom) {
			return fmt.Errorf("rule %s: pattern atom %s outside quoted code", r.Label, r.Body[i].Atom.String())
		}
	}
	return nil
}

func (ev *Evaluator) recordArity(r *Rule) error {
	rec := func(a *Atom) error {
		if a.Pred == "" {
			return nil
		}
		pos := a.Pos
		if !pos.IsValid() {
			pos = r.Pos
		}
		n := a.Arity()
		if b, ok := ev.Builtins.Get(a.Pred); ok {
			if n != b.Arity {
				return &CheckError{
					Code:       CodeBuiltinArity,
					Pos:        pos,
					RuleSource: r.String(),
					Msg:        fmt.Sprintf("built-in %s expects %d argument(s), called with %d", a.Pred, b.Arity, n),
				}
			}
			return nil
		}
		if prev, ok := ev.arity[a.Pred]; ok && prev != n {
			return &CheckError{
				Code:       CodeArity,
				Pos:        pos,
				RuleSource: r.String(),
				Msg:        fmt.Sprintf("predicate %s used with arity %d here but arity %d elsewhere", a.Pred, n, prev),
			}
		}
		ev.arity[a.Pred] = n
		return nil
	}
	for i := range r.Heads {
		if err := rec(&r.Heads[i]); err != nil {
			return err
		}
	}
	for i := range r.Body {
		if err := rec(&r.Body[i].Atom); err != nil {
			return err
		}
	}
	return nil
}

// Run evaluates all strata to fixpoint. Evaluation is monotone over the
// current database contents: derived tuples are inserted alongside existing
// facts.
func (ev *Evaluator) Run() error {
	if ev.strat == nil {
		return nil
	}
	if m := ev.Metrics; m != nil {
		defer m.sample(ev.Budget, m.fullRuns)()
	}
	for s := range ev.strat.Strata {
		if err := ev.runStratum(s, nil); err != nil {
			return err
		}
	}
	return nil
}

// RunDelta incrementally propagates newly inserted base facts (already
// present in DB). It returns ErrNeedsFullEval when the changes can affect a
// negated or aggregated premise, which insertion cannot handle
// monotonically.
func (ev *Evaluator) RunDelta(changed map[string][]Tuple) error {
	if ev.strat == nil || len(changed) == 0 {
		return nil
	}
	if m := ev.Metrics; m != nil {
		defer m.sample(ev.Budget, m.deltaRuns)()
	}
	affected := ev.affectedPreds(changed)
	for _, cr := range ev.rules {
		if cr.agg != nil {
			for _, l := range cr.body {
				if !ev.Builtins.Has(l.Atom.Pred) && affected[l.Atom.Pred] {
					return ErrNeedsFullEval
				}
			}
		}
		for _, l := range cr.body {
			if l.Negated && !ev.Builtins.Has(l.Atom.Pred) && affected[l.Atom.Pred] {
				if ev.SafeNeg != nil && ev.SafeNeg(l.Atom.Pred) {
					continue
				}
				return ErrNeedsFullEval
			}
		}
	}
	delta := map[string]*Relation{}
	for pred, tuples := range changed {
		arity := 0
		if len(tuples) > 0 {
			arity = tuples[0].Len()
		} else {
			continue
		}
		d := NewRelation(pred, arity)
		for _, t := range tuples {
			d.Insert(t)
		}
		delta[pred] = d
	}
	for s := range ev.strat.Strata {
		if err := ev.runStratum(s, delta); err != nil {
			return err
		}
	}
	return nil
}

// affectedPreds computes the downstream closure of the changed predicates
// over the rule dependency graph.
func (ev *Evaluator) affectedPreds(changed map[string][]Tuple) map[string]bool {
	affected := map[string]bool{}
	for p := range changed {
		affected[p] = true
	}
	for {
		grew := false
		for _, cr := range ev.rules {
			if affected[cr.head.Pred] {
				continue
			}
			for _, l := range cr.body {
				if !ev.Builtins.Has(l.Atom.Pred) && affected[l.Atom.Pred] {
					affected[cr.head.Pred] = true
					grew = true
					break
				}
			}
		}
		if !grew {
			return affected
		}
	}
}

// runStratum evaluates one stratum to fixpoint. When seed is non-nil, only
// delta-driven evaluation is performed (incremental mode); otherwise an
// initial naive round is run first.
func (ev *Evaluator) runStratum(s int, seed map[string]*Relation) error {
	var rules []*compiledRule
	inStratum := map[string]bool{}
	for _, r := range ev.strat.Strata[s] {
		for _, cr := range ev.rules {
			if cr.src == r {
				rules = append(rules, cr)
				inStratum[cr.head.Pred] = true
			}
		}
	}
	if len(rules) == 0 {
		return nil
	}

	newDelta := map[string]*Relation{}
	emit := func(cr *compiledRule) func(t Tuple, premises []Premise) error {
		pred := cr.head.Pred
		return func(t Tuple, premises []Premise) error {
			if ev.OnDerive != nil {
				ev.OnDerive(pred, t, cr.src, premises)
			}
			rel := ev.DB.Rel(pred, t.Len())
			if !rel.Insert(t) {
				return nil
			}
			if ev.Budget != nil {
				if err := ev.Budget.derive(t); err != nil {
					return err
				}
			}
			d := newDelta[pred]
			if d == nil {
				d = NewRelation(pred, t.Len())
				newDelta[pred] = d
			}
			d.Insert(t)
			if ev.OnNew != nil {
				ev.OnNew(pred, t)
			}
			return nil
		}
	}

	if seed == nil {
		// Initial naive round: aggregates once (their inputs are complete,
		// being in strictly lower strata), then every rule once.
		for _, cr := range ev.rules {
			if cr.agg == nil {
				continue
			}
			if inStratum[cr.head.Pred] {
				if err := ev.evalAggRule(cr, emit(cr)); err != nil {
					return err
				}
			}
		}
		for _, cr := range rules {
			if cr.agg != nil {
				continue
			}
			if err := ev.evalRule(cr, cr.plan, -1, nil, emit(cr)); err != nil {
				return err
			}
		}
	} else {
		// Incremental: drive rules whose bodies mention seeded predicates.
		for _, cr := range rules {
			if cr.agg != nil {
				continue // RunDelta pre-checked aggregates are unaffected
			}
			for j, l := range cr.body {
				if l.Negated {
					continue
				}
				d := seed[l.Atom.Pred]
				if d == nil {
					continue
				}
				plan, err := cr.forcedPlan(j, ev.Builtins)
				if err != nil {
					return err
				}
				if err := ev.evalRule(cr, plan, j, d, emit(cr)); err != nil {
					return err
				}
			}
		}
	}

	// mergeSeed folds a round's derived tuples into the cross-stratum seed:
	// tuples derived in this stratum must drive the rules of higher strata
	// too (their bodies are only evaluated forced-first over seeded
	// predicates, so DB visibility alone is not enough).
	mergeSeed := func(m map[string]*Relation) {
		if seed == nil {
			return
		}
		for p, d := range m {
			if ex := seed[p]; ex != nil {
				d.Each(func(t Tuple) bool { ex.Insert(t); return true })
			} else {
				seed[p] = d
			}
		}
	}

	// Semi-naive iteration within the stratum.
	delta := newDelta
	for len(delta) > 0 {
		mergeSeed(delta)
		newDelta = map[string]*Relation{}
		for _, cr := range rules {
			if cr.agg != nil {
				continue
			}
			for j, l := range cr.body {
				if l.Negated {
					continue
				}
				d := delta[l.Atom.Pred]
				if d == nil {
					continue
				}
				plan, err := cr.forcedPlan(j, ev.Builtins)
				if err != nil {
					return err
				}
				if err := ev.evalRule(cr, plan, j, d, emit(cr)); err != nil {
					return err
				}
			}
		}
		delta = newDelta
	}
	return nil
}

// forcedPlan returns (and caches) a join order with body literal j first.
func (cr *compiledRule) forcedPlan(j int, builtins *BuiltinSet) ([]int, error) {
	if p, ok := cr.plans[j]; ok {
		return p, nil
	}
	p, err := planBody(cr.body, builtins, j)
	if err != nil {
		return nil, err
	}
	cr.plans[j] = p
	return p, nil
}

// evalRule enumerates all satisfying assignments of the rule body in the
// given join order and emits instantiated heads. When forced >= 0, the
// literal at that body position scans the delta relation instead of the
// database.
func (ev *Evaluator) evalRule(cr *compiledRule, order []int, forced int, delta *Relation, out func(Tuple, []Premise) error) error {
	en := newEnv()
	var premises []Premise
	collect := ev.OnDerive != nil
	bud := ev.Budget

	var step func(k int) error
	step = func(k int) error {
		if k == len(order) {
			t, err := ev.instantiateHead(&cr.head, en)
			if err != nil {
				return err
			}
			var ps []Premise
			if collect {
				ps = append(ps, premises...)
			}
			return out(t, ps)
		}
		j := order[k]
		lit := cr.body[j]
		name := lit.Atom.Pred
		if b, ok := ev.Builtins.Get(name); ok {
			return ev.stepBuiltin(b, &lit, en, collect, &premises, func() error { return step(k + 1) })
		}
		if lit.Negated {
			exists, err := ev.negExists(&lit.Atom, en)
			if err != nil {
				return err
			}
			if exists {
				return nil
			}
			return step(k + 1)
		}
		var rel *Relation
		if j == forced {
			rel = delta
		} else {
			rel, _ = ev.DB.Get(name)
		}
		if rel == nil {
			return nil
		}
		args := lit.Atom.AllArgs()
		bound := make([]Value, len(args))
		for i, t := range args {
			v, ground, err := evalTerm(t, en)
			if err != nil {
				return err
			}
			if ground {
				bound[i] = v
			}
		}
		var iterErr error
		rel.MatchEach(bound, func(t Tuple) bool {
			if bud != nil {
				if err := bud.step(); err != nil {
					iterErr = err
					return false
				}
			}
			mark := en.mark()
			ok := true
			for i, at := range args {
				m, err := matchTerm(at, t.At(i), en)
				if err != nil {
					iterErr = err
					return false
				}
				if !m {
					ok = false
					break
				}
			}
			if ok {
				if collect {
					premises = append(premises, Premise{Pred: name, Tuple: t})
				}
				if err := step(k + 1); err != nil {
					iterErr = err
					return false
				}
				if collect {
					premises = premises[:len(premises)-1]
				}
			}
			en.undo(mark)
			return true
		})
		return iterErr
	}
	return step(0)
}

func (ev *Evaluator) stepBuiltin(b *Builtin, lit *Literal, en *env, collect bool, premises *[]Premise, next func() error) error {
	args := lit.Atom.AllArgs()
	if len(args) != b.Arity {
		return fmt.Errorf("built-in %s expects %d arguments, got %d", b.Name, b.Arity, len(args))
	}
	in := make([]Value, len(args))
	for i, t := range args {
		v, ground, err := evalTerm(t, en)
		if err != nil {
			return err
		}
		if ground {
			in[i] = v
		}
	}
	rows, err := b.Eval(in)
	if err != nil {
		return fmt.Errorf("built-in %s: %w", b.Name, err)
	}
	if lit.Negated {
		if len(rows) == 0 {
			return next()
		}
		return nil
	}
	for _, row := range rows {
		mark := en.mark()
		ok := true
		for i, at := range args {
			m, err := matchTerm(at, row[i], en)
			if err != nil {
				return err
			}
			if !m {
				ok = false
				break
			}
		}
		if ok {
			if err := next(); err != nil {
				return err
			}
		}
		en.undo(mark)
	}
	return nil
}

// negExists reports whether any tuple matches the (negated) atom under the
// current bindings. Unbound non-blank variables are a safety violation.
func (ev *Evaluator) negExists(a *Atom, en *env) (bool, error) {
	rel, ok := ev.DB.Get(a.Pred)
	if !ok || rel.Len() == 0 {
		return false, nil
	}
	args := a.AllArgs()
	bound := make([]Value, len(args))
	for i, t := range args {
		v, ground, err := evalTerm(t, en)
		if err != nil {
			return false, err
		}
		if ground {
			bound[i] = v
		} else if vv, isVar := t.(Var); !isVar || !vv.IsBlank() {
			if _, isVar2 := t.(Var); !isVar2 {
				return false, fmt.Errorf("unbound term %s in negated literal !%s", t.String(), a.String())
			}
			return false, fmt.Errorf("unbound variable %s in negated literal !%s", t.String(), a.String())
		}
	}
	found := false
	rel.MatchEach(bound, func(t Tuple) bool {
		// Wildcard positions may require intra-tuple variable equality for
		// repeated blanks; blanks are renamed apart by the parser, so plain
		// wildcard semantics are correct here.
		found = true
		return false
	})
	return found, nil
}

func (ev *Evaluator) instantiateHead(a *Atom, en *env) (Tuple, error) {
	args := a.AllArgs()
	vs := make([]Value, len(args))
	for i, at := range args {
		v, ground, err := evalTerm(at, en)
		if err != nil {
			return Tuple{}, err
		}
		if !ground {
			return Tuple{}, fmt.Errorf("head argument %s not bound", at.String())
		}
		vs[i] = v
	}
	return TupleOf(vs), nil
}

// evalAggRule evaluates an aggregation rule: all body solutions are
// grouped by the non-aggregated head variables and the aggregate binds the
// result variable (Section 4.2.2 of the paper).
func (ev *Evaluator) evalAggRule(cr *compiledRule, out func(Tuple, []Premise) error) error {
	type group struct {
		en     map[string]Value
		values map[string]Value // distinct Over values by key
	}
	groups := map[string]*group{}
	en := newEnv()
	bud := ev.Budget

	var step func(k int) error
	step = func(k int) error {
		if k == len(cr.plan) {
			key := ""
			snap := map[string]Value{}
			for _, gv := range cr.groupVars {
				v, ok := en.get(gv)
				if !ok {
					return fmt.Errorf("aggregation rule %s: group variable %s unbound", cr.src.Label, gv)
				}
				key += v.Key() + "\x00"
				snap[gv] = v
			}
			over, ok := en.get(cr.agg.Over)
			if !ok {
				return fmt.Errorf("aggregation rule %s: variable %s unbound", cr.src.Label, cr.agg.Over)
			}
			g := groups[key]
			if g == nil {
				g = &group{en: snap, values: map[string]Value{}}
				groups[key] = g
			}
			g.values[over.Key()] = over
			return nil
		}
		j := cr.plan[k]
		lit := cr.body[j]
		if b, ok := ev.Builtins.Get(lit.Atom.Pred); ok {
			var dummy []Premise
			return ev.stepBuiltin(b, &lit, en, false, &dummy, func() error { return step(k + 1) })
		}
		if lit.Negated {
			exists, err := ev.negExists(&lit.Atom, en)
			if err != nil {
				return err
			}
			if exists {
				return nil
			}
			return step(k + 1)
		}
		rel, _ := ev.DB.Get(lit.Atom.Pred)
		if rel == nil {
			return nil
		}
		args := lit.Atom.AllArgs()
		bound := make([]Value, len(args))
		for i, t := range args {
			v, ground, err := evalTerm(t, en)
			if err != nil {
				return err
			}
			if ground {
				bound[i] = v
			}
		}
		var iterErr error
		rel.MatchEach(bound, func(t Tuple) bool {
			if bud != nil {
				if err := bud.step(); err != nil {
					iterErr = err
					return false
				}
			}
			mark := en.mark()
			ok := true
			for i, at := range args {
				m, err := matchTerm(at, t.At(i), en)
				if err != nil {
					iterErr = err
					return false
				}
				if !m {
					ok = false
					break
				}
			}
			if ok {
				if err := step(k + 1); err != nil {
					iterErr = err
					return false
				}
			}
			en.undo(mark)
			return true
		})
		return iterErr
	}
	if err := step(0); err != nil {
		return err
	}

	for _, g := range groups {
		var result Value
		switch cr.agg.Fn {
		case "count":
			result = Int(len(g.values))
		case "total":
			var sum int64
			for _, v := range g.values {
				iv, ok := v.(Int)
				if !ok {
					return fmt.Errorf("aggregation rule %s: total over non-integer %s", cr.src.Label, v.String())
				}
				sum += int64(iv)
			}
			result = Int(sum)
		case "min", "max":
			var best Value
			for _, v := range g.values {
				if best == nil {
					best = v
					continue
				}
				c := CompareValues(v, best)
				if (cr.agg.Fn == "min" && c < 0) || (cr.agg.Fn == "max" && c > 0) {
					best = v
				}
			}
			if best == nil {
				continue
			}
			result = best
		default:
			return fmt.Errorf("aggregation rule %s: unknown function %s", cr.src.Label, cr.agg.Fn)
		}
		hen := newEnv()
		for k, v := range g.en {
			hen.bind(k, v)
		}
		hen.bind(cr.agg.Result, result)
		t, err := ev.instantiateHead(&cr.head, hen)
		if err != nil {
			return err
		}
		if err := out(t, nil); err != nil {
			return err
		}
	}
	return nil
}

// Query evaluates a single atom against the database, returning the
// matching tuples. Terms may contain constants and variables; variables
// with the same name join.
func (ev *Evaluator) Query(a *Atom) ([]Tuple, error) {
	if m := ev.Metrics; m != nil {
		defer m.sample(ev.Budget, m.queries)()
	}
	rel, ok := ev.DB.Get(a.Pred)
	if !ok {
		return nil, nil
	}
	en := newEnv()
	args := a.AllArgs()
	bound := make([]Value, len(args))
	for i, t := range args {
		v, ground, err := evalTerm(t, en)
		if err != nil {
			return nil, err
		}
		if ground {
			bound[i] = v
		}
	}
	var out []Tuple
	var iterErr error
	bud := ev.Budget
	rel.MatchEach(bound, func(t Tuple) bool {
		if bud != nil {
			if err := bud.step(); err != nil {
				iterErr = err
				return false
			}
		}
		mark := en.mark()
		ok := true
		for i, at := range args {
			m, err := matchTerm(at, t.At(i), en)
			if err != nil {
				iterErr = err
				return false
			}
			if !m {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, t)
		}
		en.undo(mark)
		return true
	})
	return out, iterErr
}
