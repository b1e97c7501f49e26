package core

import (
	"crypto/rand"
	"crypto/rsa"
	"fmt"
	mrand "math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"lbtrust/internal/datalog"
	"lbtrust/internal/lbcrypto"
	"lbtrust/internal/store"
	"lbtrust/internal/workspace"
)

// The three-arm replay differential: one seeded schedule of says,
// assertions, retractions, rule and constraint changes, scheme swaps and
// Syncs runs on (i) a system that is never restarted, (ii) a durable
// system recovered from its write-ahead log alone, and (iii) a durable
// system checkpointed at a random step and recovered from that snapshot
// plus the log tail. A snapshot is a compacted log replayed by the same
// interpreter, so all three must hold the same state — and keep agreeing
// when the schedule carries on after the restart.

var diffPrincipals = []string{"alice", "bob", "carol"}

// diffKeys is the key material every arm imports before establishing
// keys (Establish* reuse what the key store already holds), so
// signatures — and with them export/import tuples — are identical across
// arms.
var diffKeys = sync.OnceValue(func() map[string]*rsa.PrivateKey {
	out := map[string]*rsa.PrivateKey{}
	for _, name := range diffPrincipals {
		key, err := rsa.GenerateKey(rand.Reader, lbcrypto.RSABits)
		if err != nil {
			panic(err)
		}
		out[name] = key
	}
	return out
})

type diffOp struct {
	kind   string // say assert retract addrule rmrule addcons rmcons swap sync
	who    string
	to     string // say
	arg    string // clause, fact, rule or constraint source, or constraint label
	scheme Scheme // swap
}

// diffSchedule draws n operations. It tracks what each principal has
// asserted and installed so removals always name something present: the
// schedule is fixed before any arm runs, and every arm gets the same one.
func diffSchedule(rng *mrand.Rand, n int, st *diffGenState) []diffOp {
	var ops []diffOp
	pick := func() string { return diffPrincipals[rng.Intn(len(diffPrincipals))] }
	for len(ops) < n {
		who := pick()
		st.seq++
		switch k := rng.Intn(20); {
		case k < 6:
			to := pick()
			if to == who {
				continue
			}
			ops = append(ops, diffOp{kind: "say", who: who, to: to, arg: fmt.Sprintf("note(%s, n%d).", who, st.seq)})
		case k < 9:
			fact := fmt.Sprintf("local(v%d)", st.seq)
			st.facts[who] = append(st.facts[who], fact)
			ops = append(ops, diffOp{kind: "assert", who: who, arg: fact})
		case k < 11:
			if len(st.facts[who]) == 0 {
				continue
			}
			i := rng.Intn(len(st.facts[who]))
			ops = append(ops, diffOp{kind: "retract", who: who, arg: st.facts[who][i]})
			st.facts[who] = slices.Delete(st.facts[who], i, i+1)
		case k < 13:
			rule := fmt.Sprintf("seen%d(X) <- local(X).", st.seq)
			if rng.Intn(2) == 0 {
				rule = fmt.Sprintf("heard%d(U, X) <- note(U, X), !local(X).", st.seq)
			}
			st.rules[who] = append(st.rules[who], rule)
			ops = append(ops, diffOp{kind: "addrule", who: who, arg: rule})
		case k < 14:
			if len(st.rules[who]) == 0 {
				continue
			}
			i := rng.Intn(len(st.rules[who]))
			ops = append(ops, diffOp{kind: "rmrule", who: who, arg: st.rules[who][i]})
			st.rules[who] = slices.Delete(st.rules[who], i, i+1)
		case k < 16:
			// Half the constraints declare a partitioned predicate, which
			// must outlive the constraint's removal.
			label := fmt.Sprintf("c%d", st.seq)
			src := fmt.Sprintf("%s: local(X) -> local(X).", label)
			if rng.Intn(2) == 0 {
				src = fmt.Sprintf("%s: chan%d[U1](U2) -> prin(U1), prin(U2).", label, st.seq)
			}
			st.cons[who] = append(st.cons[who], label)
			ops = append(ops, diffOp{kind: "addcons", who: who, arg: src})
		case k < 17:
			if len(st.cons[who]) == 0 {
				continue
			}
			i := rng.Intn(len(st.cons[who]))
			ops = append(ops, diffOp{kind: "rmcons", who: who, arg: st.cons[who][i]})
			st.cons[who] = slices.Delete(st.cons[who], i, i+1)
		case k < 18:
			next := []Scheme{SchemePlaintext, SchemeHMAC, SchemeRSA}[rng.Intn(3)]
			ops = append(ops, diffOp{kind: "swap", scheme: next})
		default:
			ops = append(ops, diffOp{kind: "sync"})
		}
	}
	return append(ops, diffOp{kind: "sync"})
}

type diffGenState struct {
	seq                int
	facts, rules, cons map[string][]string
}

func diffSetup(t *testing.T, sys *System) {
	t.Helper()
	for i, name := range diffPrincipals {
		var p *Principal
		var err error
		if i == len(diffPrincipals)-1 {
			p, err = sys.AddPrincipal(name) // the default "local" node
		} else {
			node, nerr := sys.AddNode("nd-" + name)
			if nerr != nil {
				t.Fatal(nerr)
			}
			p, err = sys.AddPrincipalOn(name, node)
		}
		if err != nil {
			t.Fatal(err)
		}
		p.Keys().ImportRSA(name, diffKeys()[name])
		for _, other := range diffPrincipals[:i] {
			p.Keys().SetShared(name, other, []byte("fixed secret "+name+other))
		}
		if err := p.TrustAll(); err != nil {
			t.Fatal(err)
		}
	}
	for i, name := range diffPrincipals {
		if err := sys.EstablishRSA(name); err != nil {
			t.Fatal(err)
		}
		for _, other := range diffPrincipals[:i] {
			if err := sys.EstablishSharedSecret(name, other); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func diffApply(sys *System, op diffOp) error {
	switch op.kind {
	case "sync":
		return sys.Sync()
	case "swap":
		// The reconfiguration of Section 4.1.2, system-wide: receivers drop
		// history signed under the old scheme, everyone swaps the signer and
		// verifier clauses, and senders re-sign and re-ship.
		for _, name := range diffPrincipals {
			p, _ := sys.Principal(name)
			if err := p.ForgetCommunication(); err != nil {
				return err
			}
		}
		for _, name := range diffPrincipals {
			p, _ := sys.Principal(name)
			if err := p.UseScheme(op.scheme); err != nil {
				return err
			}
		}
		return sys.Sync()
	}
	p, ok := sys.Principal(op.who)
	if !ok {
		return fmt.Errorf("no principal %s", op.who)
	}
	if op.kind == "say" {
		return p.Say(op.to, op.arg)
	}
	return p.Update(func(tx *workspace.Tx) error {
		switch op.kind {
		case "assert":
			return tx.Assert(op.arg)
		case "retract":
			return tx.Retract(op.arg)
		case "addcons":
			return tx.AddConstraintSrc(op.arg)
		case "rmcons":
			if !tx.RemoveConstraint(op.arg) {
				return fmt.Errorf("constraint %s not installed", op.arg)
			}
			return nil
		}
		rule, err := datalog.ParseClause(op.arg)
		if err != nil {
			return err
		}
		if op.kind == "addrule" {
			return tx.AddRule(rule)
		}
		return tx.RemoveRule(workspace.SpecializeCode(rule, datalog.Sym(op.who)))
	})
}

// diffState renders everything the arms must agree on, one line per
// item. Two things a rebuild-recovery legitimately changes are masked:
// meta-model entity ids depend on reification order, so an entity is
// rendered by its sort alone, and recovered rules are re-parsed from
// canonical text, whose variables are V0, V1, …, so vname rows are
// compared by count. Aux and fail relations are check-evaluator scratch
// that neither the log nor a snapshot carries.
func diffState(sys *System) []string {
	var out []string
	for _, name := range sys.Principals() {
		p, _ := sys.Principal(name)
		ws := p.Workspace()
		out = append(out, fmt.Sprintf("%s scheme %s", name, p.Scheme()))
		for _, c := range ws.ActiveRules() {
			out = append(out, fmt.Sprintf("%s active %s", name, c.Canonical()))
		}
		for _, d := range ws.Decls() {
			out = append(out, fmt.Sprintf("%s decl %+v", name, d))
		}
		out = append(out, fmt.Sprintf("%s partitioned %v", name, ws.PartitionedPredicates()))
		for _, op := range ws.CaptureJournal()[0].Schema {
			if op.Kind == workspace.SchemaConstraintAdd {
				out = append(out, fmt.Sprintf("%s constraint %+v", name, op.Constraint))
			}
		}
		for _, pred := range ws.DB().Names() {
			if strings.HasPrefix(pred, "lb:aux:") || strings.HasPrefix(pred, "lb:fail") || pred == "fail" {
				continue
			}
			var rows []string
			for _, tuple := range ws.Facts(pred) {
				cols := make([]string, tuple.Len())
				for i, v := range tuple.Values() {
					if e, ok := v.(datalog.Entity); ok {
						cols[i] = "entity:" + e.Sort
					} else if pred == "vname" {
						cols[i] = "_"
					} else {
						cols[i] = v.Key()
					}
				}
				rows = append(rows, fmt.Sprintf("%s fact %s(%s)", name, pred, strings.Join(cols, ",")))
			}
			slices.Sort(rows)
			out = append(out, rows...)
		}
	}
	return out
}

func diffCompare(t *testing.T, stage string, arms map[string]*System) {
	t.Helper()
	want := diffState(arms["live"])
	for name, sys := range arms {
		got := diffState(sys)
		if slices.Equal(got, want) {
			continue
		}
		t.Errorf("%s: %s differs from the never-restarted system (%d vs %d lines)", stage, name, len(got), len(want))
		for _, line := range got {
			if !slices.Contains(want, line) {
				t.Logf("  only %s: %s", name, line)
			}
		}
		for _, line := range want {
			if !slices.Contains(got, line) {
				t.Logf("  only live: %s", line)
			}
		}
	}
}

// diffQuiescent checks that a Sync on a quiesced system delivers nothing:
// on the recovered arms this is the shipped set having been restored.
func diffQuiescent(t *testing.T, stage string, arms map[string]*System) {
	t.Helper()
	for name, sys := range arms {
		before := sys.Stats().TuplesDelivered()
		if err := sys.Sync(); err != nil {
			t.Fatalf("%s: %s: sync: %v", stage, name, err)
		}
		if got := sys.Stats().TuplesDelivered() - before; got != 0 {
			t.Errorf("%s: %s: a second Sync re-delivered %d tuples", stage, name, got)
		}
	}
}

// runThreeArms runs before on all three arms (checkpointing the third
// after step ckptAt), restarts the two durable arms, runs after, and
// compares the arms at each stage.
func runThreeArms(t *testing.T, before []diffOp, ckptAt int, after []diffOp) {
	dirs := map[string]string{"wal only": t.TempDir(), "checkpoint + wal": t.TempDir()}
	arms := map[string]*System{"live": NewSystem()}
	for name, dir := range dirs {
		sys, err := OpenSystem(dir, DurableOptions{Fsync: store.FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		arms[name] = sys
	}
	defer func() {
		for _, sys := range arms {
			sys.Close()
		}
	}()
	run := func(ops []diffOp, ckptAt int) {
		for name, sys := range arms {
			for i, op := range ops {
				if err := diffApply(sys, op); err != nil {
					t.Fatalf("%s: step %d %+v: %v", name, i, op, err)
				}
				if i == ckptAt && name == "checkpoint + wal" {
					if err := sys.Checkpoint(); err != nil {
						t.Fatalf("checkpoint at step %d: %v", i, err)
					}
				}
			}
		}
	}
	for _, sys := range arms {
		diffSetup(t, sys)
	}
	run(before, ckptAt)
	diffCompare(t, "before restart", arms)

	for name, dir := range dirs {
		if err := arms[name].Close(); err != nil {
			t.Fatal(err)
		}
		re, err := OpenSystem(dir, DurableOptions{Fsync: store.FsyncOff})
		if err != nil {
			t.Fatalf("%s: reopen: %v", name, err)
		}
		arms[name] = re
	}
	diffCompare(t, "after restart", arms)
	diffQuiescent(t, "after restart", arms)

	run(after, -1)
	diffCompare(t, "after restart + more work", arms)
	diffQuiescent(t, "after restart + more work", arms)
}

func TestReplayDifferentialThreeArms(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := mrand.New(mrand.NewSource(seed))
			gen := &diffGenState{facts: map[string][]string{}, rules: map[string][]string{}, cons: map[string][]string{}}
			before := diffSchedule(rng, 60, gen)
			after := diffSchedule(rng, 25, gen)
			// The post-restart phase always reconfigures and installs a
			// constraint: the restored swap-out bookkeeping and aux id
			// counter are exercised whatever the draw.
			after = append([]diffOp{
				{kind: "swap", scheme: SchemeHMAC},
				{kind: "addcons", who: "alice", arg: "late: local(X) -> local(X)."},
				{kind: "swap", scheme: SchemeRSA},
			}, after...)
			runThreeArms(t, before, rng.Intn(len(before)), after)
		})
	}
}

// TestCheckpointKeepsDeclsAndAuxSeq pins what a snapshot's flush records
// must say beyond the schema still installed. A partitioned declaration
// whose constraint was removed before the checkpoint survives the restart
// exactly as it survives log replay, and — the removed constraints
// holding the highest aux ids ever issued, with nothing in the log tail
// to raise the counter — a constraint added after the restart gets the
// id the never-restarted system issues, not one in use.
func TestCheckpointKeepsDeclsAndAuxSeq(t *testing.T) {
	before := []diffOp{
		{kind: "addcons", who: "alice", arg: "kept: local(X) -> local(X)."},
		{kind: "addcons", who: "alice", arg: "d1: chan1[U1](U2) -> prin(U1), prin(U2)."},
		{kind: "addcons", who: "alice", arg: "c2: local(X) -> local(X)."},
		{kind: "rmcons", who: "alice", arg: "d1"},
		{kind: "rmcons", who: "alice", arg: "c2"},
	}
	after := []diffOp{{kind: "addcons", who: "alice", arg: "c3: local(X) -> local(X)."}}
	runThreeArms(t, before, len(before)-1, after)
}
