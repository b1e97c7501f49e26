package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"time"

	"lbtrust/internal/core"
	"lbtrust/internal/datalog"
	"lbtrust/internal/dist"
	"lbtrust/internal/lbcrypto"
	"lbtrust/internal/meta"
	"lbtrust/internal/workspace"
)

// Layer probes: each replays inputs the workload generated through one
// layer's public functions and times the calls from outside. They run only
// in the traced run, after the measured phase, inside a "probe" span.

// probeInputs caps how many of a workload's inputs a probe replays.
const probeInputs = 2000

type prober struct {
	tr   *tracer
	ph   *phase
	root int
}

func newProber(tr *tracer, ph *phase) *prober {
	return &prober{tr: tr, ph: ph, root: tr.begin("probe", -1, -1)}
}

func (p *prober) done() { p.tr.finish(p.root) }

func (p *prober) emit(m Metric) { p.ph.layer = append(p.ph.layer, m) }

// failf counts a probe that could not run or saw a wrong result as one
// failed operation.
func (p *prober) failf(format string, args ...any) {
	p.ph.attempted++
	p.ph.fail(1, "probe: "+format, args...)
}

// timed runs fn passes times under a span and returns the per-operation
// time of each pass in microseconds; fn returns how many operations it
// did.
func (p *prober) timed(layer string, passes int, fn func(pass int) int) samples {
	id := p.tr.begin(layer, p.root, -1)
	defer p.tr.finish(id)
	var s samples
	for i := 0; i < passes; i++ {
		t0 := time.Now()
		n := fn(i)
		d := time.Since(t0)
		if n > 0 {
			s.add(us(d) / float64(n))
		}
	}
	return s
}

func head[T any](xs []T, n int) []T {
	if len(xs) > n {
		return xs[:n]
	}
	return xs
}

func parseAll(stmts []string) ([]*datalog.Rule, error) {
	rules := make([]*datalog.Rule, len(stmts))
	for i, s := range stmts {
		r, err := datalog.ParseClause(s)
		if err != nil {
			return nil, err
		}
		rules[i] = r
	}
	return rules, nil
}

func codesOf(stmts []string) ([]datalog.Code, error) {
	rules, err := parseAll(stmts)
	if err != nil {
		return nil, err
	}
	codes := make([]datalog.Code, len(rules))
	for i, r := range rules {
		codes[i] = datalog.NewCode(r)
	}
	return codes, nil
}

// parse times datalog.ParseClause per statement.
func (p *prober) parse(stmts []string) {
	stmts = head(stmts, probeInputs)
	s := p.timed("datalog.parse", 15, func(int) int {
		if _, err := parseAll(stmts); err != nil {
			p.failf("parse: %v", err)
		}
		return len(stmts)
	})
	p.emit(timing("datalog.parse_us", "us", s))
}

// reify times meta.Model.Reify per statement code, into a fresh model
// each pass (a model reifies a code once).
func (p *prober) reify(stmts []string) {
	codes, err := codesOf(head(stmts, probeInputs))
	if err != nil {
		p.failf("reify: %v", err)
		return
	}
	s := p.timed("meta.reify", 15, func(int) int {
		m := meta.NewModel(datalog.NewDatabase())
		for _, c := range codes {
			m.Reify(c)
		}
		return len(codes)
	})
	p.emit(timing("meta.reify_us", "us", s))
}

// saysAtom is the base fact Principal.Say asserts for a clause.
func saysAtom(to string, r *datalog.Rule) *datalog.Atom {
	return &datalog.Atom{Pred: "says", Args: []datalog.Term{
		datalog.Const{Val: datalog.Me},
		datalog.Const{Val: datalog.Sym(to)},
		datalog.Quote{Pat: r},
	}}
}

// flush times Workspace.Update asserting a batch of says-facts into a
// sender workspace carrying core.BaseProgram and the scheme's rules, per
// fact, once per pass on fresh statements. Under RSA the flush contains
// the in-rule signing. A batch of 1 is the shape of a served say.
func (p *prober) flush(scheme core.Scheme, stmts []string, batch, passes int) {
	batch = min(batch, len(stmts))
	passes = min(passes, len(stmts)/max(batch, 1))
	rules, err := parseAll(stmts[:batch*passes])
	if err != nil || passes == 0 {
		p.failf("flush: %d statements, err %v", len(stmts), err)
		return
	}
	pr, err := newPair(nil, scheme)
	if err != nil {
		p.failf("flush: %v", err)
		return
	}
	defer pr.sys.Close()
	ws := pr.alice.Workspace()
	s := p.timed("workspace.flush", passes, func(pass int) int {
		err := ws.Update(func(tx *workspace.Tx) error {
			for _, r := range rules[pass*batch : (pass+1)*batch] {
				if err := tx.AssertAtom(saysAtom("bob", r)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			p.failf("flush: %v", err)
		}
		return batch
	})
	if got := pr.alice.Count("export"); got != batch*passes {
		p.failf("flush: %d exports derived for %d statements", got, batch*passes)
	}
	p.emit(timing("workspace.flush_us", "us", s))
}

// gas reads the evaluator's exact work counts per said statement from
// SayTraced on a metered sender workspace.
func (p *prober) gas(scheme core.Scheme, stmts []string) {
	stmts = head(stmts, 200)
	pr, err := newPair(nil, scheme)
	if err != nil {
		p.failf("gas: %v", err)
		return
	}
	defer pr.sys.Close()
	// Gas is counted only on a metered workspace; the ceiling is never
	// reached.
	pr.alice.Workspace().SetLimits(datalog.Limits{}, datalog.Limits{Gas: math.MaxInt64})
	id := p.tr.begin("datalog.gas", p.root, -1)
	var gas, derived int64
	for _, s := range stmts {
		st, err := pr.alice.SayTraced("bob", s, "")
		if err != nil {
			p.failf("gas: %v", err)
			break
		}
		gas += st.Gas
		derived += st.Derived
	}
	p.tr.finish(id)
	n := float64(len(stmts))
	p.emit(count("datalog.gas_per_msg", "count", float64(gas)/n))
	p.emit(count("datalog.derived_per_msg", "count", float64(derived)/n))
}

// crypto times the scheme's sign and verify on the statement codes with
// the sender's real key material. Plaintext has no crypto in its path.
func (p *prober) crypto(scheme core.Scheme, signer *core.Principal, stmts []string) {
	if scheme == core.SchemePlaintext {
		return
	}
	codes, err := codesOf(head(stmts, 300))
	if err != nil {
		p.failf("crypto: %v", err)
		return
	}
	keys := signer.Keys()
	priv, ok := keys.RSAKey(signer.Name())
	if !ok {
		p.failf("crypto: no RSA key for %s", signer.Name())
		return
	}
	sigs := make([]string, len(codes))
	sign := p.timed("lbcrypto.sign", len(codes), func(i int) int {
		if sigs[i], err = keys.SignRSA(codes[i], priv); err != nil {
			p.failf("sign: %v", err)
		}
		return 1
	})
	verify := p.timed("lbcrypto.verify", len(codes), func(i int) int {
		if !keys.VerifyRSA(codes[i], sigs[i], &priv.PublicKey) {
			p.failf("verify: signature %d rejected", i)
		}
		return 1
	})
	p.emit(timing("lbcrypto.sign_us", "us", sign))
	p.emit(timing("lbcrypto.verify_us", "us", verify))
}

// hmac times the HMAC scheme's sign and verify the same way.
func (p *prober) hmac(signer *core.Principal, peer string, stmts []string) {
	codes, err := codesOf(head(stmts, probeInputs))
	secret, ok := signer.Keys().Shared(signer.Name(), peer)
	if err != nil || !ok {
		p.failf("hmac: secret present %v, err %v", ok, err)
		return
	}
	tags := make([]string, len(codes))
	sign := p.timed("lbcrypto.hmac_sign", 15, func(int) int {
		for i, c := range codes {
			tags[i] = lbcrypto.SignHMAC(c, secret)
		}
		return len(codes)
	})
	verify := p.timed("lbcrypto.hmac_verify", 15, func(int) int {
		for i, c := range codes {
			if !lbcrypto.VerifyHMAC(c, tags[i], secret) {
				p.failf("hmac verify: tag %d rejected", i)
			}
		}
		return len(codes)
	})
	p.emit(timing("lbcrypto.hmac_sign_us", "us", sign))
	p.emit(timing("lbcrypto.hmac_verify_us", "us", verify))
}

// codec times the wire envelope codec per tuple on real tuples, beside
// the tagged line codec of datalog/serial.go on the same tuples (the
// reference for ROADMAP's one-codec item).
func (p *prober) codec(tuples []datalog.Tuple, sender, receiver string) {
	tuples = head(tuples, probeInputs)
	if len(tuples) == 0 {
		p.failf("codec: no tuples to replay")
		return
	}
	env := &dist.Envelope{From: "node-" + sender, To: "node-" + receiver, Sender: sender, Principal: receiver, Pred: "import", Tuples: tuples}
	wire := p.timed("dist.codec", 15, func(int) int {
		back, err := dist.DecodeEnvelope(dist.EncodeEnvelope(env))
		if err != nil || len(back.Tuples) != len(tuples) {
			p.failf("codec: round trip: %v", err)
		}
		return len(tuples)
	})
	serial := p.timed("datalog.serial", 15, func(int) int {
		dec := datalog.NewDecoder()
		var buf []byte
		for _, t := range tuples {
			buf = datalog.AppendTupleLine(buf[:0], t)
			back, err := dec.DecodeTupleLine(string(buf))
			if err != nil || !back.Equal(t) {
				p.failf("serial: round trip: %v", err)
			}
		}
		return len(tuples)
	})
	p.emit(timing("dist.codec_us", "us", wire))
	p.emit(timing("datalog.serial_us", "us", serial))
}

// frameSizes is the size of a point query's request and response frames:
// the verb and query text one way, the status line and the canonical row
// text back.
func frameSizes(p *core.Principal, q query) (req, resp int, err error) {
	rows, err := p.Workspace().Snapshot().Query(q.src)
	if err != nil || len(rows) != 1 {
		return 0, 0, fmt.Errorf("%s: %d rows, err %v", q.src, len(rows), err)
	}
	resp = len("rows 1\nt()")
	for _, v := range rows[0].Values() {
		resp += len(datalog.CanonicalValue(v)) + 1
	}
	return len("query " + q.src), resp, nil
}

// transport times a loopback request/response exchange of frames the
// size of the pool's first point query and its answer, through
// dist.WriteFrame/ReadFrame against an echo goroutine: the floor under
// any served request.
func (p *prober) transport(principal *core.Principal, pool []query) {
	at := slices.IndexFunc(pool, func(q query) bool { return !q.scan })
	if at < 0 {
		p.failf("transport: no point query in the pool")
		return
	}
	reqBytes, respBytes, err := frameSizes(principal, pool[at])
	if err != nil {
		p.failf("transport: %v", err)
		return
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.failf("transport: %v", err)
		return
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer conn.Close()
		resp := make([]byte, respBytes)
		for {
			if _, err := dist.ReadFrame(conn); err != nil {
				if err == io.EOF {
					err = nil
				}
				served <- err
				return
			}
			if err := dist.WriteFrame(conn, resp); err != nil {
				served <- err
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		p.failf("transport: %v", err)
		return
	}
	req := make([]byte, reqBytes)
	exchange := func(int) int {
		if err := dist.WriteFrame(conn, req); err != nil {
			p.failf("transport: %v", err)
		}
		if _, err := dist.ReadFrame(conn); err != nil {
			p.failf("transport: %v", err)
		}
		return 1
	}
	for i := 0; i < 200; i++ { // warm the connection
		exchange(i)
	}
	s := p.timed("dist.transport", 5000, exchange)
	conn.Close()
	if err := <-served; err != nil {
		p.failf("transport: echo side: %v", err)
	}
	p.emit(timing("dist.transport_us", "us", s))
}

// snapshotQuery times Workspace.Snapshot().Query in process on the
// workload's own point-query strings.
func (p *prober) snapshotQuery(ws *workspace.Workspace, queries []query) {
	var point []query
	for _, q := range queries {
		if !q.scan {
			point = append(point, q)
		}
	}
	point = head(point, probeInputs)
	s := p.timed("workspace.snapshot_query", 15, func(int) int {
		for _, q := range point {
			rows, err := ws.Snapshot().Query(q.src)
			if err != nil || len(rows) != q.rows {
				p.failf("snapshot query %s: %d rows, err %v", q.src, len(rows), err)
			}
		}
		return len(point)
	})
	p.emit(timing("workspace.snapshot_query_us", "us", s))
}

// snapshotPublish times the first Snapshot() after a flush, which is
// when the workspace republishes its read view, on a fresh in-memory copy
// of the served system (the measured one is closed by now).
func (p *prober) snapshotPublish(baseFacts, n int) {
	sys, err := newServedSystem("", baseFacts)
	if err != nil {
		p.failf("snapshot publish: %v", err)
		return
	}
	defer sys.Close()
	alice, _ := sys.Principal("alice")
	ws := alice.Workspace()
	var s samples
	id := p.tr.begin("workspace.snapshot_publish", p.root, -1)
	for i := 0; i < n; i++ {
		fact := fmt.Sprintf("probe_publish(%d)", i)
		if err := ws.Update(func(tx *workspace.Tx) error { return tx.Assert(fact) }); err != nil {
			p.failf("snapshot publish: %v", err)
			break
		}
		t0 := time.Now()
		ws.Snapshot()
		s.addDur(time.Since(t0))
	}
	p.tr.finish(id)
	p.emit(timing("workspace.snapshot_publish_us", "us", s))
}
