// Durability wiring: OpenSystem builds a System whose every workspace
// flush, placement, delivery, and key establishment is recorded in an
// internal/store write-ahead log, and which — when the directory already
// holds state — rebuilds itself from the latest snapshot plus log replay
// before accepting new work. Replay is load-mode end to end: logged
// deltas are inserted directly, signatures are not re-verified and rules
// are not re-run (except after logged retractions, whose deltas are void
// by construction), so recovery cost tracks the size of the state, not
// the cost of recomputing it.
package core

import (
	"fmt"
	"sync"
	"time"

	"lbtrust/internal/datalog"
	"lbtrust/internal/dist"
	"lbtrust/internal/lbcrypto"
	"lbtrust/internal/store"
	"lbtrust/internal/workspace"
)

// DurableOptions configures OpenSystem.
type DurableOptions struct {
	// Transport is the wire layer (default: in-memory).
	Transport dist.Transport
	// Fsync is the log sync policy (default store.FsyncInterval).
	Fsync store.FsyncPolicy
	// FsyncInterval is the timer for the interval policy (default 50ms).
	FsyncInterval time.Duration
	// AutoCheckpointBytes, when positive, checkpoints automatically once
	// the active log segment reaches this many bytes, so an unattended
	// server never replays an ever-growing log on restart.
	AutoCheckpointBytes int64
	// AutoCheckpointInterval, when positive, checkpoints automatically
	// whenever this much time has passed since the last checkpoint and the
	// log has grown in between (an idle system is never checkpointed).
	// Bytes and interval triggers compose; either alone suffices.
	AutoCheckpointInterval time.Duration
}

// durableState is the store side of a System, kept in its own struct so
// the non-durable constructors pay nothing.
type durableState struct {
	st  *store.Store
	mu  sync.Mutex
	err error // sticky background log error, surfaced on Checkpoint/Close

	// Auto-checkpoint trigger goroutine lifecycle (nil channels when the
	// trigger is not configured).
	stopAuto chan struct{}
	autoDone chan struct{}
}

func (d *durableState) note(err error) {
	if err == nil {
		return
	}
	d.mu.Lock()
	if d.err == nil {
		d.err = err
	}
	d.mu.Unlock()
}

func (d *durableState) sticky() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// OpenSystem opens (creating if needed) a durable system rooted at dir.
// On a fresh directory it returns an empty system whose state will
// survive restarts; on an existing one it first rebuilds the system from
// the newest snapshot and the write-ahead log, restoring workspaces
// byte-identically (queries answer exactly as before the crash) and the
// distribution runtime's shipped set (the next Sync re-delivers nothing
// already applied, and ships anything that was asserted but never
// shipped). Close the system to flush and release the log.
func OpenSystem(dir string, opts DurableOptions) (*System, error) {
	tr := opts.Transport
	if tr == nil {
		tr = dist.NewMemNetwork()
	}
	st, recovered, err := store.Open(dir, store.Options{Fsync: opts.Fsync, FsyncInterval: opts.FsyncInterval})
	if err != nil {
		return nil, err
	}
	sys, err := NewSystemWith(tr)
	if err != nil {
		st.Close()
		return nil, err
	}
	if err := sys.replay(recovered); err != nil {
		st.Close()
		sys.Close()
		return nil, fmt.Errorf("core: recovering %s: %w", dir, err)
	}
	// Wire journaling only now: events replayed from the log must not be
	// re-logged.
	sys.durable = &durableState{st: st}
	for _, name := range sys.order {
		p := sys.principals[name]
		pname := name
		p.ws.SetJournal(func(j *workspace.FlushJournal) {
			sys.durable.note(st.LogFlushNoWait(pname, j))
		})
		p.ws.SetJournalSync(func() { sys.durable.note(st.WaitDurable()) })
	}
	sys.runtime.SetJournal(sys.logDistEvent)
	if opts.AutoCheckpointBytes > 0 || opts.AutoCheckpointInterval > 0 {
		sys.durable.startAutoCheckpoint(sys, opts.AutoCheckpointBytes, opts.AutoCheckpointInterval)
	}
	return sys, nil
}

// autoCheckpointPoll is how often the trigger goroutine re-reads the log
// size. Polling a counter is cheap; the actual checkpoint work only runs
// when a threshold trips.
const autoCheckpointPoll = 100 * time.Millisecond

// startAutoCheckpoint launches the background trigger: checkpoint when
// the active log segment exceeds maxBytes (if positive), or when interval
// has elapsed since the last checkpoint with the log non-empty (if
// positive). Checkpoint errors are sticky, surfaced on the next explicit
// Checkpoint or Close like background log errors.
func (d *durableState) startAutoCheckpoint(sys *System, maxBytes int64, interval time.Duration) {
	d.stopAuto = make(chan struct{})
	d.autoDone = make(chan struct{})
	go func() {
		defer close(d.autoDone)
		ticker := time.NewTicker(autoCheckpointPoll)
		defer ticker.Stop()
		last := time.Now()
		var retryAt time.Time
		for {
			select {
			case <-d.stopAuto:
				return
			case <-ticker.C:
			}
			size := d.st.LogSize()
			due := maxBytes > 0 && size >= maxBytes
			due = due || (interval > 0 && size > 0 && time.Since(last) >= interval)
			if !due || time.Now().Before(retryAt) {
				continue
			}
			if err := d.st.Checkpoint(sys.captureSnapshot); err != nil {
				// A failed checkpoint (disk full, permissions) is retried on
				// a backoff, not once per poll tick (a bytes trigger stays
				// tripped) and not a whole interval later (the condition
				// may clear in seconds while the log keeps growing).
				d.note(err)
				retryAt = time.Now().Add(5 * time.Second)
				continue
			}
			retryAt = time.Time{}
			last = time.Now()
		}
	}()
}

// stopAutoCheckpoint stops the trigger goroutine and waits for any
// in-flight checkpoint to finish, so Close never races a capture.
func (d *durableState) stopAutoCheckpoint() {
	if d.stopAuto == nil {
		return
	}
	close(d.stopAuto)
	<-d.autoDone
	d.stopAuto = nil
}

// logDistEvent records one distribution runtime event in the log.
// Placements are not logged here — they ride on the prin records
// AddPrincipalOn writes (a bare place event from a manual
// Node.AddPrincipal has no durable principal to attach to).
func (s *System) logDistEvent(ev dist.Event) {
	if d := s.durable; d != nil {
		d.note(d.st.LogDistEvent(ev))
	}
}

// replay rebuilds system state from a recovery result: every record, the
// snapshot's and then the log's, through applyRecord in order, then
// per-workspace finalization. One decoder spans the replay, so each
// rule's canonical text parses once however many records carry it.
func (s *System) replay(rec *store.Recovered) error {
	dec := datalog.NewDecoder()
	for _, r := range rec.Records {
		if err := s.applyRecord(r, dec); err != nil {
			return err
		}
	}
	for _, name := range s.order {
		if err := s.principals[name].ws.FinishRestore(); err != nil {
			return fmt.Errorf("finishing %s: %w", name, err)
		}
	}
	return nil
}

// restoreNode recreates a node by name, routing "local" through the
// default-node path so later AddPrincipal calls reuse it.
func (s *System) restoreNode(name string) (*dist.Node, error) {
	if name == "local" {
		return s.defaultNode()
	}
	if n, ok := s.runtime.Node(name); ok {
		return n, nil
	}
	return s.AddNode(name)
}

// restorePrincipal recreates a principal shell — workspace, key store,
// built-ins — without loading any program: replay supplies the state.
func (s *System) restorePrincipal(name, nodeName string) (*Principal, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.principals[name]; ok {
		return p, nil // idempotent replay across snapshot + log
	}
	node, err := s.restoreNodeLocked(nodeName)
	if err != nil {
		return nil, err
	}
	p := &Principal{
		name:   name,
		sys:    s,
		ws:     workspace.New(name),
		keys:   lbcrypto.NewKeyStore(),
		scheme: SchemePlaintext,
	}
	lbcrypto.Register(p.ws.Builtins(), p.keys)
	s.principals[name] = p
	s.order = append(s.order, name)
	node.AddPrincipal(p.ws)
	return p, nil
}

// restoreNodeLocked is restoreNode for callers already holding s.mu.
func (s *System) restoreNodeLocked(name string) (*dist.Node, error) {
	if name == "local" {
		if s.defaultNd != nil {
			return s.defaultNd, nil
		}
		ep, err := s.transport.Endpoint("local")
		if err != nil {
			return nil, err
		}
		s.defaultNd = s.runtime.AddNode("local", ep)
		return s.defaultNd, nil
	}
	if n, ok := s.runtime.Node(name); ok {
		return n, nil
	}
	ep, err := s.transport.Endpoint(name)
	if err != nil {
		return nil, err
	}
	return s.runtime.AddNode(name, ep), nil
}

// adoptScheme restores a principal's scheme bookkeeping (the field and
// the signer codes UseScheme swaps out) without touching the workspace —
// the scheme's rules and constraint were replayed with everything else.
func (p *Principal) adoptScheme(sc Scheme) error {
	def, ok := schemes[sc]
	if !ok {
		return fmt.Errorf("core: unknown scheme %q in log", sc)
	}
	p.schemeRules = nil
	for _, src := range []string{def.signer, def.signerOut} {
		r, err := datalog.ParseClause(src)
		if err != nil {
			return fmt.Errorf("core: scheme %s signer: %w", sc, err)
		}
		p.schemeRules = append(p.schemeRules, workspace.SpecializeCode(r, datalog.Sym(p.name)))
	}
	p.scheme = sc
	return nil
}

// importKey replays one key-material record: private RSA keys go to their
// owner with the public half distributed to every other principal (as
// EstablishRSA did originally), shared secrets to both ends of the pair.
func (s *System) importKey(k store.KeyRecord) error {
	switch k.Kind {
	case "rsa-priv":
		owner, ok := s.principals[k.Name]
		if !ok {
			return fmt.Errorf("core: key record for unknown principal %s", k.Name)
		}
		if err := owner.keys.ImportRSAPrivateDER(k.Name, k.Data); err != nil {
			return err
		}
		key, _ := owner.keys.RSAKey(k.Name)
		for _, other := range s.principals {
			if other != owner {
				other.keys.ImportRSAPublic(k.Name, &key.PublicKey)
			}
		}
		return nil
	case "shared":
		a, b, ok := lbcrypto.SplitPair(k.Name)
		if !ok {
			return fmt.Errorf("core: malformed shared-secret pair %q", k.Name)
		}
		for _, name := range []string{a, b} {
			if p, ok := s.principals[name]; ok {
				p.keys.ImportSharedPair(k.Name, k.Data)
			}
		}
		return nil
	}
	return fmt.Errorf("core: unknown key record kind %q", k.Kind)
}

// applyRecord replays one record, from a snapshot or from the log: the
// two hold the same kinds, and replay is ordered and idempotent, so a
// change that is in both lands once.
func (s *System) applyRecord(r *store.Record, dec *datalog.Decoder) error {
	switch r.Kind {
	case store.KindSnapBegin:
		// The shipped set's generation counter rides on the bracket; the
		// ship records that follow carry only their own generations.
		gen, err := store.DecodeSnapBegin(r)
		if err != nil {
			return err
		}
		s.runtime.RestoreShipped(gen, nil)
		return nil
	case store.KindNode:
		name, err := r.Field(0)
		if err != nil {
			return err
		}
		_, err = s.restoreNode(name)
		return err
	case store.KindPrin:
		name, err := r.Field(0)
		if err != nil {
			return err
		}
		node, err := r.Field(1)
		if err != nil {
			return err
		}
		_, err = s.restorePrincipal(name, node)
		return err
	case store.KindScheme:
		name, err := r.Field(0)
		if err != nil {
			return err
		}
		scheme, err := r.Field(1)
		if err != nil {
			return err
		}
		p, ok := s.principals[name]
		if !ok {
			return fmt.Errorf("core: scheme record for unknown principal %s", name)
		}
		return p.adoptScheme(Scheme(scheme))
	case store.KindKey:
		k, err := store.DecodeKey(r)
		if err != nil {
			return err
		}
		return s.importKey(k)
	case store.KindMap:
		src, err := r.Field(0)
		if err != nil {
			return err
		}
		dst, err := r.Field(1)
		if err != nil {
			return err
		}
		s.runtime.SetDeliveryMap(src, dst)
		return nil
	case store.KindReset:
		target, err := r.Field(0)
		if err != nil {
			return err
		}
		s.runtime.ResetDeliveries(target)
		return nil
	case store.KindShip:
		ships, err := store.DecodeShips(r)
		if err != nil {
			return err
		}
		var maxGen uint64
		for _, sh := range ships {
			maxGen = max(maxGen, sh.Gen)
		}
		s.runtime.RestoreShipped(maxGen, ships)
		return nil
	case store.KindFlush:
		principal, j, err := store.DecodeFlushWith(r, dec)
		if err != nil {
			return err
		}
		p, ok := s.principals[principal]
		if !ok {
			return fmt.Errorf("core: flush record for unknown principal %s", principal)
		}
		return p.ws.ApplyJournal(j)
	}
	return fmt.Errorf("core: unknown log record kind %q", r.Kind)
}

// captureSnapshot renders the whole system as the records that recreate
// it — the body of a snapshot file, in replay order: nodes, principals
// with their schemes and keys, delivery maps, the shipped set, then each
// workspace's captured journals. The runtime's shipped set is captured
// before the workspaces: if a delivery commits in between, the snapshot
// holds the receiver's tuple without its ship record, and recovery merely
// re-ships it (receivers apply deliveries idempotently); the opposite
// order could record a shipment whose delivery was never captured — a
// lost tuple.
func (s *System) captureSnapshot() (gen uint64, payloads [][]byte, err error) {
	rt := s.runtime.CaptureState()
	s.mu.Lock()
	names := append([]string{}, s.order...)
	principals := make([]*Principal, len(names))
	nodeOf := map[string]string{}
	for i, n := range names {
		principals[i] = s.principals[n]
		// Placement is resolved under s.mu, not from the runtime capture
		// above: AddPrincipalOn holds s.mu from the prin log record
		// through placement, so this pairing is consistent, while the
		// earlier runtime snapshot could predate a concurrent principal's
		// placement and record it with no node.
		if nd, ok := s.runtime.Placement(n); ok {
			nodeOf[n] = nd.Name()
		} else {
			nodeOf[n] = "local"
		}
	}
	s.mu.Unlock()

	add := func(r *store.Record) { payloads = append(payloads, r.Encode()) }
	for _, n := range s.runtime.Nodes() {
		add(&store.Record{Kind: store.KindNode, Fields: []string{n}})
	}
	// Every principal exists before any key is imported: replaying an RSA
	// private key hands its public half to all the others.
	for i, p := range principals {
		add(&store.Record{Kind: store.KindPrin, Fields: []string{names[i], nodeOf[names[i]]}})
		add(&store.Record{Kind: store.KindScheme, Fields: []string{names[i], string(p.scheme)}})
	}
	sharedSeen := map[string]bool{}
	for _, p := range principals {
		if der, ok := p.keys.ExportRSAPrivate(p.name); ok {
			add(store.EncodeKey(store.KeyRecord{Kind: "rsa-priv", Name: p.name, Data: der}))
		}
		for pair, secret := range p.keys.ExportShared() {
			if !sharedSeen[pair] {
				sharedSeen[pair] = true
				add(store.EncodeKey(store.KeyRecord{Kind: "shared", Name: pair, Data: secret}))
			}
		}
	}
	for _, m := range rt.DeliveryMaps {
		add(&store.Record{Kind: store.KindMap, Fields: []string{m[0], m[1]}})
	}
	if len(rt.Ships) > 0 {
		payloads = append(payloads, store.AppendShipsPayload(nil, rt.Ships))
	}
	for _, p := range principals {
		for _, j := range p.ws.CaptureJournal() {
			payloads = append(payloads, store.EncodeFlushPayload(p.name, j))
		}
	}
	return rt.Gen, payloads, nil
}

// Checkpoint writes a compacting snapshot of the whole system and rotates
// the write-ahead log, bounding recovery time and disk use. It returns
// any background log error accumulated since the last call.
func (s *System) Checkpoint() error {
	if s.durable == nil {
		return fmt.Errorf("core: system has no store (use OpenSystem)")
	}
	if err := s.durable.sticky(); err != nil {
		return fmt.Errorf("core: write-ahead log error: %w", err)
	}
	return s.durable.st.Checkpoint(s.captureSnapshot)
}
