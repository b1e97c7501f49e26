// Package lbtrust is a from-scratch Go implementation of LBTrust, the
// unified declarative system for reconfigurable trust management of
// Marczak et al., "Declarative Reconfigurable Trust Management" (CIDR
// 2009).
//
// LBTrust expresses security constructs — authentication (says),
// authenticated communication, authorization, speaks-for, restricted
// delegation, thresholds — as ordinary rule sets in a Datalog dialect with
// constraints, meta-programming over a reified rule model, partitioned
// predicates, and distribution. Because the constructs are rules,
// reconfiguring the system (for example switching message authentication
// between plaintext, HMAC-SHA1 and 1024-bit RSA) is a two-clause change.
//
// The top-level package is a facade over the implementation packages:
//
//   - internal/datalog — parser and semi-naive fixpoint engine
//   - internal/meta — the Figure 1 meta-model, quoted-code patterns
//   - internal/workspace — transactional workspaces with constraints
//   - internal/lbcrypto — RSA/HMAC/AES/checksum built-ins
//   - internal/dist — partitioning, placement and transports
//   - internal/core — the security constructs
//   - internal/binder, internal/sendlog, internal/d1lp — case studies
//
// Quickstart:
//
//	sys := lbtrust.NewSystem()
//	alice, _ := sys.AddPrincipal("alice")
//	bob, _ := sys.AddPrincipal("bob")
//	sys.EstablishRSA("alice")
//	sys.EstablishRSA("bob")
//	alice.UseScheme(lbtrust.SchemeRSA)
//	bob.UseScheme(lbtrust.SchemeRSA)
//	bob.TrustAll()
//	alice.Say("bob", `greeting(hello).`)
//	sys.Sync()
//	rows, _ := bob.Query(`greeting(X)`)
package lbtrust

import (
	"log/slog"

	"lbtrust/internal/analysis"
	"lbtrust/internal/binder"
	"lbtrust/internal/core"
	"lbtrust/internal/d1lp"
	"lbtrust/internal/datalog"
	"lbtrust/internal/dist"
	"lbtrust/internal/lbcrypto"
	"lbtrust/internal/obs"
	"lbtrust/internal/provenance"
	"lbtrust/internal/sendlog"
	"lbtrust/internal/server"
	"lbtrust/internal/store"
	"lbtrust/internal/workspace"
)

// System is a set of LBTrust principals connected by the distribution
// runtime.
type System = core.System

// Principal is one LBTrust context: a workspace plus cryptographic
// identity.
type Principal = core.Principal

// Scheme selects the authentication scheme for says (Section 4.1.2 of the
// paper).
type Scheme = core.Scheme

// The reconfigurable authentication schemes of the paper's evaluation.
const (
	SchemePlaintext = core.SchemePlaintext
	SchemeHMAC      = core.SchemeHMAC
	SchemeRSA       = core.SchemeRSA
)

// Workspace is a standalone LBTrust workspace (database instance plus
// active rules), for programs that do not need multiple principals.
type Workspace = workspace.Workspace

// Tx batches workspace updates transactionally.
type Tx = workspace.Tx

// FlushDelta is the per-predicate change set a successful workspace flush
// hands to flush observers: the distribution runtime consumes it to ship
// only fresh tuples, in work proportional to the change rather than the
// database size (see Workspace.AddOnFlush).
type FlushDelta = workspace.FlushDelta

// ViolationError reports constraint violations that rolled a transaction
// back.
type ViolationError = workspace.ViolationError

// Diagnostic is one static-analysis finding. The catalog of codes —
// message, cause, and fix for each — is docs/DIAGNOSTICS.md. Workspaces
// expose the analyzer via AnalyzeSource / AnalyzeProgram, and every
// program load is gated on it: error-severity diagnostics refuse the
// load, warnings do not.
type Diagnostic = analysis.Diagnostic

// Diagnostic severities.
const (
	SevWarning = analysis.SevWarning
	SevError   = analysis.SevError
)

// HasDiagnosticErrors reports whether any diagnostic in the slice is
// error severity (the condition under which loads are refused).
func HasDiagnosticErrors(diags []Diagnostic) bool { return analysis.HasErrors(diags) }

// ErrCode extracts the machine-readable diagnostic code carried by an
// error ("" when the error is untyped). It sees through wrapped errors,
// analyzer refusals, and RemoteError failures reported by a trust
// service.
func ErrCode(err error) string { return datalog.ErrCode(err) }

// RemoteError is a typed failure reported by a trust service over the
// wire; Code carries the diagnostic code of the refusal, if any.
type RemoteError = server.RemoteError

// Tuple is a row of runtime values.
type Tuple = datalog.Tuple

// Value is a runtime constant (string, int, symbol, entity, code).
type Value = datalog.Value

// Transport is the pluggable wire layer under the distribution runtime:
// it manufactures named endpoints that ship partitioned tuples between
// nodes. MemNetwork and TCPNetwork are the built-in implementations.
type Transport = dist.Transport

// Endpoint is one node's attachment point to a Transport.
type Endpoint = dist.Endpoint

// MemNetwork is the in-process transport (the paper's single-host
// evaluation).
type MemNetwork = dist.MemNetwork

// TCPNetwork ships tuples as length-prefixed canonical frames over
// loopback/LAN TCP sockets.
type TCPNetwork = dist.TCPNetwork

// Node is one placement site of the distribution runtime; principals can
// be placed on nodes with System.AddPrincipalOn.
type Node = dist.Node

// Stats is a snapshot of the distribution runtime: sync/round counters,
// pump work counters (tuples scanned, delta tuples accepted, duplicates
// suppressed, send failures), plus per-node transfer totals (see
// System.Stats).
type Stats = dist.Stats

// DefaultShippedCap bounds the runtime's shipped-tuple suppression set;
// see Runtime.SetShippedCap for the eviction policy.
const DefaultShippedCap = dist.DefaultShippedCap

// NodeStats is one node's delivery and wire counters.
type NodeStats = dist.NodeStats

// TransferStats counts an endpoint's wire traffic (messages and encoded
// bytes), identically for every transport.
type TransferStats = dist.TransferStats

// Rejection records a delivery refused by the receiver's constraints.
type Rejection = dist.Rejection

// BinderContext is a Binder-language view of a principal (Section 5.1).
type BinderContext = binder.Context

// SeNDlogNetwork runs SeNDlog protocols over LBTrust principals
// (Section 5.2).
type SeNDlogNetwork = sendlog.Network

// DurableOptions configures OpenSystem: the transport and the
// write-ahead-log fsync policy.
type DurableOptions = core.DurableOptions

// FsyncPolicy selects when the write-ahead log is forced to stable
// storage.
type FsyncPolicy = store.FsyncPolicy

// The write-ahead-log sync policies: FsyncAlways makes every flush wait
// for (group-committed) durability, FsyncInterval (the default) syncs on
// a timer off the hot path, FsyncOff leaves writeback to the OS.
const (
	FsyncAlways   = store.FsyncAlways
	FsyncInterval = store.FsyncInterval
	FsyncOff      = store.FsyncOff
)

// ParseFsyncPolicy parses "always", "interval", or "off".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return store.ParseFsyncPolicy(s) }

// OpenSystem opens (creating if needed) a durable system rooted at dir:
// every workspace flush, shipment, and key establishment is recorded in a
// write-ahead log under dir, System.Checkpoint() writes a compacting
// snapshot — the same records, as a compacted log — and rotates the log,
// and reopening the directory replays snapshot and log through one
// interpreter to rebuild the system — workspaces answer queries
// byte-identically to the pre-crash system, and the next Sync re-delivers
// nothing already applied. Snapshots are format version 2; a version 1
// snapshot is refused (version 1 logs still replay). Close the system to
// flush the log.
func OpenSystem(dir string, opts DurableOptions) (*System, error) {
	return core.OpenSystem(dir, opts)
}

// NewSystem creates a system with a single in-memory node.
func NewSystem() *System { return core.NewSystem() }

// NewSystemWith creates a system over an explicit transport, e.g.
// lbtrust.NewSystemWith(lbtrust.NewTCPNetwork()) to run the identical
// protocol over sockets. Use System.Stats for wire cost and System.Close
// to release listeners.
func NewSystemWith(t Transport) (*System, error) { return core.NewSystemWith(t) }

// NewMemNetwork creates the in-process transport.
func NewMemNetwork() *MemNetwork { return dist.NewMemNetwork() }

// NewTCPNetwork creates the TCP transport (loopback listeners).
func NewTCPNetwork() *TCPNetwork { return dist.NewTCPNetwork() }

// NewWorkspace creates a standalone workspace for the given principal
// name.
func NewWorkspace(principal string) *Workspace { return workspace.New(principal) }

// ---- serving layer ----------------------------------------------------------

// Snapshot is an immutable view of a workspace: any number of goroutines
// query it concurrently with no lock held, while writers keep flushing
// the live workspace (see Workspace.Snapshot).
type Snapshot = workspace.Snapshot

// Server hosts a System as a network trust service: sessions
// authenticate as principals via challenge–response over their
// established RSA keys, queries run as parallel snapshot reads, and
// writes land as the proven principal's statements.
type Server = server.Server

// ServerOptions configures Serve (the anonymous-query principal,
// per-request evaluation budgets, admission control, idle deadlines,
// provenance capture, the slow-query threshold, and observability).
type ServerOptions = server.Options

// Limits bounds what one request may spend during evaluation: gas
// (tuples enumerated), wall-clock time, derived tuples, and estimated
// derived-tuple memory. The zero value means unlimited. Arm limits per
// workspace with Workspace.SetLimits, or server-wide with
// ServerOptions.QueryLimits / ServerOptions.WriteLimits; a tripped
// budget fails that one request with an LB-LIMIT-* error
// (docs/DIAGNOSTICS.md) and a tripped write rolls back.
type Limits = datalog.Limits

// ServeStats is a snapshot of a server's session and request counters.
type ServeStats = server.Stats

// Client is one authenticated session against a served trust system.
type Client = server.Client

// KeyStore holds principal key material; clients authenticate with a
// store holding their principal's private key (see
// KeyStore.ImportRSAPrivateDER for key files written by
// lbtrust-serve -export-keys).
type KeyStore = lbcrypto.KeyStore

// NewKeyStore creates an empty key store.
func NewKeyStore() *KeyStore { return lbcrypto.NewKeyStore() }

// Serve starts a trust service for the system on a TCP address.
func Serve(sys *System, addr string, opts ServerOptions) (*Server, error) {
	return server.Serve(sys, addr, opts)
}

// Dial connects to a served trust system.
func Dial(addr string) (*Client, error) { return server.Dial(addr) }

// ---- observability ----------------------------------------------------------

// Obs bundles the observability backends threaded through a system or
// server: a metrics registry, a structured logger, and a trace recorder.
// Every field is optional (nil disables that signal); pass the bundle
// via ServerOptions.Obs or System.SetObs. See docs/OBSERVABILITY.md.
type Obs = obs.Obs

// MetricsRegistry collects named counters, gauges, and histograms and
// renders them in Prometheus text exposition format.
type MetricsRegistry = obs.Registry

// Tracer records request spans in a bounded in-memory ring.
type Tracer = obs.Tracer

// TraceID identifies one request across node boundaries (16 hex chars).
type TraceID = obs.TraceID

// Span is one recorded operation of a trace.
type Span = obs.Span

// AdminServer is the operator HTTP endpoint: /metrics, /healthz, and
// /debug/pprof on a dedicated listener.
type AdminServer = obs.AdminServer

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTracer creates a span recorder keeping the most recent capacity
// spans.
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// ServeAdmin starts the admin endpoint (lbtrust-serve exposes it via
// -admin-addr).
func ServeAdmin(addr string, reg *MetricsRegistry) (*AdminServer, error) {
	return obs.ServeAdmin(addr, reg)
}

// AuditLog is a bounded in-memory ring of authorization audit entries
// with an optional structured-log mirror. A server records every
// authenticated query and write on it (who, which verb, under which
// trace ID, touching which proof roots, and the outcome), and the admin
// endpoint serves the retained history at /debug/audit. Attach one via
// Obs.AuditLog.
type AuditLog = obs.AuditLog

// AuditEntry is one recorded authorization event.
type AuditEntry = obs.AuditEntry

// NewAuditLog creates an audit ring keeping the last capacity entries
// (<= 0 selects the default of 4096), mirroring each recorded entry to
// logger at info level when logger is non-nil.
func NewAuditLog(capacity int, logger *slog.Logger) *AuditLog {
	return obs.NewAuditLog(capacity, logger)
}

// ServeAdminAudit is ServeAdmin additionally serving the authorization
// audit ring at /debug/audit.
func ServeAdminAudit(addr string, reg *MetricsRegistry, audit *AuditLog) (*AdminServer, error) {
	return obs.ServeAdminAudit(addr, reg, audit)
}

// Proof is an explanation tree for one tuple, as built by
// Workspace.Explain / Workspace.ExplainQuery from the workspace's
// provenance store (Workspace.EnableProvenance): interior nodes carry
// the rule that derived the fact and its premise subtrees; leaves are
// asserted base facts, tuples delivered by a cross-node sync (with
// origin node, sender, and envelope trace ID), recursion guards, or
// entries dropped by the provenance memory cap.
type Proof = provenance.Proof

// ProofNode is the wire form of a proof-tree node, what Client.Explain
// returns; Render formats the tree as indented text.
type ProofNode = server.ProofNode

// ProofOrigin is the wire form of a remote-delivery proof leaf.
type ProofOrigin = server.ProofOrigin

// NewBinderContext wraps a principal as a Binder context.
func NewBinderContext(p *Principal) *BinderContext { return binder.NewContext(p) }

// NewSeNDlogNetwork creates a SeNDlog network with one principal per node
// name, using the given authentication scheme.
func NewSeNDlogNetwork(nodes []string, scheme Scheme) (*SeNDlogNetwork, error) {
	return sendlog.NewNetwork(nodes, scheme)
}

// NewSeNDlogNetworkWith creates a SeNDlog network over an explicit
// transport, with each protocol node on its own distribution node so
// every advertisement crosses the wire layer. Close the network's System
// when done.
func NewSeNDlogNetworkWith(t Transport, nodes []string, scheme Scheme) (*SeNDlogNetwork, error) {
	return sendlog.NewNetworkWith(t, nodes, scheme)
}

// CompileBinder translates Binder surface syntax ("bob says p(..)") into
// LBTrust source.
func CompileBinder(src string) (string, error) { return binder.Compile(src) }

// CompileSeNDlog translates a SeNDlog program executing at contextVar
// ("p(..)@X" exports, "W says p(..)" imports) into LBTrust source.
func CompileSeNDlog(contextVar, src string) (string, error) {
	return sendlog.Compile(contextVar, src)
}

// ApplyD1LP executes a D1LP-style delegation statement such as
// "delegates credit^2 to bob" or "delegates creditOK to threshold(3,
// creditBureau)" in the principal's context.
func ApplyD1LP(p *Principal, stmt string) error { return d1lp.Apply(p, stmt) }

// ParseProgram parses LBTrust surface syntax, for tools that inspect
// programs without executing them.
func ParseProgram(src string) (*datalog.Program, error) { return datalog.ParseProgram(src) }
