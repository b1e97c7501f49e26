// Wire protocol of the serving layer. Requests and responses travel as
// the length-prefixed frames of internal/dist (dist.WriteFrame /
// dist.ReadFrame), and result tuples ride in the same tuple body an
// inter-node envelope carries (dist.AppendTupleLines /
// dist.ParseTupleLines: one tagged datalog/serial.go line per tuple,
// entities sent as reserved symbols, received symbols held to the symbol
// token rule, one decoder per frame), so the service speaks the
// byte-stable dialect the rest of the system already ships between nodes.
//
// On connect the server sends one greeting frame:
//
//	lbtrust-serve/2 <system kind>
//
// The version names the rows encoding; a client refuses any other
// greeting (lbtrust-serve/1 carried rows as Datalog source), so /1 and
// /2 peers do not interoperate. After the greeting the client drives a
// strict request/response exchange. A
// request frame is a verb line, optionally followed by free text (the
// atom, fact, or clause — which may span lines):
//
//	hello <principal>          begin challenge-response authentication
//	auth <hex signature>       answer the pending challenge
//	query <atom>               snapshot read in the session's context
//	explain <atom>             proof trees for the atom's matches (see below)
//	assert <fact or rule>      transactional write (authenticated only)
//	retract <fact>             transactional retraction (authenticated only)
//	say <to> <clause>          says(me, to, [| clause |]) (authenticated only)
//	sync                       pump the distribution runtime to fixpoint
//	stats                      server + distribution counters as JSON
//
// A response frame is one of:
//
//	ok [detail]
//	challenge <hex nonce>
//	rows <n>\n<n tagged tuple lines, each newline-terminated>
//	json <n>\n<n bytes of JSON>
//	err <code> <message>
//
// The err frame's first field is a machine-readable diagnostic code from
// the catalog in docs/DIAGNOSTICS.md (for example LB-STRAT-001 when an
// asserted rule would make the workspace unstratifiable), or "-" when the
// failure has no typed code. Clients surface it via RemoteError.Code.
//
// Asserting a rule (rather than a ground fact) runs the whole-program
// static analyzer against the target workspace first: error-severity
// diagnostics refuse the write with their code in the err frame, and
// warning-severity diagnostics ride back one per line after the ok
// status ("ok\n<warning per line>").
//
// # Resource limits
//
// A server started with budgets (Options.QueryLimits /
// Options.WriteLimits, or the corresponding lbtrust-serve flags)
// bounds each request independently: queries run under the query
// budget, and the flush triggered by assert/retract/say/sync runs
// under the write budget. A tripped budget fails exactly that request
// with an err frame carrying an LB-LIMIT-* code (gas LB-LIMIT-001,
// deadline LB-LIMIT-002, derived tuples LB-LIMIT-003, memory
// LB-LIMIT-004); a tripped write rolls the workspace back to its
// pre-request state before the frame is sent, so a failed request is
// never partially visible. Budgets are per-request: the next request
// on the same session starts fresh.
//
// Admission control (Options.MaxInflight / Options.MaxPerPrincipal)
// refuses — never queues — work beyond the configured concurrency with
// LB-LIMIT-005. hello, auth, and stats are always admitted so an
// overloaded node can still be authenticated against and inspected.
// Options.IdleTimeout bounds how long the server waits for a complete
// request frame; a stalled or half-open connection is closed (counted
// in ServeStats.IdleReaped) without affecting other sessions.
//
// # Explain
//
// The explain verb is query's proof-carrying sibling: it evaluates the
// atom in the session's principal context and answers with the
// derivation tree of every match, as a "json <n>\n<body>" frame whose
// body is a JSON array of proof nodes (one per matching tuple, sorted by
// predicate then canonical tuple key, so the framing is byte-stable
// across servers holding the same state). Each node carries the fact
// ("pred" plus "tuple", the parenthesized arguments in canonical surface
// syntax — display text, never decoded), how it came to hold — "rule" and
// "label" for derived facts, "base" for asserted leaves, "origin" {node, sender, trace} for tuples that
// arrived over an inter-node sync — and its premise subtrees under
// "premises". "cycle" marks a fact already expanded on the same path
// (recursive rules); "truncated" marks entries the provenance memory cap
// dropped. Explain requires the server to run with provenance capture
// enabled (Options.Provenance / lbtrust-serve -provenance); otherwise
// the request fails with an err frame.
//
// # Request tracing
//
// A server with observability attached (Options.Obs, or lbtrust-serve
// -admin-addr) mints a 16-hex-character trace ID per request. The ID
// labels the request's span and log line, and for the sync verb it rides
// inside every inter-node envelope the sync ships, as the optional
// trailing "trace=<id>" field of the dist wire header (see
// internal/dist/codec.go). The field is an optional extension:
// envelopes without a trace omit it, and decoders skip key=value
// extensions they do not recognize, so traced and untraced peers
// interoperate. Receiving nodes record
// their delivery spans and log lines under the sender's trace ID, which
// is what makes one client request followable across node boundaries.
package server

import (
	"fmt"
	"strconv"
	"strings"

	"lbtrust/internal/datalog"
	"lbtrust/internal/dist"
)

// Magic is the protocol greeting and version tag.
const Magic = "lbtrust-serve/2"

// nonceHexLen is the exact length of a challenge nonce (32 random bytes,
// hex-encoded). Clients refuse challenges of any other shape: a session
// signature must never be obtainable over attacker-chosen bytes.
const nonceHexLen = 64

// authPrefix domain-separates session-authentication signatures from
// statement signatures: a says export signs a clause's canonical text,
// a session proof signs authPrefix + nonce. Without the prefix, a rogue
// or man-in-the-middle server could present a crafted "challenge" whose
// signature doubles as a signed statement.
const authPrefix = "lbtrust-auth/1:"

// authMessage is the value both sides sign/verify for a challenge.
func authMessage(nonceHex string) datalog.Value {
	return datalog.String(authPrefix + nonceHex)
}

// validNonce reports whether a challenge has the exact required shape.
func validNonce(nonceHex string) bool {
	if len(nonceHex) != nonceHexLen {
		return false
	}
	for i := 0; i < len(nonceHex); i++ {
		c := nonceHex[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// request is one decoded client frame.
type request struct {
	verb string
	// to is the destination principal of a say request.
	to string
	// text is the free-text payload (atom, fact, clause, hex blob).
	text string
}

// parseRequest decodes a request frame.
func parseRequest(data []byte) (request, error) {
	s := string(data)
	verb := s
	rest := ""
	if i := strings.IndexAny(s, " \n"); i >= 0 {
		verb, rest = s[:i], s[i+1:]
	}
	req := request{verb: verb}
	switch verb {
	case "hello", "auth", "query", "explain", "assert", "retract":
		req.text = strings.TrimSpace(rest)
		if req.text == "" {
			return req, fmt.Errorf("server: %s needs an argument", verb)
		}
	case "say":
		to := rest
		if i := strings.IndexAny(rest, " \n"); i >= 0 {
			to, req.text = rest[:i], strings.TrimSpace(rest[i+1:])
		}
		req.to = strings.TrimSpace(to)
		if req.to == "" || req.text == "" {
			return req, fmt.Errorf("server: say needs a destination principal and a clause")
		}
	case "sync", "stats":
		if strings.TrimSpace(rest) != "" {
			return req, fmt.Errorf("server: %s takes no argument", verb)
		}
	default:
		return req, fmt.Errorf("server: unknown verb %q", verb)
	}
	return req, nil
}

// encodeRows renders a result-tuple response frame. Rows are sorted into
// the canonical value order (the same order Relation.Sorted uses): the
// wire answer must be deterministic (the restart smoke literally diffs
// two servers' outputs), and sorting by value comparison avoids
// materializing a canonical key string per row.
func encodeRows(rows []datalog.Tuple) []byte {
	datalog.SortTuples(rows)
	b := append([]byte("rows "), strconv.Itoa(len(rows))...)
	b = append(b, '\n')
	return dist.AppendTupleLines(b, rows)
}

// decodeRows parses a rows response payload (the part after "rows ").
func decodeRows(payload string) ([]datalog.Tuple, error) {
	head, body, _ := strings.Cut(payload, "\n")
	n, err := strconv.Atoi(head)
	if err != nil || n < 0 {
		return nil, fmt.Errorf("server: malformed rows header %q", head)
	}
	rows, err := dist.ParseTupleLines(body, n)
	if err != nil {
		return nil, fmt.Errorf("server: rows response: %w", err)
	}
	return rows, nil
}

// errFrame renders an error response: "err <code> <message>". The code
// field is the diagnostic code carried by the error (datalog.ErrCode),
// or "-" when the error is untyped; the message is flattened to one line
// so the status line stays parseable.
func errFrame(err error) []byte {
	code := datalog.ErrCode(err)
	if code == "" {
		code = "-"
	}
	msg := strings.ReplaceAll(err.Error(), "\n", " / ")
	return []byte("err " + code + " " + msg)
}
