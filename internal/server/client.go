package server

import (
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"

	"lbtrust/internal/datalog"
	"lbtrust/internal/dist"
	"lbtrust/internal/lbcrypto"
)

// Client is one session against a trust service. Requests are strict
// request/response exchanges over a single connection; the client
// serializes them internally, so a Client is safe for concurrent use but
// gains no parallelism from it — open one client per worker to exploit
// the server's parallel snapshot reads.
type Client struct {
	mu        sync.Mutex
	conn      net.Conn
	principal string
}

// Dial connects to a trust service and validates its greeting.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: dialing %s: %w", addr, err)
	}
	greet, err := dist.ReadFrame(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("server: reading greeting from %s: %w", addr, err)
	}
	if version, _, _ := strings.Cut(string(greet), " "); version != Magic {
		conn.Close()
		return nil, fmt.Errorf("server: %s greets with %q, this client speaks %s (versions do not interoperate)", addr, version, Magic)
	}
	return &Client{conn: conn}, nil
}

// Close ends the session.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}

// Principal returns the authenticated principal, or "" before
// authentication.
func (c *Client) Principal() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.principal
}

// RemoteError is a failure reported by the server. Code is the
// machine-readable diagnostic code from the err frame (see
// docs/DIAGNOSTICS.md), or "" when the server reported no typed code.
type RemoteError struct {
	Code    string
	Message string
}

func (e *RemoteError) Error() string {
	if e.Code == "" {
		return "server: " + e.Message
	}
	return "server: " + e.Code + ": " + e.Message
}

// DiagnosticCode implements datalog.Coder, so datalog.ErrCode sees
// through a client error the same way it sees through a local one.
func (e *RemoteError) DiagnosticCode() string { return e.Code }

// parseErrPayload splits an err frame payload into its code field and
// message ("-" means untyped). Payloads from pre-code servers have no
// recognizable code field and come back whole as the message.
func parseErrPayload(payload string) *RemoteError {
	payload = strings.TrimSpace(payload)
	code, msg, ok := strings.Cut(payload, " ")
	if !ok {
		code, msg = "", payload
	}
	switch {
	case code == "-":
		code = ""
	case strings.HasPrefix(code, "LB-"):
		// typed code, keep it
	default:
		code, msg = "", payload
	}
	return &RemoteError{Code: code, Message: strings.TrimSpace(msg)}
}

// roundTrip sends one request frame and decodes the status line of the
// response. Caller holds c.mu.
func (c *Client) roundTrip(req string) (status, payload string, err error) {
	if err := dist.WriteFrame(c.conn, []byte(req)); err != nil {
		return "", "", fmt.Errorf("server: sending request: %w", err)
	}
	resp, err := dist.ReadFrame(c.conn)
	if err != nil {
		return "", "", fmt.Errorf("server: reading response: %w", err)
	}
	s := string(resp)
	status = s
	if i := strings.IndexAny(s, " \n"); i >= 0 {
		status, payload = s[:i], s[i+1:]
	}
	if status == "err" {
		return status, "", parseErrPayload(payload)
	}
	return status, payload, nil
}

// Authenticate proves the session is the named principal: it requests a
// challenge and answers with an RSA signature from the key store (which
// must hold the principal's private key, e.g. loaded from the material
// EstablishRSA created).
func (c *Client) Authenticate(principal string, keys *lbcrypto.KeyStore) error {
	priv, ok := keys.RSAKey(principal)
	if !ok || priv.D == nil {
		return fmt.Errorf("server: no private key for %q in the key store", principal)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	status, nonce, err := c.roundTrip("hello " + principal)
	if err != nil {
		return err
	}
	if status != "challenge" {
		return fmt.Errorf("server: expected a challenge, got %q", status)
	}
	// Only a fixed-shape random nonce is ever signed (and only under the
	// auth domain prefix): a rogue server must not be able to obtain a
	// signature over bytes of its choosing.
	if !validNonce(nonce) {
		return fmt.Errorf("server: malformed challenge %q", nonce)
	}
	sig, err := keys.SignRSA(authMessage(nonce), priv)
	if err != nil {
		return err
	}
	if _, _, err := c.roundTrip("auth " + sig); err != nil {
		return err
	}
	c.principal = principal
	return nil
}

// Query evaluates an atom in the session's principal context (the
// server's configured anonymous context before authentication) against a
// snapshot of that principal's workspace.
func (c *Client) Query(src string) ([]datalog.Tuple, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	status, payload, err := c.roundTrip("query " + src)
	if err != nil {
		return nil, err
	}
	if status != "rows" {
		return nil, fmt.Errorf("server: expected rows, got %q", status)
	}
	return decodeRows(payload)
}

// Assert installs a fact or rule in the authenticated principal's
// workspace. Rules are statically analyzed server-side before install:
// error-severity diagnostics refuse the write (the returned error is a
// *RemoteError carrying the diagnostic code); warnings are dropped here —
// use AssertChecked to surface them.
func (c *Client) Assert(clause string) error {
	_, err := c.AssertChecked(clause)
	return err
}

// AssertChecked is Assert returning the analyzer's warning-severity
// diagnostics for the installed clause, one rendered diagnostic per
// entry.
func (c *Client) AssertChecked(clause string) (warnings []string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	status, payload, err := c.roundTrip("assert " + clause)
	if err != nil {
		return nil, err
	}
	if status != "ok" {
		return nil, fmt.Errorf("server: expected ok, got %q", status)
	}
	if payload = strings.TrimSpace(payload); payload != "" {
		warnings = strings.Split(payload, "\n")
	}
	return warnings, nil
}

// Retract removes a base fact from the authenticated principal's
// workspace.
func (c *Client) Retract(fact string) error { return c.simple("retract " + fact) }

// Say states a clause to another principal: says(me, to, [| clause |])
// in the authenticated principal's workspace, signed and shipped by the
// active scheme on the next Sync.
func (c *Client) Say(to, clause string) error { return c.simple("say " + to + " " + clause) }

// Sync pumps the service's distribution runtime until no tuple moves.
func (c *Client) Sync() error { return c.simple("sync") }

func (c *Client) simple(req string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	status, _, err := c.roundTrip(req)
	if err != nil {
		return err
	}
	if status != "ok" {
		return fmt.Errorf("server: expected ok, got %q", status)
	}
	return nil
}

// Stats fetches the server's counters.
func (c *Client) Stats() (Stats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	status, payload, err := c.roundTrip("stats")
	if err != nil {
		return Stats{}, err
	}
	if status != "json" {
		return Stats{}, fmt.Errorf("server: expected json, got %q", status)
	}
	i := strings.IndexByte(payload, '\n')
	if i < 0 {
		return Stats{}, fmt.Errorf("server: malformed stats response")
	}
	var n int
	if _, err := fmt.Sscanf(payload[:i], "%d", &n); err != nil {
		return Stats{}, fmt.Errorf("server: malformed stats length %q", payload[:i])
	}
	body := payload[i+1:]
	if len(body) != n {
		return Stats{}, fmt.Errorf("server: stats body is %d bytes, header declared %d", len(body), n)
	}
	var st Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		return Stats{}, fmt.Errorf("server: decoding stats: %w", err)
	}
	return st, nil
}
