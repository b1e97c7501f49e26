package dist

import (
	"fmt"
	"sync/atomic"
	"unicode"

	"lbtrust/internal/datalog"
)

// Envelope is one delivery unit: a batch of tuples from one sending
// principal to one receiving principal, addressed node-to-node. The
// destination predicate is already remapped under the runtime's delivery
// map (export tuples arrive as import tuples), so an envelope can be
// applied to the receiving workspace without further interpretation.
type Envelope struct {
	From      string // source node
	To        string // destination node
	Sender    string // sending principal
	Principal string // receiving principal
	Pred      string // destination predicate (post delivery-map)
	// Trace, when non-empty, is the request trace ID the delivery belongs
	// to. It travels as an optional trailing header field (see codec.go);
	// envelopes without a trace encode byte-identically to the pre-trace
	// wire format, and decoders ignore unknown trailing fields.
	Trace  string
	Tuples []datalog.Tuple
}

// Receiver consumes inbound envelopes on a node. The returned error is
// transport-level (unknown principal, decode failure); per-tuple constraint
// rejections are recorded on the node, not returned.
type Receiver func(env *Envelope) error

// Endpoint is one node's attachment point to a Transport. Send addresses a
// peer endpoint by name and blocks until the peer's Receiver has applied
// the envelope (or refused it), so that Sync rounds observe a consistent
// global state. Implementations count traffic in TransferStats using the
// wire encoding of codec.go, which both in-memory and TCP endpoints share.
type Endpoint interface {
	// Name returns the endpoint (node) name.
	Name() string
	// Send encodes and delivers an envelope to the named peer endpoint.
	Send(to string, env *Envelope) error
	// SetReceiver installs the inbound delivery callback. The runtime
	// calls this once when the endpoint is bound to a node.
	SetReceiver(fn Receiver)
	// Stats returns a snapshot of the endpoint's transfer counters.
	Stats() TransferStats
	// Close releases the endpoint's resources (listeners, connections).
	Close() error
}

// Transport manufactures named endpoints that can reach each other: the
// pluggable wire layer under the distribution runtime. MemNetwork wires
// endpoints with function calls in one process (the paper's single-host
// evaluation); TCPNetwork wires them with length-prefixed frames over
// loopback or LAN sockets. Both push envelopes through the same canonical
// codec, so a protocol run is bit-for-bit identical across transports.
type Transport interface {
	// Endpoint creates (or returns) the endpoint with the given name.
	Endpoint(name string) (Endpoint, error)
	// Close shuts down every endpoint of the transport.
	Close() error
}

// validateName rejects endpoint names that would corrupt the
// space-separated wire header (principal and predicate names are already
// parser-restricted upstream; node names arrive from arbitrary Go code).
// The check mirrors the decoder, which splits the header with
// strings.Fields: any Unicode whitespace is forbidden.
func validateName(name string) error {
	if name == "" {
		return fmt.Errorf("dist: endpoint name must be non-empty")
	}
	for _, r := range name {
		if unicode.IsSpace(r) {
			return fmt.Errorf("dist: endpoint name %q must not contain whitespace", name)
		}
	}
	return nil
}

// TransferStats counts an endpoint's wire traffic. Bytes measure encoded
// envelope payloads, identically for every transport, so the Figure 2
// benchmark can report wire cost next to CPU time.
type TransferStats struct {
	MessagesSent     int64
	MessagesReceived int64
	BytesSent        int64
	BytesReceived    int64
}

// Add accumulates o into s.
func (s *TransferStats) Add(o TransferStats) {
	s.MessagesSent += o.MessagesSent
	s.MessagesReceived += o.MessagesReceived
	s.BytesSent += o.BytesSent
	s.BytesReceived += o.BytesReceived
}

func (s TransferStats) String() string {
	return fmt.Sprintf("sent %d msg / %d B, received %d msg / %d B",
		s.MessagesSent, s.BytesSent, s.MessagesReceived, s.BytesReceived)
}

// statsCounter is the atomic TransferStats shared by endpoint
// implementations; /metrics reads it while sends are in flight.
type statsCounter struct {
	msgsSent, msgsRecv, bytesSent, bytesRecv atomic.Int64
}

func (c *statsCounter) sent(bytes int) {
	c.msgsSent.Add(1)
	c.bytesSent.Add(int64(bytes))
}

func (c *statsCounter) received(bytes int) {
	c.msgsRecv.Add(1)
	c.bytesRecv.Add(int64(bytes))
}

func (c *statsCounter) snapshot() TransferStats {
	return TransferStats{
		MessagesSent:     c.msgsSent.Load(),
		MessagesReceived: c.msgsRecv.Load(),
		BytesSent:        c.bytesSent.Load(),
		BytesReceived:    c.bytesRecv.Load(),
	}
}
