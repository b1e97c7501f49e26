package server

import (
	"encoding/json"
	"fmt"
	"strings"

	"lbtrust/internal/datalog"
	"lbtrust/internal/provenance"
)

// ProofOrigin is the wire form of a remote-delivery leaf: the tuple
// arrived over an inter-node sync from Node, exported by Sender, under
// the envelope trace Trace ("" when the sync was untraced).
type ProofOrigin struct {
	Node   string `json:"node"`
	Sender string `json:"sender"`
	Trace  string `json:"trace,omitempty"`
}

// ProofNode is the wire form of one node of a proof tree, as served by
// the explain verb. Tuple is display text — the parenthesized arguments
// in canonical surface syntax — and is never decoded; Rule and Label are
// set on derived facts;
// exactly one of {Rule, Base, Origin, Cycle} explains a node, except that
// Truncated may accompany Base when the provenance cap dropped entries.
type ProofNode struct {
	Pred  string `json:"pred"`
	Tuple string `json:"tuple"`
	// Rule is the full single-head rule text that derived this fact;
	// Label its source label (when the rule was labeled).
	Rule      string       `json:"rule,omitempty"`
	Label     string       `json:"label,omitempty"`
	Base      bool         `json:"base,omitempty"`
	Origin    *ProofOrigin `json:"origin,omitempty"`
	Cycle     bool         `json:"cycle,omitempty"`
	Truncated bool         `json:"truncated,omitempty"`
	Premises  []*ProofNode `json:"premises,omitempty"`
	// Activation proves the active(R) credential that activated this
	// step's rule, present when the rule was says-activated rather than
	// loaded statically — the subtree descends through the says chain to
	// the credential, including its remote origin when it crossed nodes.
	Activation *ProofNode `json:"activation,omitempty"`
}

// proofNode converts a provenance proof tree to its wire form.
func proofNode(p *provenance.Proof) *ProofNode {
	if p == nil {
		return nil
	}
	n := &ProofNode{
		Pred:      p.Pred,
		Tuple:     displayTuple(p.Tuple),
		Base:      p.Base,
		Cycle:     p.Cycle,
		Truncated: p.Truncated,
	}
	if p.Rule != nil {
		n.Rule = p.Rule.String()
		n.Label = p.Rule.Label
	}
	if p.Remote != nil {
		n.Origin = &ProofOrigin{Node: p.Remote.Node, Sender: p.Remote.Sender, Trace: p.Remote.Trace}
	}
	for _, prem := range p.Premises {
		n.Premises = append(n.Premises, proofNode(prem))
	}
	n.Activation = proofNode(p.Activation)
	return n
}

// displayTuple renders a tuple's arguments as "(v1,v2,...)" in canonical
// surface syntax, for a person to read beside the predicate name.
func displayTuple(t datalog.Tuple) string {
	args := make([]string, t.Len())
	for i, v := range t.Values() {
		args[i] = datalog.CanonicalValue(v)
	}
	return "(" + strings.Join(args, ",") + ")"
}

// encodeProofs renders the explain response frame: "json <n>\n<body>"
// where body is the JSON array of proof nodes. Callers pass the proofs
// already sorted (workspace.ExplainQuery sorts by predicate then tuple
// key), so the frame is deterministic.
func encodeProofs(proofs []*provenance.Proof) ([]byte, error) {
	nodes := make([]*ProofNode, len(proofs))
	for i, p := range proofs {
		nodes[i] = proofNode(p)
	}
	blob, err := json.Marshal(nodes)
	if err != nil {
		return nil, err
	}
	return append([]byte(fmt.Sprintf("json %d\n", len(blob))), blob...), nil
}

// Render returns the proof as an indented plain-text tree, the client
// twin of provenance.Proof.Render, which the lbtrust CLI prints.
func (n *ProofNode) Render() string {
	var b strings.Builder
	n.render(&b, 0)
	return b.String()
}

func (n *ProofNode) render(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Pred)
	b.WriteString(n.Tuple)
	switch {
	case n.Origin != nil:
		fmt.Fprintf(b, "  [from node %s, said by %s", n.Origin.Node, n.Origin.Sender)
		if n.Origin.Trace != "" {
			fmt.Fprintf(b, ", trace %s", n.Origin.Trace)
		}
		b.WriteString("]\n")
	case n.Cycle:
		b.WriteString("  (seen above)\n")
	case n.Rule != "":
		label := n.Label
		if label == "" {
			label = n.Rule
		}
		fmt.Fprintf(b, "  [rule %s]\n", label)
		for _, prem := range n.Premises {
			prem.render(b, depth+1)
		}
		if n.Activation != nil {
			b.WriteString(strings.Repeat("  ", depth+1))
			b.WriteString("activated by:\n")
			n.Activation.render(b, depth+2)
		}
	case n.Truncated:
		b.WriteString("  [base fact or dropped by provenance cap]\n")
	default:
		b.WriteString("  [base fact]\n")
	}
}

// Explain evaluates an atom in the session's principal context and
// returns the proof tree of every match, one node per matching tuple,
// sorted by predicate then canonical tuple key. The server must run with
// provenance capture enabled.
func (c *Client) Explain(src string) ([]*ProofNode, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	status, payload, err := c.roundTrip("explain " + src)
	if err != nil {
		return nil, err
	}
	if status != "json" {
		return nil, fmt.Errorf("server: expected json, got %q", status)
	}
	i := strings.IndexByte(payload, '\n')
	if i < 0 {
		return nil, fmt.Errorf("server: malformed explain response")
	}
	var n int
	if _, err := fmt.Sscanf(payload[:i], "%d", &n); err != nil {
		return nil, fmt.Errorf("server: malformed explain length %q", payload[:i])
	}
	body := payload[i+1:]
	if len(body) != n {
		return nil, fmt.Errorf("server: explain body is %d bytes, header declared %d", len(body), n)
	}
	var nodes []*ProofNode
	if err := json.Unmarshal([]byte(body), &nodes); err != nil {
		return nil, fmt.Errorf("server: decoding explain response: %w", err)
	}
	return nodes, nil
}
