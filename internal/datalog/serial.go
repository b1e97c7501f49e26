package datalog

import (
	"fmt"
	"strconv"
	"strings"
)

// This file is the one serialization of a tuple that leaves the process:
// a tagged, line-safe value encoding that round-trips every value kind
// exactly, and a canonical constraint rendering that re-parses. The
// write-ahead log and snapshot files of internal/store use it, and so do
// the inter-node envelopes of internal/dist and the serving layer's rows
// frames. The canonical surface syntax of canon.go is byte-stable but
// lossy for entities (lb:entity:… re-parses as a symbol); durability needs
// the restored database to compare byte-identically to the one that was
// logged, which is why this encoding tags entities. On the wire that
// exactness is deliberately given up for entities alone: their IDs are
// node-local, so internal/dist substitutes the reserved symbol before
// encoding (see dist/codec.go).
//
// A value encodes as a one-character kind tag followed by its payload;
// strings are strconv-quoted, so encoded values never contain raw tabs or
// newlines and tuples can be framed one per line with tab-separated
// columns:
//
//	y"alice"          symbol
//	s"hi\nthere"      string
//	i-42              integer
//	e"atom"17         entity (sort, id)
//	c"says(V0)."      code (canonical clause text)
//	p"export"y"bob"   partition reference (pred, then encoded argument)

// EncodeValue renders a value in the tagged round-trip encoding.
func EncodeValue(v Value) string { return string(AppendValue(nil, v)) }

// AppendValue appends the tagged encoding of v to dst. The append form
// is the hot path: the write-ahead log encodes every flushed tuple, so
// it must not allocate beyond the caller's buffer.
func AppendValue(dst []byte, v Value) []byte {
	switch v := v.(type) {
	case Sym:
		dst = append(dst, 'y')
		return strconv.AppendQuote(dst, string(v))
	case String:
		dst = append(dst, 's')
		return strconv.AppendQuote(dst, string(v))
	case Int:
		dst = append(dst, 'i')
		return strconv.AppendInt(dst, int64(v), 10)
	case Entity:
		dst = append(dst, 'e')
		dst = strconv.AppendQuote(dst, v.Sort)
		return strconv.AppendInt(dst, v.ID, 10)
	case Code:
		dst = append(dst, 'c')
		return strconv.AppendQuote(dst, v.key)
	case PartRef:
		dst = append(dst, 'p')
		dst = strconv.AppendQuote(dst, v.Pred)
		return AppendValue(dst, v.Arg)
	default:
		panic(fmt.Sprintf("datalog: cannot serialize value %T", v))
	}
}

// Decoder decodes tagged values with a memo for code payloads: a
// restored system contains each rule's canonical text many times (the
// says fact, the signed export, the active table, the meta model), and
// re-parsing it per occurrence would dominate recovery time. A nil
// *Decoder is valid and simply parses every occurrence. The code memo is
// unbounded, so a decoder fed by a peer must not outlive one frame.
type Decoder struct {
	codes map[string]Code
	// vals memoizes whole encoded columns: a restored database repeats
	// the same principals, handles, and codes across many tuples, so most
	// columns hit the memo and decode allocation-free. Bounded so
	// pathological all-distinct streams cannot grow it without limit.
	vals map[string]Value
}

// decoderValCap bounds the per-decoder value memo.
const decoderValCap = 1 << 17

// NewDecoder creates a decoder with an empty memo.
func NewDecoder() *Decoder {
	return &Decoder{codes: map[string]Code{}, vals: map[string]Value{}}
}

// DecodeValue parses one tagged value, requiring the whole input to be
// consumed.
func DecodeValue(s string) (Value, error) { return (*Decoder)(nil).DecodeValue(s) }

// DecodeValue parses one tagged value, requiring the whole input to be
// consumed, memoizing code payloads.
func (d *Decoder) DecodeValue(s string) (Value, error) {
	v, rest, err := d.decodeValuePrefix(s)
	if err != nil {
		return nil, err
	}
	if rest != "" {
		return nil, fmt.Errorf("datalog: trailing garbage %q after value", rest)
	}
	return v, nil
}

// Code parses (or recalls) a canonical clause text as a Code value.
func (d *Decoder) Code(text string) (Code, error) {
	if d != nil {
		if c, ok := d.codes[text]; ok {
			return c, nil
		}
	}
	r, err := ParseClause(text)
	if err != nil {
		return Code{}, fmt.Errorf("datalog: bad code payload %q: %w", text, err)
	}
	c := NewCode(r)
	if d != nil {
		d.codes[text] = c
	}
	return c, nil
}

// quotedPrefix splits a leading strconv-quoted string off s. Quoted text
// without escape sequences is sliced out directly instead of re-allocated
// through Unquote — the common case for symbols and predicate names.
func quotedPrefix(s string) (unquoted, rest string, err error) {
	q, err := strconv.QuotedPrefix(s)
	if err != nil {
		return "", "", fmt.Errorf("datalog: bad quoted payload in %q: %w", s, err)
	}
	if len(q) >= 2 && q[0] == '"' && !strings.ContainsAny(q[1:len(q)-1], `\"`) {
		return q[1 : len(q)-1], s[len(q):], nil
	}
	u, err := strconv.Unquote(q)
	if err != nil {
		return "", "", err
	}
	return u, s[len(q):], nil
}

// intPrefix splits a leading (possibly negative) decimal off s.
func intPrefix(s string) (n int64, rest string, err error) {
	i := 0
	if i < len(s) && (s[i] == '-' || s[i] == '+') {
		i++
	}
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	n, err = strconv.ParseInt(s[:i], 10, 64)
	if err != nil {
		return 0, "", fmt.Errorf("datalog: bad integer payload in %q: %w", s, err)
	}
	return n, s[i:], nil
}

func (d *Decoder) decodeValuePrefix(s string) (Value, string, error) {
	if s == "" {
		return nil, "", fmt.Errorf("datalog: empty value encoding")
	}
	tag, payload := s[0], s[1:]
	switch tag {
	case 'y':
		u, rest, err := quotedPrefix(payload)
		if err != nil {
			return nil, "", err
		}
		return Sym(u), rest, nil
	case 's':
		u, rest, err := quotedPrefix(payload)
		if err != nil {
			return nil, "", err
		}
		return String(u), rest, nil
	case 'i':
		n, rest, err := intPrefix(payload)
		if err != nil {
			return nil, "", err
		}
		return Int(n), rest, nil
	case 'e':
		sort, rest, err := quotedPrefix(payload)
		if err != nil {
			return nil, "", err
		}
		id, rest, err := intPrefix(rest)
		if err != nil {
			return nil, "", err
		}
		return Entity{Sort: sort, ID: id}, rest, nil
	case 'c':
		text, rest, err := quotedPrefix(payload)
		if err != nil {
			return nil, "", err
		}
		c, err := d.Code(text)
		if err != nil {
			return nil, "", err
		}
		return c, rest, nil
	case 'p':
		pred, rest, err := quotedPrefix(payload)
		if err != nil {
			return nil, "", err
		}
		arg, rest, err := d.decodeValuePrefix(rest)
		if err != nil {
			return nil, "", err
		}
		return PartRef{Pred: pred, Arg: arg}, rest, nil
	}
	return nil, "", fmt.Errorf("datalog: unknown value tag %q in %q", string(tag), s)
}

// EncodeTupleLine renders a tuple as one tab-separated line of tagged
// values. The empty tuple encodes as the empty line.
func EncodeTupleLine(t Tuple) string { return string(AppendTupleLine(nil, t)) }

// AppendTupleLine appends the tab-separated tagged tuple line to dst.
func AppendTupleLine(dst []byte, t Tuple) []byte {
	for i, v := range t.Values() {
		if i > 0 {
			dst = append(dst, '\t')
		}
		dst = AppendValue(dst, v)
	}
	return dst
}

// DecodeTupleLine parses one tab-separated tagged tuple line.
func DecodeTupleLine(line string) (Tuple, error) {
	return (*Decoder)(nil).DecodeTupleLine(line)
}

// DecodeTupleLine parses one tab-separated tagged tuple line, memoizing
// code payloads.
func (d *Decoder) DecodeTupleLine(line string) (Tuple, error) {
	if line == "" {
		return NewTuple(), nil
	}
	n := strings.Count(line, "\t") + 1
	vs := make([]Value, 0, n)
	for more := true; more; {
		// A trailing tab leaves an empty last column, which fails to decode
		// rather than being dropped.
		var col string
		col, line, more = strings.Cut(line, "\t")
		var v Value
		var err error
		if d != nil {
			var ok bool
			if v, ok = d.vals[col]; !ok {
				if v, err = d.DecodeValue(col); err == nil && len(d.vals) < decoderValCap {
					d.vals[col] = v
				}
			}
		} else {
			v, err = d.DecodeValue(col)
		}
		if err != nil {
			return Tuple{}, fmt.Errorf("datalog: tuple column %d: %w", len(vs), err)
		}
		vs = append(vs, v)
	}
	return TupleOf(vs), nil
}

// CanonicalConstraint renders a schema constraint in canonical
// re-parseable form: variables renamed V0, V1, … in order of first
// occurrence across the whole constraint (LHS and RHS share one scope), no
// insignificant whitespace, comparison atoms infix, and the empty RHS
// declaration form rendered as "->.". Labels are not part of the rendering
// — they are not always lexable identifiers — so callers persisting
// constraints must store the label alongside.
func CanonicalConstraint(c *Constraint) string {
	cz := &canonizer{names: map[string]string{}}
	var b strings.Builder
	for i := range c.LHS {
		if i > 0 {
			b.WriteString(",")
		}
		if c.LHS[i].Negated {
			b.WriteString("!")
		}
		cz.atom(&b, &c.LHS[i].Atom)
	}
	b.WriteString("->")
	for i, alt := range c.RHS {
		if i > 0 {
			b.WriteString(";")
		}
		for j := range alt {
			if j > 0 {
				b.WriteString(",")
			}
			if alt[j].Negated {
				b.WriteString("!")
			}
			cz.atom(&b, &alt[j].Atom)
		}
	}
	b.WriteString(".")
	return b.String()
}

// ParseConstraint parses the canonical rendering of one constraint (a
// single statement whose LHS did not normalize into alternatives),
// restoring the given label.
func ParseConstraint(src, label string) (*Constraint, error) {
	prog, err := ParseProgram(src)
	if err != nil {
		return nil, err
	}
	if len(prog.Rules) != 0 || len(prog.Constraints) != 1 {
		return nil, fmt.Errorf("datalog: %q is not a single constraint", src)
	}
	c := prog.Constraints[0]
	c.Label = label
	return c, nil
}
