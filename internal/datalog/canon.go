package datalog

import (
	"fmt"
	"strings"
)

// canonRule renders a clause into its canonical form: variables are renamed
// V0, V1, ... in order of first occurrence, arguments are fully
// parenthesized, and there is no insignificant whitespace. The canonical
// form is the identity of a Code value and the byte string that signature
// built-ins (rsasign, hmacsign) operate on, so it must be deterministic
// across processes and nodes.
func canonRule(r *Rule) string {
	c := &canonizer{names: map[string]string{}}
	return c.rule(r)
}

type canonizer struct {
	names map[string]string
	next  int
}

func (c *canonizer) rule(r *Rule) string {
	var b strings.Builder
	for i := range r.Heads {
		if i > 0 {
			b.WriteString(",")
		}
		c.atom(&b, &r.Heads[i])
	}
	if len(r.Body) > 0 || r.Agg != nil {
		b.WriteString("<-")
		if r.Agg != nil {
			fmt.Fprintf(&b, "agg<<%s=%s(%s)>>", c.variable(r.Agg.Result), r.Agg.Fn, c.variable(r.Agg.Over))
		}
		for i := range r.Body {
			if i > 0 || r.Agg != nil {
				b.WriteString(",")
			}
			if r.Body[i].Negated {
				b.WriteString("!")
			}
			c.atom(&b, &r.Body[i].Atom)
		}
	}
	b.WriteString(".")
	return b.String()
}

// comparisonOps are rendered infix so that canonical text re-parses.
var comparisonOps = map[string]bool{"=": true, "!=": true, "<": true, "<=": true, ">": true, ">=": true}

func (c *canonizer) atom(b *strings.Builder, a *Atom) {
	if comparisonOps[a.Pred] && len(a.Args) == 2 && a.Part == nil {
		c.term(b, a.Args[0])
		b.WriteString(a.Pred)
		c.term(b, a.Args[1])
		return
	}
	switch {
	case a.AtomVar != "":
		b.WriteString(c.variable(a.AtomVar))
		if a.Star {
			b.WriteString("*")
		}
		return
	case a.PredVar != "":
		b.WriteString(c.variable(a.PredVar))
	default:
		b.WriteString(a.Pred)
	}
	if a.Part != nil {
		b.WriteString("[")
		c.term(b, a.Part)
		b.WriteString("]")
	}
	b.WriteString("(")
	for i, t := range a.Args {
		if i > 0 {
			b.WriteString(",")
		}
		c.term(b, t)
	}
	b.WriteString(")")
}

func (c *canonizer) term(b *strings.Builder, t Term) {
	switch t := t.(type) {
	case Var:
		b.WriteString(c.variable(string(t)))
	case StarVar:
		b.WriteString(c.variable(string(t)))
		b.WriteString("*")
	case Const:
		b.WriteString(canonValue(t.Val))
	case Quote:
		// Quote patterns (and head templates) share the enclosing rule's
		// variable scope: a pattern variable binds in the outer rule, so
		// renaming it in a separate scope would let it collide with an
		// outer variable on re-parse and change the rule's meaning (for
		// example R = [| reach(me,D). |] would canonicalize R and D to
		// the same name). Sharing the scope also keeps semantically
		// different rules from collapsing onto one canonical identity —
		// the byte string signatures are computed over. Only ground Code
		// values (Const) are independent clauses with their own scope,
		// handled by canonValue.
		b.WriteString("[|")
		b.WriteString(c.rule(t.Pat))
		b.WriteString("|]")
	case Arith:
		b.WriteString("(")
		c.term(b, t.L)
		b.WriteByte(t.Op)
		c.term(b, t.R)
		b.WriteString(")")
	case TermPart:
		b.WriteString(t.Pred)
		b.WriteString("[")
		c.term(b, t.Arg)
		b.WriteString("]")
	default:
		panic(fmt.Sprintf("datalog: unknown term type %T", t))
	}
}

// CanonicalValue renders a value in re-parseable canonical surface syntax.
// It is the per-value form of the canonical encoding that Code identity and
// the signature built-ins use, so the same value renders to the same bytes
// on every node. Tuples on the wire use the tagged encoding of serial.go,
// not this rendering; an entity crosses as the reserved symbol it renders
// to here.
func CanonicalValue(v Value) string { return canonValue(v) }

// canonValue renders a constant in re-parseable surface syntax, so that
// canonical rule text can cross the wire and be parsed back on the
// receiving node. Entities are node-local and render as reserved symbols;
// they round-trip by identity of name, not of entity.
func canonValue(v Value) string {
	switch v := v.(type) {
	case Sym:
		return string(v)
	case String:
		return v.String() // quoted
	case Int:
		return v.String()
	case Code:
		return "[|" + v.key + "|]"
	case Entity:
		return fmt.Sprintf("lb:entity:%s:%d", v.Sort, v.ID)
	case PartRef:
		return v.Pred + "[" + canonValue(v.Arg) + "]"
	}
	panic(fmt.Sprintf("datalog: cannot canonicalize value %T", v))
}

func (c *canonizer) variable(name string) string {
	if strings.HasPrefix(name, "_") {
		// Blank variables are all distinct.
		n := fmt.Sprintf("V%d", c.next)
		c.next++
		return n
	}
	if n, ok := c.names[name]; ok {
		return n
	}
	n := fmt.Sprintf("V%d", c.next)
	c.next++
	c.names[name] = n
	return n
}
