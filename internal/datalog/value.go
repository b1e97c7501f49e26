// Package datalog implements the Datalog dialect underlying LBTrust: a
// LogicBlox-flavored language with rules, schema constraints, currying
// (partitioned predicates), aggregation, stratified negation, quoted code
// terms, and a bottom-up semi-naive fixpoint engine with incremental
// maintenance and a magic-sets rewrite for goal-directed evaluation.
//
// The package corresponds to the execution substrate described in Sections
// 2.1 and 3.1-3.2 of "Declarative Reconfigurable Trust Management" (CIDR
// 2009). Higher layers (internal/meta, internal/workspace, internal/core)
// build the meta-programming and security constructs on top of it.
package datalog

import (
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the kinds of runtime values in the LBTrust universe.
type Kind uint8

// Value kinds. Code values make rules first-class data, which is what the
// says(U1,U2,R) construct of the paper transports between principals.
const (
	KindString Kind = iota // quoted string literal
	KindInt                // 64-bit integer
	KindSym                // interned symbol (principals, modes, predicate names)
	KindEntity             // meta-model entity (atom, term ids)
	KindCode               // quoted rule or fact, canonicalized
	KindPart               // partition reference p[x] (used by predNode placement)
)

func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindSym:
		return "sym"
	case KindEntity:
		return "entity"
	case KindCode:
		return "code"
	case KindPart:
		return "part"
	}
	return "unknown"
}

// Value is a runtime constant. Implementations are immutable; Key returns a
// canonical representation that is unique across all kinds and is used for
// equality and signing, while Hash returns a 64-bit digest of the same
// canonical form that relation storage uses so it never has to retain the
// key strings themselves.
type Value interface {
	Kind() Kind
	// Key is the canonical identity of the value. Two values are equal
	// exactly when their keys are equal.
	Key() string
	// Hash is a 64-bit hash of the canonical identity: equal values have
	// equal hashes. It must be allocation-free; storage layers call it per
	// row instead of materializing Key.
	Hash() uint64
	// String renders the value in surface syntax.
	String() string
}

// FNV-1a parameters; value and tuple hashing folds canonical bytes through
// them so hashes agree with Key() equality without building the string.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= fnvPrime
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func fnvUint64(h uint64, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// String is a string literal value.
type String string

// Kind reports KindString.
func (s String) Kind() Kind { return KindString }

// Key returns the canonical identity of the string.
func (s String) Key() string { return "s:" + string(s) }

// Hash returns the 64-bit digest of the canonical identity.
func (s String) Hash() uint64 { return fnvString(fnvByte(fnvOffset, 's'), string(s)) }

func (s String) String() string { return strconv.Quote(string(s)) }

// Int is a 64-bit integer value.
type Int int64

// Kind reports KindInt.
func (i Int) Kind() Kind { return KindInt }

// Key returns the canonical identity of the integer.
func (i Int) Key() string { return "i:" + strconv.FormatInt(int64(i), 10) }

// Hash returns the 64-bit digest of the canonical identity.
func (i Int) Hash() uint64 { return fnvUint64(fnvByte(fnvOffset, 'i'), uint64(i)) }

func (i Int) String() string { return strconv.FormatInt(int64(i), 10) }

// Sym is an interned symbol: principal names (alice, bob), modes (read,
// write), predicate names used as data (the P in delegates(U1,U2,P)), node
// names, and the distinguished local-principal symbol "me".
type Sym string

// Kind reports KindSym.
func (s Sym) Kind() Kind { return KindSym }

// Key returns the canonical identity of the symbol.
func (s Sym) Key() string { return "y:" + string(s) }

// Hash returns the 64-bit digest of the canonical identity.
func (s Sym) Hash() uint64 { return fnvString(fnvByte(fnvOffset, 'y'), string(s)) }

func (s Sym) String() string { return string(s) }

// Me is the distinguished symbol the paper uses for the local principal.
// Rules are specialized per context by substituting the context's principal
// for Me at activation time.
const Me = Sym("me")

// Entity identifies an anonymous meta-model entity, such as the atoms and
// terms produced when a rule is reified into the Figure 1 meta-model.
type Entity struct {
	Sort string // "atom", "term", "msg", ...
	ID   int64
}

// Kind reports KindEntity.
func (e Entity) Kind() Kind { return KindEntity }

// Key returns the canonical identity of the entity.
func (e Entity) Key() string { return "e:" + e.Sort + ":" + strconv.FormatInt(e.ID, 10) }

// Hash returns the 64-bit digest of the canonical identity.
func (e Entity) Hash() uint64 {
	return fnvUint64(fnvString(fnvByte(fnvOffset, 'e'), e.Sort), uint64(e.ID))
}

func (e Entity) String() string { return "#" + e.Sort + strconv.FormatInt(e.ID, 10) }

// Code is a quoted rule or fact: the R in says(U1,U2,R). Identity is the
// canonical form of the clause, so structurally identical rules compare
// equal regardless of variable naming. The canonical bytes are also what
// the cryptographic built-ins sign and verify.
type Code struct {
	rule *Rule
	key  string
	hash uint64
}

// NewCode canonicalizes a clause into a Code value. The clause is not
// copied; callers must not mutate it afterwards.
func NewCode(r *Rule) Code {
	key := canonRule(r)
	return Code{rule: r, key: key, hash: fnvString(fnvByte(fnvOffset, 'c'), key)}
}

// Rule returns the underlying clause.
func (c Code) Rule() *Rule { return c.rule }

// Kind reports KindCode.
func (c Code) Kind() Kind { return KindCode }

// Key returns the canonical identity of the quoted clause.
func (c Code) Key() string { return "c:" + c.key }

// Hash returns the 64-bit digest of the canonical identity, memoized at
// construction.
func (c Code) Hash() uint64 {
	if c.hash == 0 && c.key == "" {
		return fnvByte(fnvOffset, 'c') // zero Code
	}
	return c.hash
}

// Canonical returns the canonical byte representation, the input to
// signature generation and verification.
func (c Code) Canonical() []byte { return []byte(c.key) }

func (c Code) String() string { return "[| " + c.key + " |]" }

// PartRef identifies one partition of a curried predicate, e.g. the
// export[alice] subset of export. It is the value form of the p[X] terms in
// predNode placement rules (Section 3.5 of the paper).
type PartRef struct {
	Pred string
	Arg  Value
}

// Kind reports KindPart.
func (p PartRef) Kind() Kind { return KindPart }

// Key returns the canonical identity of the partition reference.
func (p PartRef) Key() string { return "p:" + p.Pred + "[" + p.Arg.Key() + "]" }

// Hash returns the 64-bit digest of the canonical identity.
func (p PartRef) Hash() uint64 {
	h := fnvString(fnvByte(fnvOffset, 'p'), p.Pred)
	if p.Arg != nil {
		h = fnvUint64(h, p.Arg.Hash())
	}
	return h
}

func (p PartRef) String() string { return p.Pred + "[" + p.Arg.String() + "]" }

// Tuple is an immutable row of values. Identity is carried by a 64-bit
// hash of the canonical form, memoized at construction: relation storage,
// indexes and equality work entirely from the hash plus value comparison,
// so no per-row canonical key string is ever retained by storage. Key()
// still renders the canonical string for the layers that need it (ship
// dedup records, signing, violation dedup), computed on demand. Construct
// tuples with NewTuple or TupleOf; the zero Tuple is the empty tuple.
type Tuple struct {
	vals []Value
	hash uint64
}

// testTupleHash, when non-nil, replaces tuple hashing. It exists for
// tests that force hash collisions to exercise the relation's collision
// buckets; production code must leave it nil.
var testTupleHash func(vs []Value) uint64

// NewTuple builds a tuple from values, memoizing its canonical hash.
func NewTuple(vs ...Value) Tuple { return TupleOf(vs) }

// TupleOf builds a tuple taking ownership of the slice (callers must not
// mutate it afterwards), memoizing its canonical hash.
func TupleOf(vs []Value) Tuple {
	if len(vs) == 0 {
		return Tuple{}
	}
	if testTupleHash != nil {
		return Tuple{vals: vs, hash: testTupleHash(vs)}
	}
	h := fnvOffset
	for _, v := range vs {
		h = fnvUint64(h, v.Hash())
	}
	return Tuple{vals: vs, hash: h}
}

// Len reports the number of values in the tuple.
func (t Tuple) Len() int { return len(t.vals) }

// At returns the value at position i.
func (t Tuple) At(i int) Value { return t.vals[i] }

// Values returns the underlying value slice, borrowed: callers must not
// mutate it.
func (t Tuple) Values() []Value { return t.vals }

// Hash returns the memoized 64-bit digest of the tuple's canonical form.
// Equal tuples have equal hashes; relation storage keys rows by it.
func (t Tuple) Hash() uint64 { return t.hash }

// Key renders the canonical identity of the tuple: the value keys joined
// by NUL bytes. It is computed on demand — storage no longer retains it —
// for the layers that need a canonical string (shipped-tuple records,
// constraint-violation dedup, provenance keys).
func (t Tuple) Key() string {
	if len(t.vals) == 0 {
		return ""
	}
	n := 0
	for _, v := range t.vals {
		n += len(v.Key()) + 1
	}
	b := make([]byte, 0, n)
	for _, v := range t.vals {
		b = append(b, v.Key()...)
		b = append(b, 0)
	}
	return string(b)
}

func (t Tuple) String() string {
	s := "("
	for i, v := range t.vals {
		if i > 0 {
			s += ", "
		}
		s += v.String()
	}
	return s + ")"
}

// Equal reports whether two tuples have identical values: the memoized
// hashes reject fast, then values compare one by one (so forced hash
// collisions still resolve correctly).
func (t Tuple) Equal(o Tuple) bool {
	if t.hash != o.hash || len(t.vals) != len(o.vals) {
		return false
	}
	for i := range t.vals {
		if !ValueEqual(t.vals[i], o.vals[i]) {
			return false
		}
	}
	return true
}

// ValueEqual reports whether two values are equal. The built-in kinds
// compare without materializing keys; unknown Value implementations fall
// back to key comparison.
func ValueEqual(a, b Value) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	switch x := a.(type) {
	case String:
		y, ok := b.(String)
		return ok && x == y
	case Int:
		y, ok := b.(Int)
		return ok && x == y
	case Sym:
		y, ok := b.(Sym)
		return ok && x == y
	case Entity:
		y, ok := b.(Entity)
		return ok && x == y
	case Code:
		y, ok := b.(Code)
		return ok && x.key == y.key
	case PartRef:
		y, ok := b.(PartRef)
		return ok && x.Pred == y.Pred && ValueEqual(x.Arg, y.Arg)
	}
	return a.Key() == b.Key()
}

// CompareValues orders two values. Values of different kinds order by kind;
// ints order numerically; everything else orders by key. It is used by
// aggregation (min/max) and for deterministic output.
func CompareValues(a, b Value) int {
	if a.Kind() != b.Kind() {
		return int(a.Kind()) - int(b.Kind())
	}
	if a.Kind() == KindInt {
		ai, bi := a.(Int), b.(Int)
		switch {
		case ai < bi:
			return -1
		case ai > bi:
			return 1
		}
		return 0
	}
	// Same-kind fast paths compare without building key strings; the
	// resulting order is identical to key order (the prefixes agree).
	switch x := a.(type) {
	case String:
		if y, ok := b.(String); ok {
			return strings.Compare(string(x), string(y))
		}
	case Sym:
		if y, ok := b.(Sym); ok {
			return strings.Compare(string(x), string(y))
		}
	case Code:
		if y, ok := b.(Code); ok {
			return strings.Compare(x.key, y.key)
		}
	}
	ak, bk := a.Key(), b.Key()
	switch {
	case ak < bk:
		return -1
	case ak > bk:
		return 1
	}
	return 0
}

// CompareTuples orders two tuples column-wise by CompareValues; a shared
// prefix breaks ties by length. It is the deterministic order used by
// Relation.Sorted and the serving layer's wire responses.
func CompareTuples(a, b Tuple) int {
	for k := 0; k < a.Len() && k < b.Len(); k++ {
		if c := CompareValues(a.At(k), b.At(k)); c != 0 {
			return c
		}
	}
	return a.Len() - b.Len()
}

// SortTuples sorts tuples into the deterministic CompareTuples order.
func SortTuples(ts []Tuple) {
	sort.Slice(ts, func(i, j int) bool { return CompareTuples(ts[i], ts[j]) < 0 })
}
