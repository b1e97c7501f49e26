package store

import (
	"encoding/base64"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"lbtrust/internal/datalog"
	"lbtrust/internal/dist"
	"lbtrust/internal/workspace"
)

// Record is one logical entry of the write-ahead log and of snapshot
// files: a kind, a list of header fields, and zero or more body lines.
// Fields are strconv-quoted on the header line; body lines are the
// newline-free encodings of this file's codecs (flush op lines over
// tagged tuple lines and canonical rule text, ship lines, base64 key
// material), so a record serializes as plain text inside its CRC frame:
//
//	flush "alice" "0"
//	+ "says" y"alice"\ty"bob"\tc"…"
//	…
//
// There is one vocabulary. A snapshot file is a bracketed stream of the
// same records the log carries — a compacted log: snap-begin, the node,
// prin, scheme, map, key and ship records that recreate the system
// around the workspaces, each workspace's state as flush records
// (workspace.CaptureJournal), snap-end. Recovery hands the snapshot's
// records and then the log's to one interpreter.
type Record struct {
	Kind   string
	Fields []string
	Lines  []string
}

// Record kinds.
const (
	KindFlush  = "flush"  // fields: principal, rebuilt; lines: flush ops
	KindNode   = "node"   // fields: node name
	KindPrin   = "prin"   // fields: principal, node
	KindScheme = "scheme" // fields: principal, scheme
	KindKey    = "key"    // fields: kind (rsa-priv|rsa-pub|shared), name/pair; lines: base64 material
	KindMap    = "map"    // fields: source pred, destination pred
	KindShip   = "ship"   // lines: shipped-set records
	KindReset  = "reset"  // fields: target principal

	// The snapshot bracket. snap-end is the commit marker: a snapshot file
	// without it (a crash mid-write, even though snapshots are written to
	// a temp file and renamed) is ignored by recovery.
	KindSnapBegin = "snap-begin" // fields: format version, shipped-set generation
	KindSnapEnd   = "snap-end"
)

// snapshotVersion versions the snapshot file format. Version 1 wrote
// workspace state as ws-* records with their own reader; version 2 writes
// it as flush records. There is no dual reader: DecodeSnapBegin refuses
// any other version.
const snapshotVersion = 2

// Encode renders the record as a log/snapshot payload.
func (r *Record) Encode() []byte {
	var b strings.Builder
	b.WriteString(r.Kind)
	for _, f := range r.Fields {
		b.WriteByte(' ')
		b.WriteString(strconv.Quote(f))
	}
	for _, l := range r.Lines {
		b.WriteByte('\n')
		b.WriteString(l)
	}
	return []byte(b.String())
}

func parseRecord(payload []byte) (*Record, error) {
	text := string(payload)
	head, rest, hasBody := strings.Cut(text, "\n")
	kind, fieldsText, _ := strings.Cut(head, " ")
	if kind == "" {
		return nil, fmt.Errorf("store: empty record kind")
	}
	r := &Record{Kind: kind}
	for fieldsText != "" {
		q, err := strconv.QuotedPrefix(fieldsText)
		if err != nil {
			return nil, fmt.Errorf("store: bad record header %q: %w", head, err)
		}
		u, err := strconv.Unquote(q)
		if err != nil {
			return nil, fmt.Errorf("store: bad record header %q: %w", head, err)
		}
		r.Fields = append(r.Fields, u)
		fieldsText = strings.TrimPrefix(fieldsText[len(q):], " ")
	}
	if hasBody {
		r.Lines = strings.Split(rest, "\n")
	}
	return r, nil
}

// Field returns header field i or an error naming the record kind.
func (r *Record) Field(i int) (string, error) {
	if i >= len(r.Fields) {
		return "", fmt.Errorf("store: %s record missing field %d", r.Kind, i)
	}
	return r.Fields[i], nil
}

// snapBegin opens a snapshot file. gen is the distribution runtime's
// shipped-set generation at capture time, which no ship record carries.
func snapBegin(gen uint64) *Record {
	return &Record{Kind: KindSnapBegin, Fields: []string{
		strconv.Itoa(snapshotVersion), strconv.FormatUint(gen, 10),
	}}
}

// DecodeSnapBegin checks a snap-begin record's format version and returns
// the shipped-set generation it carries.
func DecodeSnapBegin(r *Record) (gen uint64, err error) {
	v, err := r.Field(0)
	if err != nil {
		return 0, err
	}
	if v != strconv.Itoa(snapshotVersion) {
		return 0, fmt.Errorf("store: snapshot format version %s is not supported (this build reads and writes version %d only)", v, snapshotVersion)
	}
	genText, err := r.Field(1)
	if err != nil {
		return 0, err
	}
	gen, err = strconv.ParseUint(genText, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("store: bad snapshot generation %q: %w", genText, err)
	}
	return gen, nil
}

// ---- flush journal codec ----------------------------------------------------

// Flush op line prefixes.
const (
	opAssert  = "+"
	opRetract = "-"
	opDerived = "d"
	opRuleAdd = "r+"
	opRuleDel = "r-"
	opConsAdd = "c+"
	opConsDel = "c-"
	// Written only for captured journals (workspace.CaptureJournal), so an
	// ordinary flush record's bytes are what they always were.
	opAuxSeq = "aux"
	opDecl   = "decl"
)

// EncodeFlushPayload renders one workspace flush journal as a WAL record
// payload, appending into a single buffer: this runs on every committed
// transaction, so it avoids the per-line string garbage the generic
// Record encoder would produce.
func EncodeFlushPayload(principal string, j *workspace.FlushJournal) []byte {
	return AppendFlushPayload(nil, principal, j)
}

// AppendFlushPayload appends the flush record payload to dst, so callers
// can reuse (pool) the buffer.
func AppendFlushPayload(dst []byte, principal string, j *workspace.FlushJournal) []byte {
	buf := dst
	buf = append(buf, KindFlush...)
	buf = append(buf, ' ')
	buf = strconv.AppendQuote(buf, principal)
	buf = append(buf, ' ', '"')
	if j.Rebuilt {
		buf = append(buf, '1')
	} else {
		buf = append(buf, '0')
	}
	buf = append(buf, '"')
	addFact := func(op string, f workspace.FactChange) {
		buf = append(buf, '\n')
		buf = append(buf, op...)
		buf = append(buf, ' ')
		buf = strconv.AppendQuote(buf, f.Pred)
		buf = append(buf, ' ')
		buf = datalog.AppendTupleLine(buf, f.Tuple)
	}
	addTuples := func(op string, m map[string][]datalog.Tuple) {
		for _, pred := range sortedKeys(m) {
			for _, t := range m[pred] {
				addFact(op, workspace.FactChange{Pred: pred, Tuple: t})
			}
		}
	}
	if j.AuxSeq != 0 {
		buf = append(buf, '\n')
		buf = append(buf, opAuxSeq...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(j.AuxSeq), 10)
	}
	for _, d := range j.Decls {
		buf = append(buf, '\n')
		buf = append(buf, opDecl...)
		buf = append(buf, ' ')
		buf = strconv.AppendQuote(buf, d.Name)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(d.Arity), 10)
		if d.Partitioned {
			buf = append(buf, " 1"...)
		} else {
			buf = append(buf, " 0"...)
		}
	}
	for _, op := range j.Schema {
		buf = append(buf, '\n')
		switch op.Kind {
		case workspace.SchemaConstraintRemove:
			buf = append(buf, opConsDel...)
			buf = append(buf, ' ')
			buf = strconv.AppendQuote(buf, op.Label)
		case workspace.SchemaRuleRemove:
			buf = append(buf, opRuleDel...)
			buf = append(buf, ' ')
			buf = strconv.AppendQuote(buf, string(op.Code.Canonical()))
		case workspace.SchemaConstraintAdd:
			buf = append(buf, opConsAdd...)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(op.Constraint.AuxID), 10)
			buf = append(buf, ' ')
			buf = strconv.AppendQuote(buf, op.Constraint.Label)
			buf = append(buf, ' ')
			buf = strconv.AppendQuote(buf, op.Constraint.Source)
		case workspace.SchemaRuleAdd:
			buf = append(buf, opRuleAdd...)
			buf = append(buf, ' ')
			buf = strconv.AppendQuote(buf, string(op.Rule.Owner))
			if op.Rule.Derived {
				buf = append(buf, " 1 "...)
			} else {
				buf = append(buf, " 0 "...)
			}
			buf = strconv.AppendQuote(buf, string(op.Rule.Code.Canonical()))
		}
	}
	for _, f := range j.Facts {
		if f.Retract {
			addFact(opRetract, f)
		} else {
			addFact(opAssert, f)
		}
	}
	if !j.Rebuilt {
		addTuples(opDerived, j.Changed)
	}
	return buf
}

// DecodeFlush parses a flush record back into its journal.
func DecodeFlush(r *Record) (string, *workspace.FlushJournal, error) {
	return DecodeFlushWith(r, nil)
}

// DecodeFlushWith parses a flush record using a shared decoder, whose
// code memo recovery reuses across every record of a replay.
func DecodeFlushWith(r *Record, dec *datalog.Decoder) (principal string, j *workspace.FlushJournal, err error) {
	if r.Kind != KindFlush {
		return "", nil, fmt.Errorf("store: record kind %s is not a flush", r.Kind)
	}
	principal, err = r.Field(0)
	if err != nil {
		return "", nil, err
	}
	rebuilt, err := r.Field(1)
	if err != nil {
		return "", nil, err
	}
	j = &workspace.FlushJournal{Rebuilt: rebuilt == "1"}
	parseFact := func(rest string) (workspace.FactChange, error) {
		pred, tupleText, err := quotedField(rest)
		if err != nil {
			return workspace.FactChange{}, err
		}
		t, err := dec.DecodeTupleLine(strings.TrimPrefix(tupleText, " "))
		if err != nil {
			return workspace.FactChange{}, err
		}
		return workspace.FactChange{Pred: pred, Tuple: t}, nil
	}
	addTuple := func(m *map[string][]datalog.Tuple, rest string) error {
		f, err := parseFact(rest)
		if err != nil {
			return err
		}
		if *m == nil {
			*m = map[string][]datalog.Tuple{}
		}
		(*m)[f.Pred] = append((*m)[f.Pred], f.Tuple)
		return nil
	}
	for _, line := range r.Lines {
		if line == "" {
			continue
		}
		op, rest, _ := strings.Cut(line, " ")
		switch op {
		case opAssert:
			var f workspace.FactChange
			if f, err = parseFact(rest); err == nil {
				j.Facts = append(j.Facts, f)
			}
		case opRetract:
			var f workspace.FactChange
			if f, err = parseFact(rest); err == nil {
				f.Retract = true
				j.Facts = append(j.Facts, f)
			}
		case opDerived:
			err = addTuple(&j.Changed, rest)
		case opRuleAdd:
			var owner, codeText string
			var derived string
			owner, rest2, ferr := quotedField(rest)
			if ferr != nil {
				err = ferr
				break
			}
			rest2 = strings.TrimPrefix(rest2, " ")
			derived, rest2, _ = strings.Cut(rest2, " ")
			codeText, _, ferr = quotedField(rest2)
			if ferr != nil {
				err = ferr
				break
			}
			code, cerr := dec.Code(codeText)
			if cerr != nil {
				err = cerr
				break
			}
			j.Schema = append(j.Schema, workspace.SchemaChange{Kind: workspace.SchemaRuleAdd, Rule: workspace.RuleChange{
				Code: code, Owner: datalog.Sym(owner), Derived: derived == "1",
			}})
		case opRuleDel:
			codeText, _, ferr := quotedField(rest)
			if ferr != nil {
				err = ferr
				break
			}
			code, cerr := dec.Code(codeText)
			if cerr != nil {
				err = cerr
				break
			}
			j.Schema = append(j.Schema, workspace.SchemaChange{Kind: workspace.SchemaRuleRemove, Code: code})
		case opConsAdd:
			auxText, rest2, _ := strings.Cut(rest, " ")
			auxID, aerr := strconv.Atoi(auxText)
			if aerr != nil {
				err = fmt.Errorf("store: bad aux id %q: %w", auxText, aerr)
				break
			}
			label, rest2, ferr := quotedField(rest2)
			if ferr != nil {
				err = ferr
				break
			}
			source, _, ferr := quotedField(strings.TrimPrefix(rest2, " "))
			if ferr != nil {
				err = ferr
				break
			}
			j.Schema = append(j.Schema, workspace.SchemaChange{Kind: workspace.SchemaConstraintAdd, Constraint: workspace.ConstraintChange{
				AuxID: auxID, Label: label, Source: source,
			}})
		case opConsDel:
			label, _, ferr := quotedField(rest)
			if ferr != nil {
				err = ferr
				break
			}
			j.Schema = append(j.Schema, workspace.SchemaChange{Kind: workspace.SchemaConstraintRemove, Label: label})
		case opAuxSeq:
			j.AuxSeq, err = strconv.Atoi(rest)
			if err == nil && j.AuxSeq < 0 {
				err = fmt.Errorf("store: negative aux sequence %d", j.AuxSeq)
			}
		case opDecl:
			var d workspace.Decl
			var rest2 string
			if d.Name, rest2, err = quotedField(rest); err != nil {
				break
			}
			arityText, part, _ := strings.Cut(strings.TrimPrefix(rest2, " "), " ")
			if d.Arity, err = strconv.Atoi(arityText); err != nil {
				break
			}
			if d.Arity < 0 || (part != "0" && part != "1") {
				err = fmt.Errorf("store: bad declaration")
				break
			}
			d.Partitioned = part == "1"
			j.Decls = append(j.Decls, d)
		default:
			err = fmt.Errorf("store: unknown flush op %q", op)
		}
		if err != nil {
			return "", nil, fmt.Errorf("store: flush line %q: %w", line, err)
		}
	}
	return principal, j, nil
}

func quotedField(s string) (value, rest string, err error) {
	q, err := strconv.QuotedPrefix(s)
	if err != nil {
		return "", "", fmt.Errorf("store: bad quoted field in %q: %w", s, err)
	}
	u, err := strconv.Unquote(q)
	if err != nil {
		return "", "", err
	}
	return u, s[len(q):], nil
}

func sortedKeys(m map[string][]datalog.Tuple) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// ---- distribution / system codecs -------------------------------------------

// AppendShipsPayload appends to dst the payload of one ship record
// carrying the given shipped-set records (a pump round's worth, or a
// snapshot's whole set).
func AppendShipsPayload(dst []byte, ships []dist.ShipState) []byte {
	buf := append(dst, KindShip...)
	for _, s := range ships {
		buf = append(buf, '\n')
		buf = appendShipLine(buf, s)
	}
	return buf
}

func appendShipLine(buf []byte, s dist.ShipState) []byte {
	buf = strconv.AppendQuote(buf, s.Key)
	buf = append(buf, ' ')
	buf = strconv.AppendQuote(buf, s.Sender)
	buf = append(buf, ' ')
	buf = strconv.AppendQuote(buf, s.Target)
	buf = append(buf, ' ')
	return strconv.AppendUint(buf, s.Gen, 10)
}

// DecodeShips parses a ship record.
func DecodeShips(r *Record) ([]dist.ShipState, error) {
	var out []dist.ShipState
	for _, line := range r.Lines {
		if line == "" {
			continue
		}
		key, rest, err := quotedField(line)
		if err != nil {
			return nil, err
		}
		sender, rest, err := quotedField(strings.TrimPrefix(rest, " "))
		if err != nil {
			return nil, err
		}
		target, rest, err := quotedField(strings.TrimPrefix(rest, " "))
		if err != nil {
			return nil, err
		}
		gen, err := strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("store: bad ship generation in %q: %w", line, err)
		}
		out = append(out, dist.ShipState{Key: key, Sender: sender, Target: target, Gen: gen})
	}
	return out, nil
}

// KeyRecord carries cryptographic key material: Kind is rsa-priv, rsa-pub,
// or shared; Name is the principal (rsa) or the joined pair (shared).
type KeyRecord struct {
	Kind string
	Name string
	Data []byte
}

// EncodeKey renders key material as a record.
func EncodeKey(k KeyRecord) *Record {
	return &Record{
		Kind:   KindKey,
		Fields: []string{k.Kind, k.Name},
		Lines:  []string{base64.StdEncoding.EncodeToString(k.Data)},
	}
}

// DecodeKey parses a key record.
func DecodeKey(r *Record) (KeyRecord, error) {
	kind, err := r.Field(0)
	if err != nil {
		return KeyRecord{}, err
	}
	name, err := r.Field(1)
	if err != nil {
		return KeyRecord{}, err
	}
	if len(r.Lines) != 1 {
		return KeyRecord{}, fmt.Errorf("store: key record for %s has %d body lines", name, len(r.Lines))
	}
	data, err := base64.StdEncoding.DecodeString(r.Lines[0])
	if err != nil {
		return KeyRecord{}, fmt.Errorf("store: key record for %s: %w", name, err)
	}
	return KeyRecord{Kind: kind, Name: name, Data: data}, nil
}
