package relation

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// tableJSON is the envelope of a Table's JSON form: the schema by
// reflection, the rows by the explicit codec below.
type tableJSON struct {
	Schema Schema
	Rows   json.RawMessage
}

// MarshalJSON writes the table as {"Schema":…,"Rows":[[…],…]}: each row
// an array of scalars typed by the schema's column types — an Int cell
// a JSON integer, a Float cell a JSON number in its shortest
// round-tripping form, a String cell a JSON string. It is the one
// encoding of a cell outside memory: journal records and snapshots
// carry tables through it. A nil Rows writes null.
func (t *Table) MarshalJSON() ([]byte, error) {
	sch, err := json.Marshal(&t.Schema)
	if err != nil {
		return nil, err
	}
	cols := t.Schema.Cols
	buf := make([]byte, 0, len(sch)+32+len(t.Rows)*(2+12*len(cols)))
	buf = append(buf, `{"Schema":`...)
	buf = append(buf, sch...)
	buf = append(buf, `,"Rows":`...)
	if t.Rows == nil {
		return append(buf, "null}"...), nil
	}
	buf = append(buf, '[')
	for i, r := range t.Rows {
		if len(r) != len(cols) {
			return nil, fmt.Errorf("relation: encode %s: row %d has %d cells, schema has %d columns",
				t.Schema.Name, i, len(r), len(cols))
		}
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		for j, v := range r {
			if j > 0 {
				buf = append(buf, ',')
			}
			switch cols[j].Type {
			case Int:
				buf = strconv.AppendInt(buf, v.Int(), 10)
			case Float:
				f := v.Float()
				if math.IsNaN(f) || math.IsInf(f, 0) {
					return nil, fmt.Errorf("relation: encode %s: row %d column %s: %v has no JSON form",
						t.Schema.Name, i, cols[j].Name, f)
				}
				buf = strconv.AppendFloat(buf, f, 'g', -1, 64)
			case String:
				buf = appendJSONString(buf, v.Str())
			default:
				return nil, fmt.Errorf("relation: encode %s: column %s has unknown type %v",
					t.Schema.Name, cols[j].Name, cols[j].Type)
			}
		}
		buf = append(buf, ']')
	}
	return append(buf, "]}"...), nil
}

// appendJSONString appends s as a JSON string. Plain printable ASCII —
// every string the generators and the partial-sum encoding produce — is
// quoted directly; anything else takes encoding/json's escaping.
func appendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(buf, q...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// UnmarshalJSON reads the form MarshalJSON writes, strictly: every row
// must be as wide as the schema, and every cell must be of its column's
// JSON kind — an Int cell an integer literal inside int64 (parsed from
// the token itself, so values beyond 2^53 survive), a Float cell a
// number, a String cell a string. Anything else is an error, never a
// zero: a table that decodes is the table that was encoded.
func (t *Table) UnmarshalJSON(data []byte) error {
	var env tableJSON
	if err := json.Unmarshal(data, &env); err != nil {
		return fmt.Errorf("relation: decode table: %w", err)
	}
	for _, c := range env.Schema.Cols {
		if c.Type != Int && c.Type != Float && c.Type != String {
			return fmt.Errorf("relation: decode %s: column %s has unknown type %v", env.Schema.Name, c.Name, c.Type)
		}
	}
	rows, err := decodeRows(env.Rows, env.Schema.Cols)
	if err != nil {
		return fmt.Errorf("relation: decode %s: %w", env.Schema.Name, err)
	}
	t.Schema, t.Rows = env.Schema, rows
	return nil
}

// decodeRows parses the "Rows" member. json.Unmarshal has already
// checked raw to be one well-formed JSON value, so the scanner only has
// to tell kinds apart; it still never indexes past the end.
func decodeRows(raw []byte, cols []Column) ([]Row, error) {
	if len(raw) == 0 || string(raw) == "null" { // member absent, or a nil Rows
		return nil, nil
	}
	d := rowDecoder{buf: raw}
	if !d.eat('[') {
		return nil, fmt.Errorf("rows are not an array")
	}
	rows := []Row{}
	slab := NewSlab(len(cols), bytes.Count(raw, []byte("]"))-1)
	for first := true; !d.eat(']'); first = false {
		if !first && !d.eat(',') {
			return nil, d.errorf(len(rows), "malformed row list")
		}
		if !d.eat('[') {
			return nil, d.errorf(len(rows), "row is not an array")
		}
		row := slab.Next()
		n := 0
		for ; !d.eat(']'); n++ {
			if n > 0 && !d.eat(',') {
				return nil, d.errorf(len(rows), "malformed row")
			}
			if n >= len(cols) {
				return nil, d.errorf(len(rows), "row is wider than the schema's %d columns", len(cols))
			}
			v, err := d.cell(cols[n].Type)
			if err != nil {
				return nil, d.errorf(len(rows), "column %s: %v", cols[n].Name, err)
			}
			row[n] = v
		}
		if n != len(cols) {
			return nil, d.errorf(len(rows), "row has %d cells, schema has %d columns", n, len(cols))
		}
		rows = append(rows, row)
	}
	if d.space(); d.pos != len(raw) {
		return nil, fmt.Errorf("trailing bytes after rows")
	}
	return rows, nil
}

// rowDecoder is a cursor over the "Rows" bytes.
type rowDecoder struct {
	buf []byte
	pos int
}

func (d *rowDecoder) errorf(row int, format string, args ...any) error {
	return fmt.Errorf("row %d: %s", row, fmt.Sprintf(format, args...))
}

func (d *rowDecoder) space() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// eat skips white space and consumes c if it is next.
func (d *rowDecoder) eat(c byte) bool {
	d.space()
	if d.pos < len(d.buf) && d.buf[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// cell parses one scalar of the given column type.
func (d *rowDecoder) cell(t Type) (v Value, err error) {
	d.space()
	if d.pos >= len(d.buf) {
		return v, fmt.Errorf("missing cell")
	}
	if t == String {
		if d.buf[d.pos] != '"' {
			return v, fmt.Errorf("STRING cell is not a JSON string")
		}
		s, err := d.str()
		return StringVal(s), err
	}
	start := d.pos
	for d.pos < len(d.buf) {
		if c := d.buf[d.pos]; c == ',' || c == ']' || c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			break
		}
		d.pos++
	}
	// The token is converted at each use so that the conversions the
	// parsers see stay on the stack; only an error pays for a copy.
	tok := d.buf[start:d.pos]
	if len(tok) == 0 || tok[0] != '-' && (tok[0] < '0' || tok[0] > '9') {
		return v, fmt.Errorf("%s cell %.24q is not a JSON number", t, string(tok))
	}
	if t == Int {
		n, err := strconv.ParseInt(string(tok), 10, 64)
		if err != nil {
			return v, fmt.Errorf("INT cell %.24q is not an integer inside int64", string(tok))
		}
		return IntVal(n), nil
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return v, fmt.Errorf("FLOAT cell %.24q is not a float64", string(tok))
	}
	return FloatVal(f), nil
}

// str consumes the JSON string at the cursor. A string without escapes
// that is valid UTF-8 is its own bytes; the rest goes to encoding/json.
func (d *rowDecoder) str() (string, error) {
	start := d.pos
	plain := true
	for d.pos++; d.pos < len(d.buf); d.pos++ {
		switch d.buf[d.pos] {
		case '\\':
			plain = false
			d.pos++
		case '"':
			d.pos++
			tok := d.buf[start:d.pos]
			if plain && utf8.Valid(tok) {
				return string(tok[1 : len(tok)-1]), nil
			}
			var s string
			err := json.Unmarshal(tok, &s)
			return s, err
		}
	}
	return "", fmt.Errorf("unterminated string")
}
