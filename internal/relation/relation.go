// Package relation provides the relational substrate DeepSea operates
// over: typed values, schemas, and in-memory tables with a byte-size
// model that stands in for on-disk HDFS file sizes.
package relation

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Type enumerates the value types supported by the engine.
type Type int

// Supported column types.
const (
	Int Type = iota
	Float
	String
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Int:
		return "INT"
	case Float:
		return "FLOAT"
	case String:
		return "STRING"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Value is a single column value: a 16-byte union whose meaning is
// selected by the column's Type, never by the cell. The word holds an
// Int cell's int64 or the IEEE bits of a Float cell's float64; the
// reference holds a String cell's text, nil meaning "". The zero Value
// therefore reads as 0, 0.0 and "". Null values are not modelled;
// generators always produce complete rows (the paper's workloads are
// selections, joins and aggregates over generated data).
//
// A Value is deliberately not comparable: with a pointer inside, ==
// would compare string identity, so every comparison goes through the
// accessor the column's Type names. The zero-width func array costs no
// bytes in leading position.
type Value struct {
	_    [0]func()
	bits uint64
	str  *string
}

// IntVal wraps an int64 as a Value.
func IntVal(v int64) Value { return Value{bits: uint64(v)} }

// FloatVal wraps a float64 as a Value, sign of zero and NaN payload
// included.
func FloatVal(v float64) Value { return Value{bits: math.Float64bits(v)} }

// StringVal wraps a string as a Value. The empty string allocates
// nothing: every fact row carries one as padding.
func StringVal(v string) Value {
	if v == "" {
		return Value{}
	}
	s := v // declared here so only non-empty strings pay the heap cell
	return Value{str: &s}
}

// Int reads an Int cell.
func (v Value) Int() int64 { return int64(v.bits) }

// Float reads a Float cell.
func (v Value) Float() float64 { return math.Float64frombits(v.bits) }

// Str reads a String cell.
func (v Value) Str() string {
	if v.str == nil {
		return ""
	}
	return *v.str
}

// AppendKey appends a self-delimiting encoding of a cell of type t to a
// key: the 8-byte word of an Int or Float cell, a String cell's bytes
// behind their 8-byte length. The length prefix makes adjacent column
// encodings unambiguous — a raw separator byte would let a string
// containing that byte shift bytes between columns and merge distinct
// keys. Two cells of one type encode equally exactly when they hold the
// same bits (Int, Float) or the same text (String).
func AppendKey(buf []byte, t Type, v Value) []byte {
	if t == String {
		s := v.Str()
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s)))
		return append(buf, s...)
	}
	return binary.LittleEndian.AppendUint64(buf, v.bits)
}

// Row is a tuple; the i-th Value corresponds to the i-th schema column.
type Row []Value

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Type Type
	// Ordered marks attributes with a total order usable as partition
	// keys. Only Int columns may be ordered in this implementation.
	Ordered bool
	// Lo and Hi bound the attribute's domain when Ordered. D(A) = [Lo,Hi].
	Lo, Hi int64
	// Width overrides the modelled byte width of this column when
	// positive. Workload generators use it to scale simulated rows up to
	// paper-scale data sizes: one simulated row stands for many real
	// rows, so a 200k-row table can model a 100 GB instance while the
	// cost model still sees realistic byte counts.
	Width int64
}

// Schema is an ordered list of named, typed columns.
type Schema struct {
	Name string
	Cols []Column
}

// ColIndex returns the index of the named column, or -1 if absent.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Col returns the named column. It panics if the column does not exist;
// plan construction validates names before execution.
func (s *Schema) Col(name string) Column {
	i := s.ColIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("relation: schema %q has no column %q", s.Name, name))
	}
	return s.Cols[i]
}

// Has reports whether the schema contains the named column.
func (s *Schema) Has(name string) bool { return s.ColIndex(name) >= 0 }

// Project returns a new schema with only the named columns, in the given
// order. The schema name is preserved.
func (s *Schema) Project(names []string) Schema {
	out := Schema{Name: s.Name, Cols: make([]Column, 0, len(names))}
	for _, n := range names {
		out.Cols = append(out.Cols, s.Col(n))
	}
	return out
}

// String renders the schema as name(col:TYPE, ...).
func (s *Schema) String() string {
	parts := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		parts[i] = fmt.Sprintf("%s:%s", c.Name, c.Type)
	}
	return fmt.Sprintf("%s(%s)", s.Name, strings.Join(parts, ", "))
}

// Bytes per value by type. These constants define the storage size model:
// a row's size is the sum of its column widths. They approximate the
// serialized width of columns in a Hive text/ORC file closely enough for
// cost-model purposes.
const (
	intWidth    = 8
	floatWidth  = 8
	stringWidth = 32
)

// ColWidth returns the modelled byte width of a column of type t.
func ColWidth(t Type) int64 {
	switch t {
	case Int:
		return intWidth
	case Float:
		return floatWidth
	case String:
		return stringWidth
	default:
		return intWidth
	}
}

// EffectiveWidth returns the column's modelled byte width, honouring an
// explicit Width override.
func (c Column) EffectiveWidth() int64 {
	if c.Width > 0 {
		return c.Width
	}
	return ColWidth(c.Type)
}

// RowWidth returns the modelled byte width of one row of the schema.
func (s *Schema) RowWidth() int64 {
	var w int64
	for _, c := range s.Cols {
		w += c.EffectiveWidth()
	}
	return w
}

// Table is an in-memory relation instance.
type Table struct {
	Schema Schema
	Rows   []Row
}

// NewTable returns an empty table with the given schema.
func NewTable(schema Schema) *Table {
	return &Table{Schema: schema}
}

// NumRows returns the table's cardinality.
func (t *Table) NumRows() int { return len(t.Rows) }

// Bytes returns the modelled storage size of the table.
func (t *Table) Bytes() int64 {
	return int64(len(t.Rows)) * t.Schema.RowWidth()
}

// Append adds a row. The row must match the schema width; mismatches are
// programming errors and panic.
func (t *Table) Append(r Row) {
	if len(r) != len(t.Schema.Cols) {
		panic(fmt.Sprintf("relation: row width %d != schema width %d for %s",
			len(r), len(t.Schema.Cols), t.Schema.Name))
	}
	t.Rows = append(t.Rows, r)
}

// Clone returns a deep copy of the table (rows share Value structs by
// value, so mutation of the clone cannot affect the original).
func (t *Table) Clone() *Table {
	return &Table{Schema: t.Schema, Rows: CloneRows(t.Rows)}
}

// CloneRows copies rows into one dense allocation of their own. It is
// how a table that outlives the query that computed it takes ownership
// of its rows: operator output is carved from slabs shared by every row
// of a chunk (see Slab), so keeping a few of those rows alive would
// otherwise keep each slab they touch alive.
func CloneRows(rows []Row) []Row {
	total := 0
	for _, r := range rows {
		total += len(r)
	}
	buf := make([]Value, total)
	out := make([]Row, len(rows))
	for i, r := range rows {
		n := copy(buf, r)
		out[i] = buf[:n:n]
		buf = buf[n:]
	}
	return out
}

// SlabRows is the most rows one Slab allocation holds: large enough
// that allocation cost per row is noise, small enough that a retained
// row pins little besides itself.
const SlabRows = 512

// Slab hands out rows of a fixed width carved from shared []Value
// allocations of up to SlabRows rows each, replacing one allocation per
// row on the operators' output paths. Every row has cap == len, so an
// append to it reallocates instead of running into its neighbour. Not
// safe for concurrent use: each worker fills its own.
type Slab struct {
	width int
	// hint is how many more rows the owner expects; it sizes the next
	// allocation so small outputs do not pay for a full slab.
	hint int
	// buf is the current allocation; rows before off are handed out.
	buf []Value
	off int
}

// NewSlab returns a slab of rows width values wide. rows is the
// expected row count — a sizing hint, not a limit.
func NewSlab(width, rows int) Slab {
	return Slab{width: width, hint: rows}
}

// Next returns a zeroed row of the slab's width.
func (s *Slab) Next() Row {
	if s.width == 0 {
		return Row{}
	}
	if len(s.buf)-s.off < s.width {
		n := min(max(s.hint, 1), SlabRows)
		s.hint -= n
		if s.hint <= 0 {
			s.hint = SlabRows
		}
		s.buf, s.off = make([]Value, n*s.width), 0
	}
	r := s.buf[s.off : s.off+s.width : s.off+s.width]
	s.off += s.width
	return r
}

// Undo takes back the row the preceding Next returned, so a caller that
// filled it and failed wastes no slot. The caller must drop the row.
func (s *Slab) Undo() {
	if s.width == 0 {
		return
	}
	s.off -= s.width
	clear(s.buf[s.off : s.off+s.width])
}
