package relation

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"unsafe"
)

// TestValueLayout pins the cell: 16 bytes, a zero value that reads as
// zero under every type, no allocation for the "" every fact row pads
// with, and both number kinds carried bit-exactly.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 16 {
		t.Errorf("Sizeof(Value{}) = %d, want 16", got)
	}
	var zero Value
	if zero.Int() != 0 || zero.Float() != 0 || math.Signbit(zero.Float()) || zero.Str() != "" {
		t.Errorf("zero Value reads %d / %v / %q", zero.Int(), zero.Float(), zero.Str())
	}
	var sink Value
	if n := testing.AllocsPerRun(100, func() { sink = StringVal("") }); n != 0 {
		t.Errorf(`StringVal("") allocates %v times, want 0`, n)
	}
	if sink.Str() != "" {
		t.Errorf(`StringVal("").Str() = %q`, sink.Str())
	}
	for _, x := range []int64{math.MinInt64, -1, 0, 1, 1<<53 + 1, math.MaxInt64} {
		if got := IntVal(x).Int(); got != x {
			t.Errorf("IntVal(%d).Int() = %d", x, got)
		}
	}
	for _, x := range []float64{math.Copysign(0, -1), 0, 5e-324, -5e-324, 1.5, math.MaxFloat64, -math.MaxFloat64, math.Inf(1)} {
		if got := FloatVal(x).Float(); math.Float64bits(got) != math.Float64bits(x) {
			t.Errorf("FloatVal(%v).Float() = %v (bits %x, want %x)", x, got, math.Float64bits(got), math.Float64bits(x))
		}
	}
	if s := "a\x00b"; StringVal(s).Str() != s {
		t.Errorf("StringVal(%q).Str() = %q", s, StringVal(s).Str())
	}
}

// sameTable reports whether two tables have equal schemas and the same
// cells in the same order, bit for bit.
func sameTable(a, b *Table) bool {
	if a.Schema.Name != b.Schema.Name || len(a.Schema.Cols) != len(b.Schema.Cols) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for j, c := range a.Schema.Cols {
		if c != b.Schema.Cols[j] {
			return false
		}
	}
	for i, r := range a.Rows {
		if len(r) != len(b.Rows[i]) {
			return false
		}
		for j, v := range r {
			typ := a.Schema.Cols[j].Type
			if !bytes.Equal(AppendKey(nil, typ, v), AppendKey(nil, typ, b.Rows[i][j])) {
				return false
			}
		}
	}
	return true
}

func TestTableJSONRoundTrip(t *testing.T) {
	wide := Schema{Name: "v", Cols: []Column{
		{Name: "k", Type: Int, Ordered: true, Lo: -5, Hi: 1 << 40, Width: 1 << 20},
		{Name: "x", Type: Float},
		{Name: "s", Type: String},
		{Name: "total#sum", Type: String},
	}}
	cases := map[string]*Table{
		"extremes": {Schema: wide, Rows: []Row{
			{IntVal(math.MinInt64), FloatVal(math.Copysign(0, -1)), StringVal(""), StringVal("x:1p+0")},
			{IntVal(math.MaxInt64), FloatVal(5e-324), StringVal(`quo"te \ back`), StringVal("")},
			{IntVal(1<<53 + 1), FloatVal(math.MaxFloat64), StringVal("line\nbreak\ttab\x00nul"), StringVal("<&>")},
			{IntVal(-(1<<53 + 1)), FloatVal(-math.MaxFloat64), StringVal("héllo ✓ 日本"), StringVal(" ")},
			{IntVal(0), FloatVal(0.1), StringVal("]],[["), StringVal(`A`)},
		}},
		"empty table":      {Schema: wide, Rows: []Row{}},
		"nil rows":         {Schema: wide},
		"zero columns":     {Schema: Schema{Name: "unit"}, Rows: []Row{{}, {}}},
		"zero cols no row": {Schema: Schema{Name: "unit"}},
	}
	for name, tab := range cases {
		enc, err := json.Marshal(tab)
		if err != nil {
			t.Errorf("%s: Marshal: %v", name, err)
			continue
		}
		var got Table
		if err := json.Unmarshal(enc, &got); err != nil {
			t.Errorf("%s: Unmarshal(%s): %v", name, enc, err)
			continue
		}
		if !sameTable(tab, &got) {
			t.Errorf("%s: round trip changed the table\n enc %s\n got %+v", name, enc, got.Rows)
		}
		if (tab.Rows == nil) != (got.Rows == nil) {
			t.Errorf("%s: nil-ness of Rows changed: %v -> %v", name, tab.Rows == nil, got.Rows == nil)
		}
		if tab.Fingerprint() != got.Fingerprint() {
			t.Errorf("%s: fingerprint changed", name)
		}
	}

	// The form itself: rows are arrays of bare scalars, and the table
	// travels unchanged inside a struct field, as in a journal record.
	small := &Table{Schema: Schema{Name: "t", Cols: []Column{{Name: "k", Type: Int}, {Name: "x", Type: Float}, {Name: "s", Type: String}}},
		Rows: []Row{{IntVal(123456), FloatVal(12.5), StringVal("")}, {IntVal(-1), FloatVal(1e21), StringVal("a")}}}
	enc, err := json.Marshal(struct {
		Rows *Table `json:"rows,omitempty"`
	}{small})
	if err != nil {
		t.Fatal(err)
	}
	if want := `"Rows":[[123456,12.5,""],[-1,1e+21,"a"]]}}`; !strings.HasSuffix(string(enc), want) {
		t.Errorf("encoded %s, want suffix %s", enc, want)
	}

	for _, f := range []float64{math.NaN(), math.Inf(-1)} {
		bad := &Table{Schema: small.Schema, Rows: []Row{{IntVal(1), FloatVal(f), StringVal("")}}}
		if _, err := json.Marshal(bad); err == nil {
			t.Errorf("Marshal accepted %v", f)
		}
	}
	if _, err := json.Marshal(&Table{Schema: small.Schema, Rows: []Row{{IntVal(1)}}}); err == nil {
		t.Error("Marshal accepted a row narrower than the schema")
	}
}

// TestTableJSONStrict: every way a document can disagree with its own
// schema is an error, never a table of zeros.
func TestTableJSONStrict(t *testing.T) {
	const sch = `{"Name":"t","Cols":[{"Name":"k","Type":0},{"Name":"x","Type":1},{"Name":"s","Type":2}]}`
	doc := func(rows string) string { return `{"Schema":` + sch + `,"Rows":` + rows + `}` }
	if err := json.Unmarshal([]byte(doc(`[[1,2,"a"],[ -3 , 4.5e0 , "b" ]]`)), new(Table)); err != nil {
		t.Fatalf("well-formed document rejected: %v", err)
	}
	cases := map[string]string{
		"row too narrow":           doc(`[[1,2.5]]`),
		"row too wide":             doc(`[[1,2.5,"a",4]]`),
		"empty row":                doc(`[[]]`),
		"row not an array":         doc(`[7]`),
		"row an object":            doc(`[{"k":1}]`),
		"rows not an array":        doc(`{"a":1}`),
		"rows a number":            doc(`5`),
		"int as fraction":          doc(`[[1.5,2.5,"a"]]`),
		"int as exponent":          doc(`[[1e3,2.5,"a"]]`),
		"int beyond int64":         doc(`[[9223372036854775808,2.5,"a"]]`),
		"int as string":            doc(`[["7",2.5,"a"]]`),
		"int as bool":              doc(`[[true,2.5,"a"]]`),
		"int as null":              doc(`[[null,2.5,"a"]]`),
		"int as array":             doc(`[[[1],2.5,"a"]]`),
		"float as string":          doc(`[[1,"2.5","a"]]`),
		"float as null":            doc(`[[1,null,"a"]]`),
		"float beyond float64":     doc(`[[1,1e999,"a"]]`),
		"string as number":         doc(`[[1,2.5,3]]`),
		"string as null":           doc(`[[1,2.5,null]]`),
		"cells as old-format objs": doc(`[[{"I":1,"F":0,"S":""},{"I":0,"F":2.5,"S":""},{"I":0,"F":0,"S":"a"}]]`),
		"unknown column type":      `{"Schema":{"Name":"t","Cols":[{"Name":"k","Type":7}]},"Rows":[[1]]}`,
		"not an object":            `[[1,2.5,"a"]]`,
		"not JSON":                 `{"Schema":`,
	}
	for name, in := range cases {
		var got Table
		if err := json.Unmarshal([]byte(in), &got); err == nil {
			t.Errorf("%s: accepted %s as %+v", name, in, got.Rows)
		}
	}
}

// FuzzTableJSON: whatever decodes, re-encodes to a form that decodes to
// the same table and re-encodes to the same bytes; nothing panics. The
// seeds run as ordinary tests under `go test`.
func FuzzTableJSON(f *testing.F) {
	const sch = `{"Name":"t","Cols":[{"Name":"k","Type":0},{"Name":"x","Type":1},{"Name":"s","Type":2}]}`
	for _, seed := range []string{
		`{"Schema":` + sch + `,"Rows":[[1,2.5,"a"],[-9223372036854775808,-0,""]]}`,
		`{"Schema":` + sch + `,"Rows":[[9007199254740993,5e-324,"q\"\\\né😀"]]}`,
		`{"Schema":` + sch + `,"Rows":[ [ 1 , 1E5 , "]],[[" ] ]}`,
		`{"Schema":` + sch + `,"Rows":null}`,
		`{"Schema":` + sch + `,"Rows":[]}`,
		`{"Schema":{"Name":"unit","Cols":null},"Rows":[[],[]]}`,
		`{"Schema":` + sch + `,"Rows":[[{"I":1,"F":0,"S":""},2,"a"]]}`,
		`{"Schema":` + sch + `,"Rows":[[1,2.5]]}`,
		`{"rows":[[1,2,"\xff"]],"schema":` + sch + `}`,
		`{"Schema":` + sch + `,"Rows":[[1,1e999,"a"]]}`,
		`null`, `{}`, `[`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var first Table
		if json.Unmarshal(data, &first) != nil {
			return
		}
		enc, err := json.Marshal(&first)
		if err != nil {
			t.Fatalf("decoded table does not encode: %v", err)
		}
		var second Table
		if err := json.Unmarshal(enc, &second); err != nil {
			t.Fatalf("own encoding %s does not decode: %v", enc, err)
		}
		if !sameTable(&first, &second) {
			t.Fatalf("decode(encode(t)) != t for %s", enc)
		}
		again, err := json.Marshal(&second)
		if err != nil || !bytes.Equal(enc, again) {
			t.Fatalf("encoding is not a fixed point:\n %s\n %s (%v)", enc, again, err)
		}
	})
}
