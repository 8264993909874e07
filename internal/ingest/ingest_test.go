package ingest

import (
	"bytes"
	"encoding/json"
	"testing"
)

// numbersSpec and invalidSpecs are the bodies of the decoder tests below;
// FuzzDecodeSpec seeds its corpus with them.
const numbersSpec = `{"table":"t","rows":[[1, 2.5, "x"],[9007199254740993, 3, "y"],[3.0, -0.0, "z"]]}`

var invalidSpecs = []string{
	`{"rows":[[1]]}`,                   // no table
	`{"table":"t"}`,                    // no rows
	`{"table":"t","rows":[[1],[1,2]]}`, // ragged
}

func TestDecodeSpecNormalizesNumbers(t *testing.T) {
	sp, err := DecodeSpec(bytes.NewReader([]byte(numbersSpec)))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Rows[0][0] != int64(1) || sp.Rows[0][1] != 2.5 || sp.Rows[0][2] != "x" {
		t.Errorf("row 0 = %#v", sp.Rows[0])
	}
	// 2^53+1 survives only via UseNumber — a float64 round-trip would
	// corrupt it.
	if sp.Rows[1][0] != int64(9007199254740993) {
		t.Errorf("large int corrupted: %#v", sp.Rows[1][0])
	}
	// Whole numbers written as floats read as the integers Go encodes them
	// as. Before, "-0.0" decoded as float64 -0, re-encoded as "-0" and read
	// back as int64 0: FuzzDecodeSpec's fixed-point check fails on it.
	if sp.Rows[2][0] != int64(3) || sp.Rows[2][1] != int64(0) {
		t.Errorf("row 2 = %#v, want int64 3 and 0", sp.Rows[2])
	}
}

func TestSpecValidate(t *testing.T) {
	for _, bad := range invalidSpecs {
		if _, err := DecodeSpec(bytes.NewReader([]byte(bad))); err == nil {
			t.Errorf("spec %s decoded without error", bad)
		}
	}
}

func TestItemRange(t *testing.T) {
	sp := &Spec{Table: "t", Rows: [][]any{{int64(5), "a"}, {int64(2), "b"}, {int64(9), "c"}}}
	lo, hi, ok := sp.ItemRange(0)
	if !ok || lo != 2 || hi != 9 {
		t.Errorf("ItemRange = %d,%d,%v", lo, hi, ok)
	}
	if _, _, ok := sp.ItemRange(1); ok {
		t.Error("string key column reported a range")
	}
}

// TestStreamRoundTrip reads a written stream the way it is replayed: one
// line, one POST /append body, decoded by DecodeSpec as the server does.
func TestStreamRoundTrip(t *testing.T) {
	in := []*Spec{
		{Table: "a", Rows: [][]any{{int64(1), "x"}, {int64(2), "y"}}},
		{Table: "b", Rows: [][]any{{3.5}}},
	}
	var buf bytes.Buffer
	if err := WriteStream(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out []*Spec
	for _, line := range bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n")) {
		sp, err := DecodeSpec(bytes.NewReader(line))
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		out = append(out, sp)
	}
	if len(out) != 2 || out[0].Table != "a" || len(out[0].Rows) != 2 || out[1].Rows[0][0] != 3.5 {
		t.Errorf("round trip = %#v", out)
	}
	if out[0].Rows[1][0] != int64(2) {
		t.Errorf("int corrupted in round trip: %#v", out[0].Rows[1][0])
	}
}

// FuzzDecodeSpec: DecodeSpec never panics on arbitrary bytes; a spec it
// accepts names a table and carries at least one row, every row as wide
// as the first, every cell an int64, float64 or string; and encoding it
// is a fixed point — encode → decode → encode reproduces the first
// encoding byte for byte.
func FuzzDecodeSpec(f *testing.F) {
	f.Add([]byte(numbersSpec))
	for _, s := range invalidSpecs {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sp, err := DecodeSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		if sp.Table == "" || len(sp.Rows) == 0 {
			t.Fatalf("accepted a spec without a table or rows: %#v", sp)
		}
		for i, row := range sp.Rows {
			if len(row) != len(sp.Rows[0]) {
				t.Fatalf("row %d has %d cells, row 0 has %d", i, len(row), len(sp.Rows[0]))
			}
			for j, v := range row {
				switch v.(type) {
				case int64, float64, string:
				default:
					t.Fatalf("row %d col %d: cell %#v of type %T", i, j, v, v)
				}
			}
		}
		first, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("encode accepted spec: %v", err)
		}
		again, err := DecodeSpec(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("decode of %s: %v", first, err)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encoding is not a fixed point:\nfirst  %s\nsecond %s", first, second)
		}
	})
}
