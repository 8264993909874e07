package relation

import (
	"testing"
)

func testSchema() Schema {
	return Schema{
		Name: "sales",
		Cols: []Column{
			{Name: "item_sk", Type: Int, Ordered: true, Lo: 0, Hi: 1000},
			{Name: "price", Type: Float},
			{Name: "region", Type: String},
		},
	}
}

func TestSchemaColIndex(t *testing.T) {
	s := testSchema()
	if got := s.ColIndex("price"); got != 1 {
		t.Errorf("ColIndex(price) = %d, want 1", got)
	}
	if got := s.ColIndex("missing"); got != -1 {
		t.Errorf("ColIndex(missing) = %d, want -1", got)
	}
	if !s.Has("item_sk") || s.Has("nope") {
		t.Error("Has() misreports column presence")
	}
}

func TestSchemaColPanicsOnMissing(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Col(missing) did not panic")
		}
	}()
	s := testSchema()
	s.Col("missing")
}

func TestSchemaProject(t *testing.T) {
	s := testSchema()
	p := s.Project([]string{"region", "item_sk"})
	if len(p.Cols) != 2 || p.Cols[0].Name != "region" || p.Cols[1].Name != "item_sk" {
		t.Fatalf("Project = %v", p)
	}
	if !p.Cols[1].Ordered {
		t.Error("projection dropped Ordered flag")
	}
}

func TestRowWidth(t *testing.T) {
	s := testSchema()
	want := int64(8 + 8 + 32)
	if got := s.RowWidth(); got != want {
		t.Errorf("RowWidth = %d, want %d", got, want)
	}
}

func TestTableBytes(t *testing.T) {
	s := testSchema()
	tab := NewTable(s)
	tab.Append(Row{IntVal(1), FloatVal(9.5), StringVal("east")})
	tab.Append(Row{IntVal(2), FloatVal(1.5), StringVal("west")})
	if got := tab.Bytes(); got != 2*s.RowWidth() {
		t.Errorf("Bytes = %d, want %d", got, 2*s.RowWidth())
	}
	if tab.NumRows() != 2 {
		t.Errorf("NumRows = %d, want 2", tab.NumRows())
	}
}

func TestAppendPanicsOnWidthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Append with wrong width did not panic")
		}
	}()
	tab := NewTable(testSchema())
	tab.Append(Row{IntVal(1)})
}

func TestCloneIsDeep(t *testing.T) {
	tab := NewTable(testSchema())
	tab.Append(Row{IntVal(1), FloatVal(1), StringVal("a")})
	c := tab.Clone()
	c.Rows[0][0] = IntVal(99)
	if tab.Rows[0][0].Int() != 1 {
		t.Error("mutating clone changed original")
	}
}

func TestSlabUndoReusesSlot(t *testing.T) {
	s := NewSlab(2, 4)
	a := s.Next()
	a[0] = IntVal(1)
	b := s.Next()
	b[0], b[1] = IntVal(2), StringVal("junk")
	s.Undo()
	c := s.Next()
	if &c[0] != &b[0] {
		t.Error("Next after Undo did not hand the slot out again")
	}
	if c[0].Int() != 0 || c[1].Str() != "" {
		t.Errorf("reused row not zeroed: %v", c)
	}
	if a[0].Int() != 1 || cap(c) != 2 {
		t.Errorf("neighbour disturbed or cap != len: a=%v cap=%d", a, cap(c))
	}
}

func TestFingerprintOrderIndependent(t *testing.T) {
	a := NewTable(testSchema())
	a.Append(Row{IntVal(1), FloatVal(1), StringVal("a")})
	a.Append(Row{IntVal(2), FloatVal(2), StringVal("b")})
	b := NewTable(testSchema())
	b.Append(Row{IntVal(2), FloatVal(2), StringVal("b")})
	b.Append(Row{IntVal(1), FloatVal(1), StringVal("a")})
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("fingerprint depends on row order")
	}
}

func TestFingerprintDistinguishesMultisets(t *testing.T) {
	a := NewTable(testSchema())
	a.Append(Row{IntVal(1), FloatVal(1), StringVal("a")})
	a.Append(Row{IntVal(1), FloatVal(1), StringVal("a")})
	b := NewTable(testSchema())
	b.Append(Row{IntVal(1), FloatVal(1), StringVal("a")})
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("fingerprint ignores duplicate multiplicity")
	}
}

func TestTypeString(t *testing.T) {
	if Int.String() != "INT" || Float.String() != "FLOAT" || String.String() != "STRING" {
		t.Error("Type.String mismatch")
	}
}

func TestEffectiveWidthOverride(t *testing.T) {
	c := Column{Name: "x", Type: Int}
	if c.EffectiveWidth() != 8 {
		t.Errorf("default int width = %d, want 8", c.EffectiveWidth())
	}
	c.Width = 1 << 20
	if c.EffectiveWidth() != 1<<20 {
		t.Errorf("override ignored")
	}
	s := Schema{Cols: []Column{c, {Name: "y", Type: String}}}
	if s.RowWidth() != 1<<20+32 {
		t.Errorf("RowWidth = %d", s.RowWidth())
	}
}
