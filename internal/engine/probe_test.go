package engine

import (
	"runtime"
	"testing"
	"unsafe"

	"deepsea/internal/query"
	"deepsea/internal/relation"
)

// TestOutputRowsOwnTheirCapacity: operator output rows are carved from
// shared slabs, so each must have cap == len — an append to a returned
// row reallocates instead of overwriting the next row's first value.
func TestOutputRowsOwnTheirCapacity(t *testing.T) {
	fact, dim, sel := probeFixture(2000, 400)
	proj := sel.Child.(*query.Project)
	joined, _ := probeOnce(mustFuse(t, proj, nil), fact, dim, nil, newBudget(2))
	for name, out := range map[string]*relation.Table{
		"probe":        joined,
		"projectTable": projectTable(fact, []string{"f_k", "f_qty", "f_price"}, newBudget(2)),
	} {
		if len(out.Rows) < 2 {
			t.Fatalf("%s: %d rows; the fixture proves nothing", name, len(out.Rows))
		}
		for i, row := range out.Rows {
			if cap(row) != len(row) {
				t.Fatalf("%s: row %d has cap %d, len %d", name, i, cap(row), len(row))
			}
		}
		neighbour := out.Rows[1][0].Int()
		_ = append(out.Rows[0], relation.IntVal(-1))
		if out.Rows[1][0].Int() != neighbour {
			t.Errorf("%s: appending to row 0 overwrote row 1", name)
		}
	}
}

// heapInUse returns the live heap after a full collection.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestStoredFragmentReleasesCapturedSlabs is the slab ownership rule
// observed from outside: a fragment holding 5% of a captured view, its
// rows drawn from every slab of the capture, is stored; once the
// captured table is dropped the heap holds the fragment's own bytes, not
// the capture's.
func TestStoredFragmentReleasesCapturedSlabs(t *testing.T) {
	fact, dim, sel := probeFixture(benchFactRows, benchDimRows)
	e := New(DefaultCostModel())
	e.AddBaseTable(fact)
	e.AddBaseTable(dim)
	proj := sel.Child.(*query.Project)
	keep := sel.Ranges[0].Iv

	before := heapInUse()
	res, err := e.Run(proj, map[query.Node]Capture{proj: {Level: CaptureRows}})
	if err != nil {
		t.Fatal(err)
	}
	captured := res.Captured[proj]
	frag := relation.NewTable(captured.Schema)
	for _, row := range captured.Rows {
		if keep.Contains(row[0].Int()) {
			frag.Rows = append(frag.Rows, row)
		}
	}
	if n := len(frag.Rows); n == 0 || n > len(captured.Rows)/10 {
		t.Fatalf("fragment holds %d of %d rows; the fixture is not a 5%% fragment", n, len(captured.Rows))
	}
	own := uint64(len(frag.Rows)) * uint64(unsafe.Sizeof(relation.Row{})+uintptr(len(frag.Schema.Cols))*unsafe.Sizeof(relation.Value{}))
	whole := uint64(len(captured.Rows)) * uint64(len(captured.Schema.Cols)) * uint64(unsafe.Sizeof(relation.Value{}))
	if _, err := e.WriteMaterialized("views/v/f_k/frag", frag); err != nil {
		t.Fatal(err)
	}
	res, captured, frag = Result{}, nil, nil

	held := int64(heapInUse()) - int64(before)
	if held > int64(2*own) {
		t.Errorf("heap holds %d bytes after the capture was dropped; the stored fragment owns %d (the capture was %d)", held, own, whole)
	}
	runtime.KeepAlive(e)
}

// TestRewriteSharesStoredRows: the two sides of the storage boundary.
// WriteMaterialized copies what a query hands it; a table cut from rows
// the store already holds goes back through RewriteMaterialized without
// a second copy, so an overlapping fragment costs no memory twice.
func TestRewriteSharesStoredRows(t *testing.T) {
	fact, _, _ := probeFixture(2000, 400)
	e := New(DefaultCostModel())
	if _, err := e.WriteMaterialized("views/v/parent", fact); err != nil {
		t.Fatal(err)
	}
	parent := e.Materialized("views/v/parent")
	if &parent.Rows[0][0] == &fact.Rows[0][0] {
		t.Fatal("WriteMaterialized stored the caller's rows")
	}
	child := relation.NewTable(parent.Schema)
	child.Rows = append(child.Rows, parent.Rows[:10]...)
	wc, err := e.RewriteMaterialized("views/v/child", child)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := e.WriteMaterialized("views/v/copy", child); wc != want {
		t.Errorf("rewrite cost %+v, write cost %+v: sharing rows must not change the accounting", wc, want)
	}
	if stored := e.Materialized("views/v/child"); &stored.Rows[0][0] != &parent.Rows[0][0] {
		t.Error("RewriteMaterialized copied rows the store already held")
	}
}
