package engine

import (
	"context"
	"testing"

	"deepsea/internal/faults"
	"deepsea/internal/interval"
	"deepsea/internal/query"
	"deepsea/internal/relation"
)

// TestWriteFaultStoresNothing: a faulted write, whole or appending,
// leaves the store as it was.
func TestWriteFaultStoresNothing(t *testing.T) {
	e := testEngine()
	tbl := e.BaseTable("item").Clone()
	if _, err := e.WriteMaterialized("v/x", tbl); err != nil {
		t.Fatal(err)
	}
	e.SetFaults(faults.New(faults.Config{Seed: 1, StorageWrite: 1}))
	if _, err := e.WriteMaterialized("v/y", tbl); err == nil {
		t.Fatal("write under p=1 write faults succeeded")
	} else if f, ok := faults.AsFault(err); !ok || f.Site != faults.StorageWrite || f.Key != "v/y" {
		t.Fatalf("write fault = %v, want a storage-write fault keyed v/y", err)
	}
	if _, err := e.AppendMaterialized("v/x", tbl.Rows[:3]); err == nil {
		t.Fatal("append under p=1 write faults succeeded")
	}
	files := e.StoredFiles()
	if len(files) != 1 || files[0].Path != "v/x" || files[0].Size != tbl.Bytes() || len(files[0].Rows.Rows) != len(tbl.Rows) {
		t.Errorf("store after faulted writes = %+v, want v/x alone, unchanged", files)
	}
}

// TestReadFaultReturnsTheFault: a faulted read returns the injected
// fault, keyed by the path, and no rows.
func TestReadFaultReturnsTheFault(t *testing.T) {
	e := testEngine()
	if _, err := e.WriteMaterialized("v/x", e.BaseTable("item").Clone()); err != nil {
		t.Fatal(err)
	}
	e.SetFaults(faults.New(faults.Config{Seed: 1, StorageRead: 1}))
	got, _, err := e.ReadMaterialized("v/x")
	if f, ok := faults.AsFault(err); !ok || f.Site != faults.StorageRead || f.Key != "v/x" || got != nil {
		t.Fatalf("faulted read = %v, %v; want the storage-read fault keyed v/x and no rows", got, err)
	}
}

// TestStoreWriteReadDelete: a written file is recorded with its size
// and rows, a read returns those rows at the file's size, and a deleted
// file is gone from the store and fails to read.
func TestStoreWriteReadDelete(t *testing.T) {
	e := testEngine()
	item := e.BaseTable("item").Clone()
	if _, err := e.WriteMaterialized("v/f0", item); err != nil {
		t.Fatal(err)
	}
	if e.MaterializedBytes("v/f0") != item.Bytes() || e.Materialized("v/f0") == nil {
		t.Fatal("written file not recorded")
	}
	got, c, err := e.ReadMaterialized("v/f0")
	if err != nil || got == nil || len(got.Rows) != len(item.Rows) || c.ReadBytes != item.Bytes() {
		t.Fatalf("ReadMaterialized = %v, %+v, %v", got, c, err)
	}
	e.DeleteMaterialized("v/f0")
	if e.Materialized("v/f0") != nil || e.MaterializedBytes("v/f0") != 0 || len(e.StoredFiles()) != 0 || e.StoredBytes() != 0 {
		t.Error("file survived delete")
	}
	if _, _, err := e.ReadMaterialized("v/f0"); err == nil {
		t.Error("read of deleted file did not error")
	}
}

// TestStoredFilesAndBytes: the store lists its files sorted by path and
// totals their sizes; rewriting a path replaces its file.
func TestStoredFilesAndBytes(t *testing.T) {
	e := testEngine()
	item := e.BaseTable("item").Clone()
	small := &relation.Table{Schema: item.Schema, Rows: item.Rows[:3]}
	for _, w := range []struct {
		path string
		tbl  *relation.Table
	}{{"v/b", small}, {"v/a", item}, {"v/b", item}} {
		if _, err := e.WriteMaterialized(w.path, w.tbl); err != nil {
			t.Fatal(err)
		}
	}
	files := e.StoredFiles()
	if len(files) != 2 || files[0].Path != "v/a" || files[1].Path != "v/b" {
		t.Fatalf("StoredFiles = %+v, want [v/a v/b]", files)
	}
	if files[1].Size != item.Bytes() || len(files[1].Rows.Rows) != len(item.Rows) {
		t.Errorf("rewritten v/b = %d bytes, %d rows; want the second write", files[1].Size, len(files[1].Rows.Rows))
	}
	if want := 2 * item.Bytes(); e.StoredBytes() != want {
		t.Errorf("StoredBytes = %d, want %d", e.StoredBytes(), want)
	}
}

// TestRestoreChecksNoFault: a restore is not a write (no fault check);
// a file restored without rows stays without them through an appended
// record, and reading it fails rather than answering.
func TestRestoreChecksNoFault(t *testing.T) {
	e := testEngine()
	item := e.BaseTable("item").Clone()
	if _, err := e.WriteMaterialized("v/a", item); err != nil {
		t.Fatal(err)
	}
	e.SetFaults(faults.New(faults.Config{Seed: 1, StorageWrite: 1}))
	e.RestoreFile("v/c", 100, nil)
	e.RestoreAppend("v/c", 150, &relation.Table{Schema: item.Schema, Rows: item.Rows[:1]})
	e.RestoreAppend("v/a", 0, &relation.Table{Schema: item.Schema, Rows: item.Rows[:2]})
	files := e.StoredFiles()
	if len(files) != 2 || files[0].Path != "v/a" || files[1].Path != "v/c" {
		t.Fatalf("StoredFiles = %+v, want [v/a v/c]", files)
	}
	grown := int64(len(item.Rows)+2) * item.Schema.RowWidth()
	if files[0].Size != grown || len(files[0].Rows.Rows) != len(item.Rows)+2 || files[1].Size != 150 || files[1].Rows != nil {
		t.Errorf("restored sizes = %d, %d (rows %v)", files[0].Size, files[1].Size, files[1].Rows != nil)
	}
	if want := grown + 150; e.StoredBytes() != want {
		t.Errorf("StoredBytes = %d, want %d", e.StoredBytes(), want)
	}
	vs := &query.ViewScan{ViewID: "c", ViewPath: "v/c", ViewSchema: item.Schema}
	if _, err := e.Run(vs, nil); err == nil {
		t.Error("reading a file restored without rows answered")
	}
}

// TestSnapshotOutlivesTheStore: a plan bound to a snapshot reads the
// base rows and the stored file it was bound to, after the base table
// grew and the file was extended and then deleted.
func TestSnapshotOutlivesTheStore(t *testing.T) {
	e := testEngine()
	ivs := []interval.Interval{interval.New(0, 49)}
	materializeJoinView(t, e, ivs)
	frag := &query.ViewScan{
		ViewID:     "j",
		ViewSchema: joinPlan().Schema(),
		PartAttr:   "ss_item_sk",
		FragIDs:    []string{fragPath(ivs[0])},
		Reads:      ivs,
		FragIvs:    ivs,
		Remainders: []query.Node{&query.Select{
			Child:  joinPlan(),
			Ranges: []query.RangePred{{Col: "ss_item_sk", Iv: interval.New(50, 99)}},
		}},
	}
	want := mustRun(t, e, frag).Table.Fingerprint()

	snap, err := e.SnapshotTables([]string{"item", "sales"})
	if err != nil {
		t.Fatal(err)
	}
	e.BindFiles(snap, frag)
	rows := []relation.Row{
		{relation.IntVal(10), relation.IntVal(1), relation.FloatVal(1)},
		{relation.IntVal(60), relation.IntVal(1), relation.FloatVal(1)},
	}
	if _, err := e.AppendBase("sales", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AppendMaterialized(fragPath(ivs[0]), e.Materialized(fragPath(ivs[0])).Rows[:1]); err != nil {
		t.Fatal(err)
	}
	e.DeleteMaterialized(fragPath(ivs[0]))

	res, err := e.RunSnapshot(context.Background(), snap, frag, nil)
	if err != nil {
		t.Fatalf("run over the snapshot: %v", err)
	}
	if got := res.Table.Fingerprint(); got != want {
		t.Error("run over the snapshot read the changed store")
	}
	if got := snap.Counts()["sales"]; got != 1000 {
		t.Errorf("snapshot count = %d, want 1000", got)
	}
	if _, err := e.Run(frag, nil); err == nil {
		t.Error("a fresh run read the deleted file")
	}
}
