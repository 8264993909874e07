package workload

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"deepsea"
	"deepsea/internal/relation"
)

// loadShareTemplates are the six read templates the served workloads
// cycle through.
var loadShareTemplates = []Template{Q1, Q5, Q7, Q16, Q20, Q29}

// insertRowByRow fills sys through the []any API: every cell boxed into
// an []any and converted back by Insert into rows the System owns.
func insertRowByRow(t *testing.T, sys *deepsea.System, d *Data) {
	t.Helper()
	names := make([]string, 0, len(d.Tables))
	for name := range d.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tbl := d.Tables[name]
		def, err := tableDef(name, tbl.Schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.CreateTable(def); err != nil {
			t.Fatal(err)
		}
		vals := make([]any, len(tbl.Schema.Cols))
		for _, row := range tbl.Rows {
			for i, v := range row {
				switch tbl.Schema.Cols[i].Type {
				case relation.Int:
					vals[i] = v.Int()
				case relation.Float:
					vals[i] = v.Float()
				default:
					vals[i] = v.Str()
				}
			}
			if err := sys.Insert(name, vals); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// sameHeaders reports whether got holds the very row headers of want:
// each row's cell pointer, length and capacity.
func sameHeaders(got, want []relation.Row) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if unsafe.SliceData(got[i]) != unsafe.SliceData(want[i]) || len(got[i]) != len(want[i]) || cap(got[i]) != cap(want[i]) {
			return false
		}
	}
	return true
}

// TestLoadSharesRowsAndNeverWritesThem holds the contract that lets Load
// hand the generator's rows — headers and cells — to every System by
// reference: materializing views and fragments, refining them, caching
// answers, a load-time Insert after Load, appending and refreshing on
// one System never write the Data's header arrays or a base row's
// cells, leave a second System loaded from the same Data answering as
// before, and the shared rows answer exactly like rows the System built
// itself.
func TestLoadSharesRowsAndNeverWritesThem(t *testing.T) {
	d := Generate(50, 1, nil)
	before := make(map[string]string, len(d.Tables))
	arrays := make(map[string][]relation.Row, len(d.Tables))
	headers := make(map[string][]relation.Row, len(d.Tables))
	for name, tbl := range d.Tables {
		before[name] = tbl.Fingerprint()
		arrays[name] = tbl.Rows
		headers[name] = append([]relation.Row(nil), tbl.Rows...)
	}
	opts := []deepsea.Option{
		deepsea.WithPoolLimit(d.TotalBytes() / 10),
		deepsea.WithResultCache(64 << 20),
	}
	// shared takes Load's InsertRows hand-over without Load's start, so
	// that a load-time Insert can follow it: the Insert grows shared's
	// store table past the Data's array. copied takes the same row; other
	// is loaded by Load and does not.
	shared := deepsea.New(opts...)
	for _, name := range []string{"customer", "item", "product_reviews", "store", "store_sales", "web_clickstream"} {
		def, err := tableDef(name, d.Tables[name].Schema)
		if err != nil {
			t.Fatal(err)
		}
		shared.MustCreateTable(def)
		if err := shared.InsertRows(name, d.Tables[name].Rows); err != nil {
			t.Fatal(err)
		}
	}
	other := deepsea.New(opts...)
	if err := Load(other, d); err != nil {
		t.Fatal(err)
	}
	copied := deepsea.New(opts...)
	insertRowByRow(t, copied, d)
	extraStore := []any{int64(0), "north", ""}
	for _, sys := range []*deepsea.System{shared, copied} {
		if err := sys.Insert("store", extraStore); err != nil {
			t.Fatal(err)
		}
	}

	ranges := Ranges(30, 0.05, Light, ItemSkDomain(), rand.New(rand.NewSource(7)))
	// answers is order-independent: a rewritten answer lists its groups
	// in the order of the fragments it read.
	answers := func(sys *deepsea.System) []string {
		var out []string
		for _, iv := range ranges {
			for _, tpl := range loadShareTemplates {
				rep, err := sys.Run(BuildQuery(tpl, iv.Lo, iv.Hi))
				if err != nil {
					t.Fatalf("%v %v: %v", tpl, iv, err)
				}
				out = append(out, fmt.Sprint(rep.Columns(), rep.Result.Fingerprint()))
			}
		}
		return out
	}
	otherBefore := answers(other)
	runAll := func(phase string) {
		for _, iv := range ranges {
			for _, tpl := range loadShareTemplates {
				q := BuildQuery(tpl, iv.Lo, iv.Hi)
				got, err := shared.Run(q)
				if err != nil {
					t.Fatalf("%s %v %v: %v", phase, tpl, iv, err)
				}
				want, err := copied.Run(BuildQuery(tpl, iv.Lo, iv.Hi))
				if err != nil {
					t.Fatalf("%s %v %v reference: %v", phase, tpl, iv, err)
				}
				if !reflect.DeepEqual(got.Columns(), want.Columns()) || !reflect.DeepEqual(got.Rows(), want.Rows()) {
					t.Fatalf("%s %v %v: shared rows answer %v, copied rows %v", phase, tpl, iv, got.Rows(), want.Rows())
				}
			}
		}
	}
	runAll("before appends")
	if shared.PoolBytes() == 0 {
		t.Fatal("nothing materialized: the check wrote no views or fragments")
	}

	for i, table := range []string{"store_sales", "web_clickstream", "product_reviews"} {
		batch := d.AppendRows(table, 64, int64(i+1), nil)
		for _, sys := range []*deepsea.System{shared, copied} {
			rows, err := sys.ConvertRows(table, batch)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.AppendRows(table, rows); err != nil {
				t.Fatalf("append %s: %v", table, err)
			}
			if err := sys.DrainMaintenance(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	runAll("after appends")

	if !reflect.DeepEqual(answers(other), otherBefore) {
		t.Error("a System sharing the Data answers differently after another System's inserts, appends and refreshes")
	}
	for name, tbl := range d.Tables {
		if got := tbl.Fingerprint(); got != before[name] {
			t.Errorf("table %s: the generator's rows changed after Load", name)
		}
		arr := arrays[name]
		if unsafe.SliceData(tbl.Rows) != unsafe.SliceData(arr) || len(tbl.Rows) != len(arr) || cap(tbl.Rows) != cap(arr) ||
			!sameHeaders(tbl.Rows, headers[name]) {
			t.Errorf("table %s: the generator's header array changed after Load", name)
		}
	}
}

// TestLoadRetainsNoRowHeaders holds that a loaded System keeps no copy
// of the base tables' row headers: the heap New + Load retains does not
// grow with the instance size. The headers alone are 0.35 MB at 50 GB
// and 1.33 MB at 200 GB.
func TestLoadRetainsNoRowHeaders(t *testing.T) {
	retained := func(gb int64) int64 {
		d := Generate(gb, 1, nil)
		least := int64(1 << 62)
		for i := 0; i < 3; i++ {
			// Two collections each: the first only moves sync.Pool
			// contents to their victim caches.
			var before, after runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)
			sys := deepsea.New()
			if err := Load(sys, d); err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(sys)
			least = min(least, int64(after.HeapAlloc)-int64(before.HeapAlloc))
		}
		runtime.KeepAlive(d)
		return least
	}
	small, large := retained(50), retained(200)
	t.Logf("New + Load retains %d B at 50 GB, %d B at 200 GB", small, large)
	if large-small > 128<<10 {
		t.Errorf("New + Load retains %d B at 50 GB and %d B at 200 GB: the System holds per-row state", small, large)
	}
}

// TestLoadAllocations holds that Load hands rows over instead of
// rebuilding them: booting a System over a 50 GB instance allocates a
// bounded number of objects, not several per row.
func TestLoadAllocations(t *testing.T) {
	d := Generate(50, 1, nil)
	allocs := testing.AllocsPerRun(5, func() {
		if err := Load(deepsea.New(), d); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 200 {
		t.Errorf("New + Load at 50 GB: %.0f allocations, want <= 200", allocs)
	}
}
