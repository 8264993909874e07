package workload

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"

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

// TestLoadSharesRowsAndNeverWritesThem holds the contract that lets Load
// hand the generator's rows to a System by reference: materializing
// views and fragments, refining them, caching answers, appending and
// refreshing never write a base row's cells, and the shared rows answer
// exactly like rows the System built itself.
func TestLoadSharesRowsAndNeverWritesThem(t *testing.T) {
	d := Generate(50, 1, nil)
	before := make(map[string]string, len(d.Tables))
	for name, tbl := range d.Tables {
		before[name] = tbl.Fingerprint()
	}
	opts := []deepsea.Option{
		deepsea.WithPoolLimit(d.TotalBytes() / 10),
		deepsea.WithResultCache(64 << 20),
	}
	shared := deepsea.New(opts...)
	if err := Load(shared, d); err != nil {
		t.Fatal(err)
	}
	copied := deepsea.New(opts...)
	insertRowByRow(t, copied, d)

	ranges := Ranges(30, 0.05, Light, ItemSkDomain(), rand.New(rand.NewSource(7)))
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

	for name, tbl := range d.Tables {
		if got := tbl.Fingerprint(); got != before[name] {
			t.Errorf("table %s: the generator's rows changed after Load", name)
		}
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
