package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"deepsea/internal/query"
	"deepsea/internal/relation"
)

// These tests build independent query families — per-family sales/item
// table pairs with disjoint names — so each family's candidate views,
// and therefore the scope of its maintenance, is disjoint from every
// other family's.

func famSalesSchema(name string) relation.Schema {
	s := salesSchema()
	s.Name = name
	return s
}

func famItemSchema(name string) relation.Schema {
	s := itemSchema()
	s.Name = name
	return s
}

func addFamilyTables(d *DeepSea, fam string, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	sales := relation.NewTable(famSalesSchema("sales_" + fam))
	for i := 0; i < 8000; i++ {
		sales.Append(relation.Row{
			relation.IntVal(rng.Int63n(testDomHi + 1)),
			relation.IntVal(rng.Int63n(50) + 1),
			relation.StringVal(""),
		})
	}
	d.AddBaseTable(sales)
	item := relation.NewTable(famItemSchema("item_" + fam))
	cats := []string{"books", "music", "video", "games", "food"}
	for i := 0; i <= testDomHi; i++ {
		item.Append(relation.Row{
			relation.IntVal(int64(i)),
			relation.StringVal(cats[i%len(cats)]),
		})
	}
	d.AddBaseTable(item)
}

// famQ is q30 over one family's tables.
func famQ(fam string, lo, hi int64) query.Node {
	q := q30(lo, hi)
	j := q.(*query.Aggregate).Child.(*query.Select).Child.(*query.Project).Child.(*query.Join)
	j.Left = query.NewScan("sales_"+fam, famSalesSchema("sales_"+fam))
	j.Right = query.NewScan("item_"+fam, famItemSchema("item_"+fam))
	return q
}

// newFamilySystem builds a DeepSea instance holding every family's
// tables.
func newFamilySystem(t *testing.T, fams []string) *DeepSea {
	t.Helper()
	d := New(testConfig())
	for i, fam := range fams {
		addFamilyTables(d, fam, int64(11+i))
	}
	return d
}

// TestConcurrentWorkloadMatchesSerial runs the same mixed two-family
// workload serially and concurrently (one goroutine per family) on
// fresh instances and demands byte-identical per-query results, a
// mutating first query per family and consistent pool accounting — the
// determinism contract of the manager under concurrent callers.
func TestConcurrentWorkloadMatchesSerial(t *testing.T) {
	fams := []string{"x", "y"}
	const perFam = 12
	type qr struct{ lo, hi int64 }
	rng := rand.New(rand.NewSource(42))
	queries := make(map[string][]qr)
	for _, fam := range fams {
		for i := 0; i < perFam; i++ {
			width := rng.Int63n(2500) + 200
			lo := rng.Int63n(testDomHi - width)
			queries[fam] = append(queries[fam], qr{lo, lo + width})
		}
	}

	serial := newFamilySystem(t, fams)
	want := make(map[string][]string)
	for _, fam := range fams {
		for _, q := range queries[fam] {
			want[fam] = append(want[fam], run(t, serial, famQ(fam, q.lo, q.hi)).Result.Fingerprint())
		}
	}

	d := newFamilySystem(t, fams)
	var wg sync.WaitGroup
	errCh := make(chan error, len(fams)*perFam)
	for _, fam := range fams {
		wg.Add(1)
		go func(fam string) {
			defer wg.Done()
			for i, q := range queries[fam] {
				rep, err := d.ProcessQuery(famQ(fam, q.lo, q.hi))
				if err != nil {
					errCh <- fmt.Errorf("family %s query %d: %w", fam, i, err)
					return
				}
				if rep.Result.Fingerprint() != want[fam][i] {
					t.Errorf("family %s query %d: concurrent result differs from serial", fam, i)
				}
				if i == 0 && len(rep.MaterializedViews) == 0 {
					t.Errorf("family %s: first query did not materialize (not a mutating query)", fam)
				}
			}
		}(fam)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if err := d.Pool.VerifySize(); err != nil {
		t.Error(err)
	}
	if fs, pool := d.Eng.StoredBytes(), d.Pool.TotalSize(); fs != pool {
		t.Errorf("FS size %d != pool size %d", fs, pool)
	}
}

// TestMaintenanceViewsSortedDeduped pins the canonical order of a
// query's maintenance views: sorted by id, no duplicates.
func TestMaintenanceViewsSortedDeduped(t *testing.T) {
	d := newTestSystem(t, nil)
	var got [][]string
	d.OnMaintain = func(ids []string, enter bool) {
		if enter {
			got = append(got, append([]string(nil), ids...))
		}
	}
	run(t, d, q30(100, 600))
	run(t, d, q30(2000, 2500))
	if len(got) != 2 {
		t.Fatalf("expected 2 maintenance sections, saw %d", len(got))
	}
	for _, ids := range got {
		if len(ids) == 0 {
			t.Fatal("no maintenance views for a materializing query")
		}
		seen := make(map[string]bool)
		for i, id := range ids {
			if i > 0 && !(ids[i-1] < id) {
				t.Errorf("maintenance views not strictly sorted: %v", ids)
				break
			}
			if seen[id] {
				t.Errorf("duplicate id %s in maintenance views", id)
			}
			seen[id] = true
		}
	}
}
