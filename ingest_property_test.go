package deepsea_test

// Property tests for the batched append path: for EVERY workload
// template, delta-refresh after Append must produce results
// byte-identical to rematerializing from scratch — including deltas
// that are entirely filtered out by the view's selection range, appends
// that leave a template's delta empty (rows for an unrelated fact
// table), and deltas that land new join partners on the dimension side.
// The identity must hold regardless of which path the engine takes
// (incremental refresh, empty-delta fast path, or drop-and-recompute).

import (
	"encoding/json"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"deepsea"
	"deepsea/internal/workload"
)

var propData = workload.Generate(1, 1, nil)

// propFactOf maps a template to the fact table its selection ranges
// over — the table whose appends feed its delta.
func propFactOf(t workload.Template) string {
	switch t.SelectionAttr() {
	case "wcs_item_sk":
		return "web_clickstream"
	case "pr_item_sk":
		return "product_reviews"
	default:
		return "store_sales"
	}
}

// propOtherFact picks a fact table the template does not read.
func propOtherFact(t workload.Template) string {
	if propFactOf(t) == "product_reviews" {
		return "store_sales"
	}
	return "product_reviews"
}

// propCanon renders a report order-insensitively.
func propCanon(t *testing.T, rep deepsea.Report) string {
	t.Helper()
	lines := make([]string, 0, len(rep.Rows()))
	for _, row := range rep.Rows() {
		b, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(b))
	}
	sort.Strings(lines)
	return strings.Join(rep.Columns(), ",") + "\n" + strings.Join(lines, "\n")
}

// propFactRow builds one deterministic valid row for a fact table with
// the given item key.
func propFactRow(fact string, key int64, i int) []any {
	switch fact {
	case "web_clickstream":
		return []any{key, int64(i % 200), int64(i % 3651), ""}
	case "product_reviews":
		return []any{key, int64(i % 200), float64(i%41)/10 + 1, ""}
	default:
		return []any{key, int64(i % 200), int64(i % 20), int64(i%20 + 1),
			float64(i%50000) / 100, int64(i % 3651), ""}
	}
}

// propCheck applies the same appends to a warmed system (views
// materialized, refreshed incrementally) and to a cold reference
// (views never built — every answer recomputed from the appended base)
// and demands identical bytes for the template's query. It returns the
// warmed system's ingest counters.
func propCheck(t *testing.T, tpl workload.Template, lo, hi int64, appends []workload.TraceAppend) deepsea.IngestStats {
	t.Helper()
	q := workload.BuildQuery(tpl, lo, hi)

	warm := deepsea.New(deepsea.WithPoolLimit(1 << 30))
	if err := workload.Load(warm, propData); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		if _, err := warm.Run(q); err != nil {
			t.Fatal(err)
		}
	}

	cold := deepsea.New(deepsea.WithoutMaterialization())
	if err := workload.Load(cold, propData); err != nil {
		t.Fatal(err)
	}

	for _, b := range appends {
		if _, err := warm.Append(b.Table, b.Rows); err != nil {
			t.Fatalf("warm append %s: %v", b.Table, err)
		}
		if _, err := cold.Append(b.Table, b.Rows); err != nil {
			t.Fatalf("cold append %s: %v", b.Table, err)
		}
	}

	warmRep, err := warm.Run(q)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	coldRep, err := cold.Run(q)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if got, want := propCanon(t, warmRep), propCanon(t, coldRep); got != want {
		t.Errorf("delta-refreshed result differs from scratch rematerialization\ngot:\n%s\nwant:\n%s", got, want)
	}
	return warm.IngestStats()
}

// TestDeltaRefreshEqualsRematAllTemplates is the headline property over
// a spread delta: held-out rows across the whole domain, so every
// template's filter/project/join/aggregate shape sees a non-trivial
// delta — which every template must take incrementally, never by
// dropping the view.
func TestDeltaRefreshEqualsRematAllTemplates(t *testing.T) {
	for _, tpl := range workload.AllTemplates {
		t.Run(tpl.String(), func(t *testing.T) {
			fact := propFactOf(tpl)
			appends := []workload.TraceAppend{
				{Table: fact, Rows: propData.AppendRows(fact, 60, 11, nil)},
				{Table: fact, Rows: propData.AppendRows(fact, 40, 12, nil)},
			}
			st := propCheck(t, tpl, workload.ItemSkLo, workload.ItemSkHi, appends)
			if st.Refreshes == 0 || st.Drops != 0 {
				t.Errorf("spread delta not applied incrementally: %d refreshes, %d drops", st.Refreshes, st.Drops)
			}
		})
	}
}

// TestDeltaRefreshAllRowsFiltered appends rows whose keys all fall
// outside the view's selection range: the per-view delta survives the
// base-table filter with zero rows, and the refreshed view must still
// answer identically to scratch.
func TestDeltaRefreshAllRowsFiltered(t *testing.T) {
	// ItemKeys are evenly spread; restrict the sampler to keys above
	// 300000 while the probed view covers [100000, 200000].
	n := len(propData.ItemKeys)
	cut := sort.Search(n, func(i int) bool { return propData.ItemKeys[i] > 300000 })
	outside := func(rng *rand.Rand, n int) int { return cut + rng.Intn(n-cut) }
	for _, tpl := range workload.AllTemplates {
		t.Run(tpl.String(), func(t *testing.T) {
			fact := propFactOf(tpl)
			appends := []workload.TraceAppend{
				{Table: fact, Rows: propData.AppendRows(fact, 50, 21, outside)},
			}
			propCheck(t, tpl, 100000, 200000, appends)
		})
	}
}

// TestDeltaRefreshEmptyDelta appends rows to a fact table the template
// never reads: its views are untouched by the marking pass, and the
// result must equal both the scratch answer and the pre-append answer.
func TestDeltaRefreshEmptyDelta(t *testing.T) {
	for _, tpl := range workload.AllTemplates {
		t.Run(tpl.String(), func(t *testing.T) {
			other := propOtherFact(tpl)
			q := workload.BuildQuery(tpl, workload.ItemSkLo, workload.ItemSkHi)
			warm := deepsea.New(deepsea.WithPoolLimit(1 << 30))
			if err := workload.Load(warm, propData); err != nil {
				t.Fatal(err)
			}
			var before string
			for round := 0; round < 2; round++ {
				rep, err := warm.Run(q)
				if err != nil {
					t.Fatal(err)
				}
				before = propCanon(t, rep)
			}
			if _, err := warm.Append(other, propData.AppendRows(other, 40, 31, nil)); err != nil {
				t.Fatal(err)
			}
			rep, err := warm.Run(q)
			if err != nil {
				t.Fatal(err)
			}
			if got := propCanon(t, rep); got != before {
				t.Errorf("append to unrelated table %s changed the result", other)
			}
		})
	}
}

// TestDeltaRefreshNewJoinPartners appends new dimension rows (item keys
// that did not exist) plus fact rows referencing them: the delta-join
// must pick up the new partners on both sides.
func TestDeltaRefreshNewJoinPartners(t *testing.T) {
	for _, tpl := range workload.AllTemplates {
		t.Run(tpl.String(), func(t *testing.T) {
			fact := propFactOf(tpl)
			// ItemKeys are multiples of the domain step; odd keys are new.
			newKeys := []int64{100001, 200003, 300005}
			items := make([][]any, len(newKeys))
			for i, k := range newKeys {
				items[i] = []any{k, int64(i % 10), "books", 19.99, ""}
			}
			factRows := make([][]any, 0, 3*len(newKeys))
			for i, k := range newKeys {
				for j := 0; j < 3; j++ {
					factRows = append(factRows, propFactRow(fact, k, 3*i+j))
				}
			}
			appends := []workload.TraceAppend{
				{Table: "item", Rows: items},
				{Table: fact, Rows: factRows},
			}
			propCheck(t, tpl, workload.ItemSkLo, workload.ItemSkHi, appends)
		})
	}
}

// TestSteadyStateRefreshSublinearInBase: once a view's refresh state is
// primed, refreshing it for a small append costs simulated seconds that
// do not scale with the base — the same five 50-row batches over a
// store_sales ~4x larger cost at most 2x.
func TestSteadyStateRefreshSublinearInBase(t *testing.T) {
	steady := func(grow bool) float64 {
		sys := deepsea.New(deepsea.WithPoolLimit(1 << 30))
		if err := workload.Load(sys, propData); err != nil {
			t.Fatal(err)
		}
		if grow {
			base := propData.Tables["store_sales"].NumRows()
			if _, err := sys.Append("store_sales", propData.AppendRows("store_sales", 3*base, 99, nil)); err != nil {
				t.Fatal(err)
			}
		}
		for round := 0; round < 2; round++ {
			for _, tpl := range []workload.Template{workload.Q1, workload.Q16, workload.Q30} {
				if _, err := sys.Run(workload.BuildQuery(tpl, workload.ItemSkLo, workload.ItemSkHi)); err != nil {
					t.Fatal(err)
				}
			}
		}
		// The priming append pays the one-time, linear refresh-state
		// build; only the appends after it are steady state.
		var before deepsea.IngestStats
		for i := int64(0); i < 6; i++ {
			if _, err := sys.Append("store_sales", propData.AppendRows("store_sales", 50, 100+i, nil)); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				before = sys.IngestStats()
			}
		}
		after := sys.IngestStats()
		if after.Primes != before.Primes {
			t.Fatalf("measured appends primed refresh state (%d -> %d)", before.Primes, after.Primes)
		}
		return after.RefreshSeconds - before.RefreshSeconds
	}
	small, big := steady(false), steady(true)
	if small <= 0 || big > 2*small {
		t.Errorf("steady-state refresh: %.4fs on the 1x base, %.4fs on the ~4x base; want 0 < small and big <= 2*small", small, big)
	}
}
