package engine

import (
	"testing"

	"deepsea/internal/query"
	"deepsea/internal/relation"
)

// testEngineSplit builds two engines that together hold exactly the
// rows of testEngine's sales table (split by row parity), each with the
// full item dimension — the shape of two range shards over one dataset.
func testEngineSplit() (*Engine, *Engine) {
	mk := func(keep func(i int) bool) *Engine {
		e := New(DefaultCostModel())
		sales := relation.NewTable(salesSchema())
		for i := 0; i < 1000; i++ {
			if !keep(i) {
				continue
			}
			sales.Append(relation.Row{
				relation.IntVal(int64(i % 100)),
				relation.IntVal(int64(i%7 + 1)),
				relation.FloatVal(float64(i%10) + 0.5),
			})
		}
		e.AddBaseTable(sales)
		item := relation.NewTable(itemSchema())
		cats := []string{"books", "music", "video", "games"}
		for i := 0; i < 100; i++ {
			item.Append(relation.Row{
				relation.IntVal(int64(i)),
				relation.StringVal(cats[i%len(cats)]),
			})
		}
		e.AddBaseTable(item)
		return e
	}
	return mk(func(i int) bool { return i%2 == 0 }), mk(func(i int) bool { return i%2 == 1 })
}

func partialAggPlan(partial bool) *query.Aggregate {
	return &query.Aggregate{
		Child:   joinPlan(),
		GroupBy: []string{"i_category"},
		Partial: partial,
		Aggs: []query.AggSpec{
			{Func: query.Count, As: "n"},
			{Func: query.Sum, Col: "ss_qty", As: "total_qty"},
			{Func: query.Avg, Col: "ss_price", As: "avg_price"},
			{Func: query.Min, Col: "ss_item_sk", As: "min_sk"},
			{Func: query.Max, Col: "ss_item_sk", As: "max_sk"},
		},
	}
}

// TestPartialAggregateMergesToFull runs the partial-mode aggregate on
// two disjoint halves of the dataset, merges the emitted states by
// group, and checks the merged result matches the full-mode aggregate
// over the whole dataset. The test inputs are binary-exact (ints and
// halves), so even the full engine's plain float fold is exact and the
// comparison can demand equality rather than tolerance.
func TestPartialAggregateMergesToFull(t *testing.T) {
	whole := testEngine()
	full := mustRun(t, whole, partialAggPlan(false)).Table

	left, right := testEngineSplit()
	type state struct {
		count    int64
		sums     []string // one encoding per shard, per summed agg
		avgSums  []string
		avgN     int64
		min, max int64
	}
	merged := map[string]*state{}
	for _, e := range []*Engine{left, right} {
		part := mustRun(t, e, partialAggPlan(true)).Table
		sch := part.Schema
		for _, row := range part.Rows {
			cat := row[sch.ColIndex("i_category")].Str()
			st := merged[cat]
			if st == nil {
				st = &state{min: 1 << 60, max: -(1 << 60)}
				merged[cat] = st
			}
			st.count += row[sch.ColIndex("n#count")].Int()
			st.sums = append(st.sums, row[sch.ColIndex("total_qty#sum")].Str())
			st.avgSums = append(st.avgSums, row[sch.ColIndex("avg_price#avg.sum")].Str())
			st.avgN += row[sch.ColIndex("avg_price#avg.n")].Int()
			if v := row[sch.ColIndex("min_sk#min")].Int(); v < st.min {
				st.min = v
			}
			if v := row[sch.ColIndex("max_sk#max")].Int(); v > st.max {
				st.max = v
			}
		}
	}

	fsch := full.Schema
	if len(merged) != full.NumRows() {
		t.Fatalf("merged groups = %d, full groups = %d", len(merged), full.NumRows())
	}
	for _, row := range full.Rows {
		cat := row[fsch.ColIndex("i_category")].Str()
		st := merged[cat]
		if st == nil {
			t.Fatalf("group %q missing from merged result", cat)
		}
		if st.count != row[fsch.ColIndex("n")].Int() {
			t.Errorf("%s: count %d != %d", cat, st.count, row[fsch.ColIndex("n")].Int())
		}
		_, sum, err := MergePartialSums(st.sums...)
		if err != nil {
			t.Fatal(err)
		}
		if want := row[fsch.ColIndex("total_qty")].Float(); sum != want {
			t.Errorf("%s: sum %v != %v", cat, sum, want)
		}
		_, avgSum, err := MergePartialSums(st.avgSums...)
		if err != nil {
			t.Fatal(err)
		}
		if want := row[fsch.ColIndex("avg_price")].Float(); avgSum/float64(st.avgN) != want {
			t.Errorf("%s: avg %v != %v", cat, avgSum/float64(st.avgN), want)
		}
		if st.min != row[fsch.ColIndex("min_sk")].Int() || st.max != row[fsch.ColIndex("max_sk")].Int() {
			t.Errorf("%s: min/max %d/%d != %d/%d", cat, st.min, st.max,
				row[fsch.ColIndex("min_sk")].Int(), row[fsch.ColIndex("max_sk")].Int())
		}
	}
}

// TestPartialDistinctFingerprint guards the cache-safety rule: a
// partial-mode plan must never share a fingerprint or template with its
// full-mode twin, or result caches would serve one for the other.
func TestPartialDistinctFingerprint(t *testing.T) {
	full, part := partialAggPlan(false), partialAggPlan(true)
	if query.Fingerprint(full) == query.Fingerprint(part) {
		t.Error("partial and full plans share a fingerprint")
	}
	if query.TemplateFingerprint(full) == query.TemplateFingerprint(part) {
		t.Error("partial and full plans share a template fingerprint")
	}
}
