package signature

import (
	"testing"

	"deepsea/internal/interval"
	"deepsea/internal/query"
	"deepsea/internal/relation"
)

func salesSchema() relation.Schema {
	return relation.Schema{
		Name: "store_sales",
		Cols: []relation.Column{
			{Name: "ss_item_sk", Type: relation.Int, Ordered: true, Lo: 0, Hi: 1000},
			{Name: "ss_quantity", Type: relation.Int},
			{Name: "ss_price", Type: relation.Float},
		},
	}
}

func itemSchema() relation.Schema {
	return relation.Schema{
		Name: "item",
		Cols: []relation.Column{
			{Name: "i_item_sk", Type: relation.Int, Ordered: true, Lo: 0, Hi: 1000},
			{Name: "i_category", Type: relation.String},
		},
	}
}

// joinPlan builds join(store_sales, item) on item_sk.
func joinPlan() *query.Join {
	return &query.Join{
		Left:  query.NewScan("store_sales", salesSchema()),
		Right: query.NewScan("item", itemSchema()),
		LCol:  "ss_item_sk",
		RCol:  "i_item_sk",
	}
}

func TestSignatureOfScan(t *testing.T) {
	s := Of(query.NewScan("store_sales", salesSchema()))
	if len(s.Relations) != 1 || s.Relations[0] != "store_sales" {
		t.Errorf("Relations = %v", s.Relations)
	}
	if len(s.Output) != 3 {
		t.Errorf("Output = %v", s.Output)
	}
	if s.HasAgg {
		t.Error("scan signature claims aggregation")
	}
}

func TestSignatureJoinOrderIndependence(t *testing.T) {
	a := Of(joinPlan())
	b := Of(&query.Join{
		Left:  query.NewScan("item", itemSchema()),
		Right: query.NewScan("store_sales", salesSchema()),
		LCol:  "i_item_sk",
		RCol:  "ss_item_sk",
	})
	if a.FamilyKey() != b.FamilyKey() {
		t.Errorf("join order changed family key:\n%s\n%s", a.FamilyKey(), b.FamilyKey())
	}
}

func TestSignatureRangeIntersection(t *testing.T) {
	inner := &query.Select{Child: joinPlan(),
		Ranges: []query.RangePred{{Col: "ss_item_sk", Iv: interval.New(0, 500)}}}
	outer := &query.Select{Child: inner,
		Ranges: []query.RangePred{{Col: "ss_item_sk", Iv: interval.New(200, 800)}}}
	s := Of(outer)
	if got := s.Ranges["ss_item_sk"]; got != interval.New(200, 500) {
		t.Errorf("intersected range = %v, want [200,500]", got)
	}
}

func TestKeyDistinguishesRanges(t *testing.T) {
	a := Of(&query.Select{Child: joinPlan(),
		Ranges: []query.RangePred{{Col: "ss_item_sk", Iv: interval.New(0, 10)}}})
	b := Of(&query.Select{Child: joinPlan(),
		Ranges: []query.RangePred{{Col: "ss_item_sk", Iv: interval.New(0, 20)}}})
	if a.Key() == b.Key() {
		t.Error("signatures with different ranges share a key")
	}
	if a.FamilyKey() != b.FamilyKey() {
		t.Error("signatures with different ranges should share a family")
	}
}

func TestMatchIdenticalJoin(t *testing.T) {
	v := Of(joinPlan())
	q := Of(joinPlan())
	comp, ok := Match(v, q)
	if !ok {
		t.Fatal("identical joins did not match")
	}
	if len(comp.Ranges) != 0 || len(comp.Residuals) != 0 || comp.Project != nil {
		t.Errorf("unexpected compensation: %+v", comp)
	}
}

func TestMatchSelectionOverView(t *testing.T) {
	v := Of(joinPlan())
	q := Of(&query.Select{Child: joinPlan(),
		Ranges: []query.RangePred{{Col: "ss_item_sk", Iv: interval.New(100, 200)}}})
	comp, ok := Match(v, q)
	if !ok {
		t.Fatal("selection over join did not match unrestricted join view")
	}
	if len(comp.Ranges) != 1 || comp.Ranges[0].Col != "ss_item_sk" ||
		comp.Ranges[0].Iv != interval.New(100, 200) {
		t.Errorf("compensation ranges = %v", comp.Ranges)
	}
}

func TestMatchViewRangeContainsQueryRange(t *testing.T) {
	v := Of(&query.Select{Child: joinPlan(),
		Ranges: []query.RangePred{{Col: "ss_item_sk", Iv: interval.New(0, 500)}}})
	q := Of(&query.Select{Child: joinPlan(),
		Ranges: []query.RangePred{{Col: "ss_item_sk", Iv: interval.New(100, 200)}}})
	comp, ok := Match(v, q)
	if !ok {
		t.Fatal("containing view range did not match")
	}
	if len(comp.Ranges) != 1 || comp.Ranges[0].Iv != interval.New(100, 200) {
		t.Errorf("compensation = %v", comp.Ranges)
	}
}

func TestMatchRejectsNarrowerView(t *testing.T) {
	v := Of(&query.Select{Child: joinPlan(),
		Ranges: []query.RangePred{{Col: "ss_item_sk", Iv: interval.New(100, 200)}}})
	q := Of(&query.Select{Child: joinPlan(),
		Ranges: []query.RangePred{{Col: "ss_item_sk", Iv: interval.New(0, 500)}}})
	if _, ok := Match(v, q); ok {
		t.Error("narrower view matched wider query")
	}
}

func TestMatchViewRangeEqualsDomain(t *testing.T) {
	// A view restricted to the full domain is equivalent to no restriction.
	v := Of(&query.Select{Child: joinPlan(),
		Ranges: []query.RangePred{{Col: "ss_item_sk", Iv: interval.New(0, 1000)}}})
	q := Of(joinPlan())
	if _, ok := Match(v, q); !ok {
		t.Error("domain-wide view range did not match unrestricted query")
	}
}

func TestMatchRejectsDifferentRelations(t *testing.T) {
	v := Of(query.NewScan("store_sales", salesSchema()))
	q := Of(query.NewScan("item", itemSchema()))
	if _, ok := Match(v, q); ok {
		t.Error("different relations matched")
	}
}

func TestMatchProjectionCompensation(t *testing.T) {
	v := Of(joinPlan())
	q := Of(&query.Project{Child: joinPlan(), Cols: []string{"ss_item_sk", "i_category"}})
	comp, ok := Match(v, q)
	if !ok {
		t.Fatal("projection over join did not match join view")
	}
	if len(comp.Project) != 2 || comp.Project[0] != "ss_item_sk" {
		t.Errorf("compensation projection = %v", comp.Project)
	}
}

func TestMatchRejectsMissingOutput(t *testing.T) {
	v := Of(&query.Project{Child: joinPlan(), Cols: []string{"i_category"}})
	q := Of(&query.Project{Child: joinPlan(), Cols: []string{"ss_item_sk"}})
	if _, ok := Match(v, q); ok {
		t.Error("view lacking required output matched")
	}
}

func TestMatchRangeCompensationNeedsColumn(t *testing.T) {
	// View projects away ss_item_sk; query restricts it: no match.
	v := Of(&query.Project{Child: joinPlan(), Cols: []string{"i_category"}})
	q := Of(&query.Select{
		Child:  &query.Project{Child: joinPlan(), Cols: []string{"i_category"}},
		Ranges: []query.RangePred{{Col: "ss_item_sk", Iv: interval.New(0, 10)}}})
	if _, ok := Match(v, q); ok {
		t.Error("range compensation on projected-away column matched")
	}
}

func TestMatchResidualSubset(t *testing.T) {
	pred := query.CmpPred{Col: "i_category", Op: query.Eq,
		Val: relation.StringVal("books"), Typ: relation.String}
	v := Of(joinPlan())
	q := Of(&query.Select{Child: joinPlan(), Residuals: []query.CmpPred{pred}})
	comp, ok := Match(v, q)
	if !ok {
		t.Fatal("residual compensation failed")
	}
	if len(comp.Residuals) != 1 || comp.Residuals[0].Col != "i_category" {
		t.Errorf("compensation residuals = %v", comp.Residuals)
	}
	// Reverse direction: view has residual the query lacks -> reject.
	if _, ok := Match(q, v); ok {
		t.Error("view with extra residual matched unrestricted query")
	}
}

func aggPlan(iv interval.Interval) *query.Aggregate {
	return &query.Aggregate{
		Child: &query.Select{Child: joinPlan(),
			Ranges: []query.RangePred{{Col: "ss_item_sk", Iv: iv}}},
		GroupBy: []string{"i_category"},
		Aggs:    []query.AggSpec{{Func: query.Sum, Col: "ss_price", As: "total"}},
	}
}

func TestMatchAggregateShape(t *testing.T) {
	v := Of(aggPlan(interval.New(0, 1000)))
	q := Of(aggPlan(interval.New(0, 1000)))
	if _, ok := Match(v, q); !ok {
		t.Error("identical aggregates did not match")
	}
	// Aggregate view vs plain join query must not match.
	if _, ok := Match(v, Of(joinPlan())); ok {
		t.Error("aggregate view matched non-aggregate query")
	}
	if _, ok := Match(Of(joinPlan()), v); ok {
		t.Error("join view matched aggregate query")
	}
}

func TestMatchAggregateRangeCompensationRejected(t *testing.T) {
	// ss_item_sk is not in the aggregate's output (group-by is
	// i_category), so a narrower query range cannot be compensated.
	v := Of(aggPlan(interval.New(0, 1000)))
	q := Of(aggPlan(interval.New(100, 200)))
	if _, ok := Match(v, q); ok {
		t.Error("uncompensatable post-aggregation range matched")
	}
}

func TestMatchAggregateDifferentGroupBy(t *testing.T) {
	v := Of(&query.Aggregate{Child: joinPlan(), GroupBy: []string{"i_category"},
		Aggs: []query.AggSpec{{Func: query.Count, As: "n"}}})
	q := Of(&query.Aggregate{Child: joinPlan(), GroupBy: []string{"ss_item_sk"},
		Aggs: []query.AggSpec{{Func: query.Count, As: "n"}}})
	if _, ok := Match(v, q); ok {
		t.Error("different group-by lists matched")
	}
}

func TestKeyDistinguishesAggregates(t *testing.T) {
	a := Of(&query.Aggregate{Child: joinPlan(), GroupBy: []string{"i_category"},
		Aggs: []query.AggSpec{{Func: query.Sum, Col: "ss_price", As: "x"}}})
	b := Of(&query.Aggregate{Child: joinPlan(), GroupBy: []string{"i_category"},
		Aggs: []query.AggSpec{{Func: query.Avg, Col: "ss_price", As: "x"}}})
	if a.Key() == b.Key() {
		t.Error("different aggregate functions share a key")
	}
	if a.FamilyKey() == b.FamilyKey() {
		t.Error("different aggregate functions share a family")
	}
}

func TestKeyDistinguishesResiduals(t *testing.T) {
	p1 := query.CmpPred{Col: "i_category", Op: query.Eq,
		Val: relation.StringVal("books"), Typ: relation.String}
	p2 := query.CmpPred{Col: "i_category", Op: query.Eq,
		Val: relation.StringVal("music"), Typ: relation.String}
	a := Of(&query.Select{Child: joinPlan(), Residuals: []query.CmpPred{p1}})
	b := Of(&query.Select{Child: joinPlan(), Residuals: []query.CmpPred{p2}})
	if a.Key() == b.Key() {
		t.Error("different residual constants share a key")
	}
}

func TestKeyDistinguishesProjections(t *testing.T) {
	a := Of(&query.Project{Child: joinPlan(), Cols: []string{"ss_item_sk"}})
	b := Of(&query.Project{Child: joinPlan(), Cols: []string{"ss_item_sk", "i_category"}})
	if a.Key() == b.Key() {
		t.Error("different projections share a key")
	}
	// Projections share the family (ranges/output differ, shape does not).
	if a.FamilyKey() != b.FamilyKey() {
		t.Error("projections of the same join should share a family")
	}
}

func TestMatchSelfIsIdentity(t *testing.T) {
	// Every signature must match itself with empty compensation.
	plans := []query.Node{
		joinPlan(),
		&query.Select{Child: joinPlan(),
			Ranges: []query.RangePred{{Col: "ss_item_sk", Iv: interval.New(5, 9)}}},
		&query.Project{Child: joinPlan(), Cols: []string{"i_category"}},
		aggPlan(interval.New(0, 1000)),
	}
	for i, p := range plans {
		s := Of(p)
		comp, ok := Match(s, Of(p))
		if !ok {
			t.Errorf("plan %d does not match itself", i)
			continue
		}
		if len(comp.Ranges)+len(comp.Residuals) != 0 || comp.Project != nil {
			t.Errorf("plan %d self-match has compensation %+v", i, comp)
		}
	}
}

// TestAggregateModeIsPartOfIdentity: a partial-mode aggregate emits
// accumulator states under other column names, so it shares neither a
// key, a family nor a match with its full-mode twin — while the
// full-mode key stays the string it was before signatures carried the
// mode, so stored pools and journals keep their view ids.
func TestAggregateModeIsPartOfIdentity(t *testing.T) {
	full, partial := aggPlan(interval.New(0, 1000)), aggPlan(interval.New(0, 1000))
	partial.Partial = true
	f, p := Of(full), Of(partial)
	const fullKey = "R{item,store_sales}J{i_item_sk=ss_item_sk}S{ss_item_sk:[0,1000]}P{}O{i_category,total}G{i_category}A{sum(ss_price) as total}"
	if f.Key() != fullKey {
		t.Errorf("full-mode key moved:\n got %s\nwant %s", f.Key(), fullKey)
	}
	if f.Key() == p.Key() || f.FamilyKey() == p.FamilyKey() {
		t.Error("the two modes share a key or a family")
	}
	if _, ok := Match(f, p); ok {
		t.Error("full-mode view matched the partial-mode query")
	}
	if _, ok := Match(p, f); ok {
		t.Error("partial-mode view matched the full-mode query")
	}
	if _, ok := Match(p, Of(partial)); !ok {
		t.Error("identical partial-mode aggregates did not match")
	}
	if got := p.Output; len(got) != 2 || got[1] != "total#"+query.PartialSum {
		t.Errorf("partial-mode output columns = %v, want the state columns of its schema", got)
	}
}
