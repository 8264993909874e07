package engine

import (
	"math"
	"testing"

	"deepsea/internal/interval"
	"deepsea/internal/query"
	"deepsea/internal/relation"
)

func salesSchema() relation.Schema {
	return relation.Schema{
		Name: "sales",
		Cols: []relation.Column{
			{Name: "ss_item_sk", Type: relation.Int, Ordered: true, Lo: 0, Hi: 99},
			{Name: "ss_qty", Type: relation.Int},
			{Name: "ss_price", Type: relation.Float},
		},
	}
}

func itemSchema() relation.Schema {
	return relation.Schema{
		Name: "item",
		Cols: []relation.Column{
			{Name: "i_item_sk", Type: relation.Int, Ordered: true, Lo: 0, Hi: 99},
			{Name: "i_category", Type: relation.String},
		},
	}
}

// testEngine returns an engine with a 1000-row sales table (item_sk
// cycling 0..99) and a 100-row item dimension.
func testEngine() *Engine {
	e := New(DefaultCostModel())
	sales := relation.NewTable(salesSchema())
	for i := 0; i < 1000; i++ {
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

func joinPlan() *query.Join {
	return &query.Join{
		Left:  query.NewScan("sales", salesSchema()),
		Right: query.NewScan("item", itemSchema()),
		LCol:  "ss_item_sk",
		RCol:  "i_item_sk",
	}
}

func mustRun(t *testing.T, e *Engine, plan query.Node) Result {
	t.Helper()
	res, err := e.Run(plan, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestScanExecution(t *testing.T) {
	e := testEngine()
	res := mustRun(t, e, query.NewScan("sales", salesSchema()))
	if res.Table.NumRows() != 1000 {
		t.Errorf("scan rows = %d, want 1000", res.Table.NumRows())
	}
	if res.Cost.ReadBytes != e.BaseTable("sales").Bytes() {
		t.Errorf("read bytes = %d, want %d", res.Cost.ReadBytes, e.BaseTable("sales").Bytes())
	}
	if res.Cost.Seconds <= 0 {
		t.Error("scan cost must be positive")
	}
}

func TestUnknownTableError(t *testing.T) {
	e := testEngine()
	if _, err := e.Run(query.NewScan("nope", salesSchema()), nil); err == nil {
		t.Error("scan of unknown table did not error")
	}
}

func TestSelectExecution(t *testing.T) {
	e := testEngine()
	plan := &query.Select{
		Child:  query.NewScan("sales", salesSchema()),
		Ranges: []query.RangePred{{Col: "ss_item_sk", Iv: interval.New(10, 19)}},
	}
	res := mustRun(t, e, plan)
	if res.Table.NumRows() != 100 {
		t.Errorf("filtered rows = %d, want 100", res.Table.NumRows())
	}
	for _, row := range res.Table.Rows {
		if row[0].Int() < 10 || row[0].Int() > 19 {
			t.Fatalf("row outside range: %v", row)
		}
	}
}

func TestResidualSelect(t *testing.T) {
	e := testEngine()
	plan := &query.Select{
		Child: query.NewScan("item", itemSchema()),
		Residuals: []query.CmpPred{{
			Col: "i_category", Op: query.Eq,
			Val: relation.StringVal("books"), Typ: relation.String,
		}},
	}
	res := mustRun(t, e, plan)
	if res.Table.NumRows() != 25 {
		t.Errorf("rows = %d, want 25", res.Table.NumRows())
	}
}

func TestJoinExecutionMatchesNestedLoop(t *testing.T) {
	e := testEngine()
	res := mustRun(t, e, joinPlan())
	// Every sales row matches exactly one item row.
	if res.Table.NumRows() != 1000 {
		t.Errorf("join rows = %d, want 1000", res.Table.NumRows())
	}
	// Spot-check join correctness: joined category matches item table.
	sch := res.Table.Schema
	ci := sch.ColIndex("i_category")
	ki := sch.ColIndex("ss_item_sk")
	cats := []string{"books", "music", "video", "games"}
	for _, row := range res.Table.Rows {
		want := cats[row[ki].Int()%4]
		if row[ci].Str() != want {
			t.Fatalf("join mismatch: item %d category %q, want %q", row[ki].Int(), row[ci].Str(), want)
		}
	}
	if res.Cost.Jobs != 1 {
		t.Errorf("join jobs = %d, want 1", res.Cost.Jobs)
	}
}

func TestJoinBuildSideSymmetry(t *testing.T) {
	e := testEngine()
	a := mustRun(t, e, joinPlan())
	flipped := &query.Join{
		Left:  query.NewScan("item", itemSchema()),
		Right: query.NewScan("sales", salesSchema()),
		LCol:  "i_item_sk",
		RCol:  "ss_item_sk",
	}
	b := mustRun(t, e, flipped)
	if a.Table.NumRows() != b.Table.NumRows() {
		t.Errorf("join direction changed cardinality: %d vs %d",
			a.Table.NumRows(), b.Table.NumRows())
	}
}

func TestAggregateExecution(t *testing.T) {
	e := testEngine()
	plan := &query.Aggregate{
		Child:   joinPlan(),
		GroupBy: []string{"i_category"},
		Aggs: []query.AggSpec{
			{Func: query.Count, As: "n"},
			{Func: query.Sum, Col: "ss_qty", As: "total_qty"},
			{Func: query.Avg, Col: "ss_price", As: "avg_price"},
			{Func: query.Min, Col: "ss_item_sk", As: "min_sk"},
			{Func: query.Max, Col: "ss_item_sk", As: "max_sk"},
		},
	}
	res := mustRun(t, e, plan)
	if res.Table.NumRows() != 4 {
		t.Fatalf("groups = %d, want 4", res.Table.NumRows())
	}
	sch := res.Table.Schema
	var totalN int64
	for _, row := range res.Table.Rows {
		totalN += row[sch.ColIndex("n")].Int()
		if row[sch.ColIndex("total_qty")].Float() <= 0 {
			t.Error("sum must be positive")
		}
		avg := row[sch.ColIndex("avg_price")].Float()
		if avg < 0.5 || avg > 9.5 {
			t.Errorf("avg_price = %g out of range", avg)
		}
		if row[sch.ColIndex("min_sk")].Int() > row[sch.ColIndex("max_sk")].Int() {
			t.Error("min > max")
		}
	}
	if totalN != 1000 {
		t.Errorf("sum of counts = %d, want 1000", totalN)
	}
	if res.Cost.Jobs != 2 {
		t.Errorf("jobs = %d, want 2 (join + aggregate)", res.Cost.Jobs)
	}
}

func TestProjectExecution(t *testing.T) {
	e := testEngine()
	plan := &query.Project{Child: joinPlan(), Cols: []string{"i_category", "ss_price"}}
	res := mustRun(t, e, plan)
	if len(res.Table.Schema.Cols) != 2 {
		t.Fatalf("projected cols = %d, want 2", len(res.Table.Schema.Cols))
	}
	if res.Table.NumRows() != 1000 {
		t.Errorf("rows = %d, want 1000", res.Table.NumRows())
	}
}

// materializeJoinView runs the join, stores its result as a view and as a
// set of fragments partitioned on ss_item_sk, and returns the view table.
func materializeJoinView(t *testing.T, e *Engine, ivs []interval.Interval) *relation.Table {
	t.Helper()
	res := mustRun(t, e, joinPlan())
	view := res.Table
	if _, err := e.WriteMaterialized("views/j/full", view); err != nil {
		t.Fatal(err)
	}
	ai := view.Schema.ColIndex("ss_item_sk")
	for _, iv := range ivs {
		frag := relation.NewTable(view.Schema)
		for _, row := range view.Rows {
			if iv.Contains(row[ai].Int()) {
				frag.Append(row)
			}
		}
		if _, err := e.WriteMaterialized(fragPath(iv), frag); err != nil {
			t.Fatal(err)
		}
	}
	return view
}

func fragPath(iv interval.Interval) string {
	return "views/j/ss_item_sk/" + iv.String()
}

func TestViewScanUnpartitionedMatchesDirect(t *testing.T) {
	e := testEngine()
	materializeJoinView(t, e, nil)
	want := mustRun(t, e, &query.Select{
		Child:  joinPlan(),
		Ranges: []query.RangePred{{Col: "ss_item_sk", Iv: interval.New(20, 40)}},
	})
	vs := &query.ViewScan{
		ViewID:     "j",
		ViewPath:   "views/j/full",
		ViewSchema: joinPlan().Schema(),
		CompRanges: []query.RangePred{{Col: "ss_item_sk", Iv: interval.New(20, 40)}},
	}
	got := mustRun(t, e, vs)
	if got.Table.Fingerprint() != want.Table.Fingerprint() {
		t.Error("unpartitioned view scan result differs from direct execution")
	}
}

func TestViewScanFragmentsMatchDirect(t *testing.T) {
	e := testEngine()
	ivs := []interval.Interval{interval.New(0, 30), interval.New(31, 60), interval.New(61, 99)}
	materializeJoinView(t, e, ivs)
	queryIv := interval.New(25, 50)
	want := mustRun(t, e, &query.Select{
		Child:  joinPlan(),
		Ranges: []query.RangePred{{Col: "ss_item_sk", Iv: queryIv}},
	})
	idx, reads, full := interval.ClippedCover(queryIv, interval.Set(ivs))
	if !full {
		t.Fatal("expected full cover")
	}
	vs := &query.ViewScan{
		ViewID:     "j",
		ViewSchema: joinPlan().Schema(),
		PartAttr:   "ss_item_sk",
		CompRanges: []query.RangePred{{Col: "ss_item_sk", Iv: queryIv}},
	}
	for k, i := range idx {
		vs.FragIDs = append(vs.FragIDs, fragPath(ivs[i]))
		vs.Reads = append(vs.Reads, reads[k])
		vs.FragIvs = append(vs.FragIvs, ivs[i])
	}
	got := mustRun(t, e, vs)
	if got.Table.Fingerprint() != want.Table.Fingerprint() {
		t.Error("fragment cover result differs from direct execution")
	}
	if got.Cost.ReadBytes >= want.Cost.ReadBytes {
		t.Errorf("fragment read bytes %d not smaller than base plan %d",
			got.Cost.ReadBytes, want.Cost.ReadBytes)
	}
}

func TestViewScanOverlappingFragmentsNoDuplicates(t *testing.T) {
	e := testEngine()
	// Deliberately overlapping fragments.
	ivs := []interval.Interval{interval.New(0, 50), interval.New(40, 99)}
	materializeJoinView(t, e, ivs)
	queryIv := interval.New(30, 70)
	want := mustRun(t, e, &query.Select{
		Child:  joinPlan(),
		Ranges: []query.RangePred{{Col: "ss_item_sk", Iv: queryIv}},
	})
	idx, reads, full := interval.ClippedCover(queryIv, interval.Set(ivs))
	if !full {
		t.Fatal("expected full cover")
	}
	vs := &query.ViewScan{
		ViewID:     "j",
		ViewSchema: joinPlan().Schema(),
		PartAttr:   "ss_item_sk",
		CompRanges: []query.RangePred{{Col: "ss_item_sk", Iv: queryIv}},
	}
	for k, i := range idx {
		vs.FragIDs = append(vs.FragIDs, fragPath(ivs[i]))
		vs.Reads = append(vs.Reads, reads[k])
		vs.FragIvs = append(vs.FragIvs, ivs[i])
	}
	got := mustRun(t, e, vs)
	if got.Table.Fingerprint() != want.Table.Fingerprint() {
		t.Error("overlapping fragments produced duplicate or missing rows")
	}
}

func TestViewScanWithRemainder(t *testing.T) {
	e := testEngine()
	// Only the low fragment exists; [31,60] must come from base data.
	ivs := []interval.Interval{interval.New(0, 30)}
	materializeJoinView(t, e, ivs)
	queryIv := interval.New(10, 60)
	want := mustRun(t, e, &query.Select{
		Child:  joinPlan(),
		Ranges: []query.RangePred{{Col: "ss_item_sk", Iv: queryIv}},
	})
	remainder := &query.Select{
		Child:  joinPlan(),
		Ranges: []query.RangePred{{Col: "ss_item_sk", Iv: interval.New(31, 60)}},
	}
	vs := &query.ViewScan{
		ViewID:     "j",
		ViewSchema: joinPlan().Schema(),
		PartAttr:   "ss_item_sk",
		FragIDs:    []string{fragPath(ivs[0])},
		Reads:      []interval.Interval{interval.New(10, 30)},
		FragIvs:    []interval.Interval{ivs[0]},
		CompRanges: []query.RangePred{{Col: "ss_item_sk", Iv: queryIv}},
		Remainders: []query.Node{remainder},
	}
	got := mustRun(t, e, vs)
	if got.Table.Fingerprint() != want.Table.Fingerprint() {
		t.Error("remainder union differs from direct execution")
	}
	if got.Cost.Jobs == 0 {
		t.Error("remainder execution should run jobs")
	}
}

func TestViewScanMissingFragmentErrors(t *testing.T) {
	e := testEngine()
	vs := &query.ViewScan{
		ViewID:     "j",
		ViewSchema: joinPlan().Schema(),
		PartAttr:   "ss_item_sk",
		FragIDs:    []string{"views/j/ss_item_sk/[0,10]"},
		Reads:      []interval.Interval{interval.New(0, 10)},
	}
	if _, err := e.Run(vs, nil); err == nil {
		t.Error("missing fragment did not error")
	}
}

func TestCaptureIntermediateResult(t *testing.T) {
	e := testEngine()
	j := joinPlan()
	plan := &query.Aggregate{
		Child:   &query.Select{Child: j, Ranges: []query.RangePred{{Col: "ss_item_sk", Iv: interval.New(0, 49)}}},
		GroupBy: []string{"i_category"},
		Aggs:    []query.AggSpec{{Func: query.Count, As: "n"}},
	}
	res, err := e.Run(plan, map[query.Node]Capture{j: {Level: CaptureRows}})
	if err != nil {
		t.Fatal(err)
	}
	captured := res.Captured[j]
	if captured == nil {
		t.Fatal("join result not captured")
	}
	if captured.NumRows() != 1000 {
		t.Errorf("captured rows = %d, want 1000 (pre-selection)", captured.NumRows())
	}
}

func TestEstimateMatchesExecForUniformData(t *testing.T) {
	e := testEngine()
	plan := &query.Aggregate{
		Child: &query.Select{
			Child:  joinPlan(),
			Ranges: []query.RangePred{{Col: "ss_item_sk", Iv: interval.New(0, 49)}},
		},
		GroupBy: []string{"i_category"},
		Aggs:    []query.AggSpec{{Func: query.Sum, Col: "ss_price", As: "total"}},
	}
	est, err := e.EstimateCost(plan)
	if err != nil {
		t.Fatal(err)
	}
	got := mustRun(t, e, plan)
	ratio := est.Seconds / got.Cost.Seconds
	if math.Abs(ratio-1) > 0.25 {
		t.Errorf("estimate %.2fs vs exec %.2fs (ratio %.2f): too far apart",
			est.Seconds, got.Cost.Seconds, ratio)
	}
}

func TestEstimateSize(t *testing.T) {
	e := testEngine()
	rows, bytes, err := e.EstimateSize(joinPlan())
	if err != nil {
		t.Fatal(err)
	}
	if rows != 1000 {
		t.Errorf("estimated join rows = %d, want 1000", rows)
	}
	ss, is := salesSchema(), itemSchema()
	wantWidth := ss.RowWidth() + is.RowWidth()
	if bytes != 1000*wantWidth {
		t.Errorf("estimated bytes = %d, want %d", bytes, 1000*wantWidth)
	}
}

func TestClockAdvance(t *testing.T) {
	e := testEngine()
	if e.Now() != 1 {
		t.Errorf("initial clock = %g, want 1", e.Now())
	}
	e.Advance(10)
	if e.Now() != 11 {
		t.Errorf("clock = %g, want 11", e.Now())
	}
	defer func() {
		if recover() == nil {
			t.Error("negative advance did not panic")
		}
	}()
	e.Advance(-1)
}

func TestWriteAndDeleteMaterialized(t *testing.T) {
	e := testEngine()
	tbl := e.BaseTable("item").Clone()
	c, err := e.WriteMaterialized("v/x", tbl)
	if err != nil {
		t.Fatal(err)
	}
	if c.WriteBytes != tbl.Bytes() || c.Seconds <= 0 {
		t.Errorf("write cost = %+v", c)
	}
	got, rc, err := e.ReadMaterialized("v/x")
	if err != nil || got == nil || rc.ReadBytes != tbl.Bytes() {
		t.Fatalf("ReadMaterialized = %v,%v,%v", got, rc, err)
	}
	e.DeleteMaterialized("v/x")
	if _, _, err := e.ReadMaterialized("v/x"); err == nil {
		t.Error("read after delete did not error")
	}
}

func TestCostModelTasks(t *testing.T) {
	cm := DefaultCostModel()
	if got := cm.Tasks(0, 0); got != 1 {
		t.Errorf("Tasks(0,0) = %d, want 1", got)
	}
	if got := cm.Tasks(cm.BlockSize*3, 1); got != 3 {
		t.Errorf("Tasks(3 blocks) = %d, want 3", got)
	}
	if got := cm.Tasks(cm.BlockSize, 5); got != 5 {
		t.Errorf("Tasks(1 block, 5 files) = %d, want 5", got)
	}
}

func TestEstimateModeViewScanUsesOverrides(t *testing.T) {
	e := testEngine()
	vs := &query.ViewScan{
		ViewID:     "virt",
		ViewPath:   "virtual://virt",
		ViewBytes:  1 << 30,
		ViewSchema: joinPlan().Schema(),
	}
	c, err := e.EstimateCost(vs)
	if err != nil {
		t.Fatal(err)
	}
	if c.ReadBytes != 1<<30 {
		t.Errorf("estimated read bytes = %d, want 1GiB override", c.ReadBytes)
	}
	// Fragment-size overrides likewise.
	vs2 := &query.ViewScan{
		ViewID:     "virt2",
		ViewSchema: joinPlan().Schema(),
		PartAttr:   "ss_item_sk",
		FragIDs:    []string{"phantom/a", "phantom/b"},
		Reads:      []interval.Interval{interval.New(0, 49), interval.New(50, 99)},
		FragIvs:    []interval.Interval{interval.New(0, 49), interval.New(50, 99)},
		FragSizes:  []int64{1 << 20, 2 << 20},
	}
	c2, err := e.EstimateCost(vs2)
	if err != nil {
		t.Fatal(err)
	}
	if c2.ReadBytes != 3<<20 {
		t.Errorf("estimated read bytes = %d, want 3MiB", c2.ReadBytes)
	}
}

func TestEstimateViewScanMissingFileErrors(t *testing.T) {
	e := testEngine()
	vs := &query.ViewScan{
		ViewID:     "ghost",
		ViewPath:   "views/ghost",
		ViewSchema: joinPlan().Schema(),
	}
	if _, err := e.EstimateCost(vs); err == nil {
		t.Error("estimate over missing view file did not error")
	}
}

func TestEstimateUnknownTableErrors(t *testing.T) {
	e := testEngine()
	if _, err := e.EstimateCost(query.NewScan("nope", salesSchema())); err == nil {
		t.Error("estimate over unknown table did not error")
	}
	if _, _, err := e.EstimateSize(query.NewScan("nope", salesSchema())); err == nil {
		t.Error("EstimateSize over unknown table did not error")
	}
}

func TestWriteCostScalesWithFiles(t *testing.T) {
	cm := DefaultCostModel()
	one := cm.WriteCost(1<<30, 1)
	many := cm.WriteCost(1<<30, 60)
	if many <= one {
		t.Error("per-file creation cost not charged")
	}
}

func TestReadCostMoreFilesCostMore(t *testing.T) {
	cm := DefaultCostModel()
	few, _ := cm.ReadCost(1<<30, 2)
	lots, _ := cm.ReadCost(1<<30, 64)
	if lots <= few {
		t.Error("per-file open cost not charged")
	}
}

func TestCostString(t *testing.T) {
	c := Cost{Seconds: 1.5, ReadBytes: 10, Jobs: 2}
	if s := c.String(); s == "" {
		t.Error("empty cost string")
	}
}

func TestGlobalAggregateNoGroupBy(t *testing.T) {
	e := testEngine()
	plan := &query.Aggregate{
		Child: query.NewScan("sales", salesSchema()),
		Aggs: []query.AggSpec{
			{Func: query.Count, As: "n"},
			{Func: query.Sum, Col: "ss_qty", As: "total"},
		},
	}
	res := mustRun(t, e, plan)
	if res.Table.NumRows() != 1 {
		t.Fatalf("global aggregate rows = %d, want 1", res.Table.NumRows())
	}
	if res.Table.Rows[0][0].Int() != 1000 {
		t.Errorf("count = %d, want 1000", res.Table.Rows[0][0].Int())
	}
}

func TestJoinWithEmptySide(t *testing.T) {
	e := testEngine()
	empty := relation.NewTable(relation.Schema{Name: "void", Cols: []relation.Column{
		{Name: "v_item_sk", Type: relation.Int, Ordered: true, Lo: 0, Hi: 99},
	}})
	e.AddBaseTable(empty)
	plan := &query.Join{
		Left:  query.NewScan("sales", salesSchema()),
		Right: query.NewScan("void", empty.Schema),
		LCol:  "ss_item_sk",
		RCol:  "v_item_sk",
	}
	res := mustRun(t, e, plan)
	if res.Table.NumRows() != 0 {
		t.Errorf("join with empty side returned %d rows", res.Table.NumRows())
	}
}

func TestSelectOnEmptyResult(t *testing.T) {
	e := testEngine()
	plan := &query.Select{
		Child:  query.NewScan("sales", salesSchema()),
		Ranges: []query.RangePred{{Col: "ss_item_sk", Iv: interval.New(95, 99)}},
		Residuals: []query.CmpPred{{Col: "ss_qty", Op: query.Gt,
			Val: relation.IntVal(1000), Typ: relation.Int}},
	}
	res := mustRun(t, e, plan)
	if res.Table.NumRows() != 0 {
		t.Errorf("impossible predicate returned %d rows", res.Table.NumRows())
	}
}
