package matching

import (
	"strings"
	"testing"

	"deepsea/internal/engine"
	"deepsea/internal/interval"
	"deepsea/internal/partition"
	"deepsea/internal/pool"
	"deepsea/internal/query"
	"deepsea/internal/relation"
	"deepsea/internal/signature"
	"deepsea/internal/stats"
)

func salesSchema() relation.Schema {
	return relation.Schema{
		Name: "sales",
		Cols: []relation.Column{
			// Width scales each simulated row to ~1 MB so byte costs are
			// visible against per-task overheads (see relation.Column).
			{Name: "ss_item_sk", Type: relation.Int, Ordered: true, Lo: 0, Hi: 99, Width: 1 << 19},
			{Name: "ss_price", Type: relation.Float, Width: 1 << 19},
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

func joinPlan() *query.Join {
	return &query.Join{
		Left:  query.NewScan("sales", salesSchema()),
		Right: query.NewScan("item", itemSchema()),
		LCol:  "ss_item_sk",
		RCol:  "i_item_sk",
	}
}

func selPlan(lo, hi int64) query.Node {
	return &query.Select{
		Child:  joinPlan(),
		Ranges: []query.RangePred{{Col: "ss_item_sk", Iv: interval.New(lo, hi)}},
	}
}

// harness bundles the rewriter with a populated engine.
type harness struct {
	eng *engine.Engine
	rw  *Rewriter
}

func newHarness(t *testing.T, smax int64) *harness {
	t.Helper()
	e := engine.New(engine.DefaultCostModel())
	sales := relation.NewTable(salesSchema())
	for i := 0; i < 2000; i++ {
		sales.Append(relation.Row{
			relation.IntVal(int64(i % 100)),
			relation.FloatVal(float64(i%13) + 0.25),
		})
	}
	e.AddBaseTable(sales)
	item := relation.NewTable(itemSchema())
	cats := []string{"books", "music", "video", "games"}
	for i := 0; i < 100; i++ {
		item.Append(relation.Row{relation.IntVal(int64(i)), relation.StringVal(cats[i%4])})
	}
	e.AddBaseTable(item)
	return &harness{
		eng: e,
		rw: &Rewriter{
			Eng:   e,
			Pool:  pool.New(smax),
			Stats: stats.NewRegistry(stats.Decay{}),
			Tree:  NewFilterTree(),
		},
	}
}

// indexJoinView registers the join view in the tree and stats, without
// materializing anything.
func (h *harness) indexJoinView(t *testing.T) *Entry {
	t.Helper()
	j := joinPlan()
	sig := signature.Of(j)
	entry := &Entry{ID: sig.Key(), Sig: sig, Schema: j.Schema()}
	h.rw.Tree.Add(entry)
	rows, bytes, err := h.eng.EstimateSize(j)
	if err != nil {
		t.Fatal(err)
	}
	_ = rows
	vs := h.rw.Stats.View(entry.ID)
	vs.Size = bytes
	vs.Cost = 100
	return entry
}

// materializeFragments executes the join and stores fragments for the
// given intervals, registering them in the pool.
func (h *harness) materializeFragments(t *testing.T, entry *Entry, ivs []interval.Interval, overlapping bool) {
	t.Helper()
	res, err := h.eng.Run(joinPlan(), nil)
	if err != nil {
		t.Fatal(err)
	}
	view := res.Table
	pv := h.rw.Pool.Ensure(entry.ID, entry.Schema)
	part := partition.New(entry.ID, "ss_item_sk", interval.New(0, 99), overlapping)
	ai := view.Schema.ColIndex("ss_item_sk")
	for _, iv := range ivs {
		frag := relation.NewTable(view.Schema)
		for _, row := range view.Rows {
			if iv.Contains(row[ai].Int()) {
				frag.Append(row)
			}
		}
		path := "views/j/" + iv.String()
		h.eng.WriteMaterialized(path, frag)
		part.Add(partition.Fragment{Iv: iv, Path: path, Size: frag.Bytes()})
	}
	pv.Parts["ss_item_sk"] = part
}

func (h *harness) materializeUnpartitioned(t *testing.T, entry *Entry) {
	t.Helper()
	res, err := h.eng.Run(joinPlan(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pv := h.rw.Pool.Ensure(entry.ID, entry.Schema)
	pv.Path = "views/j/full"
	h.eng.WriteMaterialized(pv.Path, res.Table)
	pv.Size = res.Table.Bytes()
}

// cheapestPartitioned returns the lowest-cost pool-backed partitioned
// rewriting, mirroring SELECTREWRITING's choice.
func cheapestPartitioned(rws []Rewriting) *Rewriting {
	var best *Rewriting
	for i := range rws {
		if rws[i].UsesPool && rws[i].PartAttr != "" {
			if best == nil || rws[i].EstCost.Seconds < best.EstCost.Seconds {
				best = &rws[i]
			}
		}
	}
	return best
}

func TestFilterTreeFamilies(t *testing.T) {
	ft := NewFilterTree()
	j := joinPlan()
	sig := signature.Of(j)
	e := &Entry{ID: sig.Key(), Sig: sig, Schema: j.Schema()}
	ft.Add(e)
	ft.Add(e) // idempotent
	if ft.Len() != 1 {
		t.Fatalf("Len = %d, want 1", ft.Len())
	}
	if got, ok := ft.Lookup(sig.Key()); !ok || got != e {
		t.Fatal("Lookup failed")
	}
	// Same family: a selection over the join.
	qsig := signature.Of(selPlan(10, 20))
	if len(ft.Candidates(qsig)) != 1 {
		t.Error("selection over join not in join's family")
	}
	// Different family: single-table scan.
	ssig := signature.Of(query.NewScan("sales", salesSchema()))
	if len(ft.Candidates(ssig)) != 0 {
		t.Error("scan matched join family")
	}
}

func TestNoRewritingsWithoutViews(t *testing.T) {
	h := newHarness(t, 0)
	rws, orig, err := h.rw.ComputeRewritings(selPlan(10, 20))
	if err != nil {
		t.Fatal(err)
	}
	if len(rws) != 0 {
		t.Errorf("rewritings = %d, want 0", len(rws))
	}
	if orig.Seconds <= 0 {
		t.Error("original cost not estimated")
	}
}

func TestVirtualRewritingForUnmaterializedView(t *testing.T) {
	h := newHarness(t, 0)
	h.indexJoinView(t)
	rws, orig, err := h.rw.ComputeRewritings(selPlan(10, 20))
	if err != nil {
		t.Fatal(err)
	}
	// Both the select node and the bare join node match the join view.
	if len(rws) != 2 {
		t.Fatalf("rewritings = %d, want 2 virtual", len(rws))
	}
	for _, rw := range rws {
		if rw.UsesPool {
			t.Error("virtual rewriting claims pool usage")
		}
		if rw.EstCost.Seconds <= 0 || rw.EstCost.Seconds >= orig.Seconds {
			t.Errorf("virtual rewriting cost %.2f vs original %.2f: view should be cheaper",
				rw.EstCost.Seconds, orig.Seconds)
		}
	}
}

func TestPartitionedRewritingFullCover(t *testing.T) {
	h := newHarness(t, 0)
	entry := h.indexJoinView(t)
	ivs := []interval.Interval{interval.New(0, 30), interval.New(31, 60), interval.New(61, 99)}
	h.materializeFragments(t, entry, ivs, false)

	plan := selPlan(35, 55)
	rws, orig, err := h.rw.ComputeRewritings(plan)
	if err != nil {
		t.Fatal(err)
	}
	part := cheapestPartitioned(rws)
	if part == nil {
		t.Fatal("no partitioned rewriting produced")
	}
	if part.HasRemainder {
		t.Error("full cover should have no remainder")
	}
	if len(part.CoverFrags) != 1 || part.CoverFrags[0] != interval.New(31, 60) {
		t.Errorf("cover = %v, want [[31,60]]", part.CoverFrags)
	}
	if part.EstCost.Seconds >= orig.Seconds {
		t.Errorf("rewriting cost %.2f >= original %.2f", part.EstCost.Seconds, orig.Seconds)
	}

	// Executing the rewritten plan must produce the original result.
	want, err := h.eng.Run(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.eng.Run(part.Plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Table.Fingerprint() != want.Table.Fingerprint() {
		t.Error("rewritten plan result differs from original")
	}
}

func TestPartitionedRewritingWithRemainder(t *testing.T) {
	h := newHarness(t, 0)
	entry := h.indexJoinView(t)
	// Hole between 31 and 60 (fragment evicted).
	ivs := []interval.Interval{interval.New(0, 30), interval.New(61, 99)}
	h.materializeFragments(t, entry, ivs, false)

	plan := selPlan(20, 70)
	rws, _, err := h.rw.ComputeRewritings(plan)
	if err != nil {
		t.Fatal(err)
	}
	part := cheapestPartitioned(rws)
	if part == nil {
		t.Fatal("no partitioned rewriting produced")
	}
	if !part.HasRemainder {
		t.Error("expected remainder for the evicted range")
	}
	want, err := h.eng.Run(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.eng.Run(part.Plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Table.Fingerprint() != want.Table.Fingerprint() {
		t.Error("remainder rewriting result differs from original")
	}
}

func TestOverlappingPartitionRewriting(t *testing.T) {
	h := newHarness(t, 0)
	entry := h.indexJoinView(t)
	ivs := []interval.Interval{interval.New(0, 50), interval.New(40, 99), interval.New(45, 70)}
	h.materializeFragments(t, entry, ivs, true)

	plan := selPlan(30, 80)
	rws, _, err := h.rw.ComputeRewritings(plan)
	if err != nil {
		t.Fatal(err)
	}
	part := cheapestPartitioned(rws)
	if part == nil {
		t.Fatal("no partitioned rewriting produced")
	}
	want, err := h.eng.Run(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.eng.Run(part.Plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Table.Fingerprint() != want.Table.Fingerprint() {
		t.Error("overlapping cover produced wrong rows")
	}
}

func TestUnpartitionedRewriting(t *testing.T) {
	h := newHarness(t, 0)
	entry := h.indexJoinView(t)
	h.materializeUnpartitioned(t, entry)

	plan := selPlan(10, 20)
	rws, _, err := h.rw.ComputeRewritings(plan)
	if err != nil {
		t.Fatal(err)
	}
	var unpart *Rewriting
	for i := range rws {
		if rws[i].UsesPool && rws[i].PartAttr == "" {
			unpart = &rws[i]
		}
	}
	if unpart == nil {
		t.Fatal("no unpartitioned rewriting produced")
	}
	want, err := h.eng.Run(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.eng.Run(unpart.Plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Table.Fingerprint() != want.Table.Fingerprint() {
		t.Error("unpartitioned rewriting result differs")
	}
}

func TestPartitionedBeatsUnpartitionedForSelectiveQueries(t *testing.T) {
	h := newHarness(t, 0)
	entry := h.indexJoinView(t)
	h.materializeUnpartitioned(t, entry)
	ivs := []interval.Interval{
		interval.New(0, 24), interval.New(25, 49),
		interval.New(50, 74), interval.New(75, 99),
	}
	h.materializeFragments(t, entry, ivs, false)

	rws, _, err := h.rw.ComputeRewritings(selPlan(30, 40))
	if err != nil {
		t.Fatal(err)
	}
	var pCost, uCost float64
	for _, rw := range rws {
		if !rw.UsesPool {
			continue
		}
		if rw.PartAttr != "" {
			if pCost == 0 || rw.EstCost.Seconds < pCost {
				pCost = rw.EstCost.Seconds
			}
		} else if uCost == 0 || rw.EstCost.Seconds < uCost {
			uCost = rw.EstCost.Seconds
		}
	}
	if pCost <= 0 || uCost <= 0 {
		t.Fatal("missing rewriting")
	}
	if pCost >= uCost {
		t.Errorf("partitioned cost %.2f >= unpartitioned %.2f for 11%% selection", pCost, uCost)
	}
}

func TestAggregateQueryMatchesAggregateView(t *testing.T) {
	h := newHarness(t, 0)
	agg := &query.Aggregate{
		Child:   joinPlan(),
		GroupBy: []string{"i_category"},
		Aggs:    []query.AggSpec{{Func: query.Sum, Col: "ss_price", As: "total"}},
	}
	sig := signature.Of(agg)
	entry := &Entry{ID: sig.Key(), Sig: sig, Schema: agg.Schema()}
	h.rw.Tree.Add(entry)
	res, err := h.eng.Run(agg, nil)
	if err != nil {
		t.Fatal(err)
	}
	pv := h.rw.Pool.Ensure(entry.ID, entry.Schema)
	pv.Path = "views/agg/full"
	h.eng.WriteMaterialized(pv.Path, res.Table)
	pv.Size = res.Table.Bytes()

	// Same aggregate as a fresh plan must match and produce equal rows.
	agg2 := &query.Aggregate{
		Child:   joinPlan(),
		GroupBy: []string{"i_category"},
		Aggs:    []query.AggSpec{{Func: query.Sum, Col: "ss_price", As: "total"}},
	}
	rws, _, err := h.rw.ComputeRewritings(agg2)
	if err != nil {
		t.Fatal(err)
	}
	var found *Rewriting
	for i := range rws {
		if rws[i].UsesPool {
			found = &rws[i]
		}
	}
	if found == nil {
		t.Fatal("aggregate view not matched")
	}
	got, err := h.eng.Run(found.Plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Table.Fingerprint() != res.Table.Fingerprint() {
		t.Error("aggregate view rewriting differs")
	}
}

func TestRewritingsAreDeterministic(t *testing.T) {
	h := newHarness(t, 0)
	entry := h.indexJoinView(t)
	h.materializeFragments(t, entry,
		[]interval.Interval{interval.New(0, 49), interval.New(50, 99)}, false)
	plan := selPlan(10, 90)
	a, _, err := h.rw.ComputeRewritings(plan)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := h.rw.ComputeRewritings(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("nondeterministic count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ViewID != b[i].ViewID || a[i].PartAttr != b[i].PartAttr ||
			!strings.EqualFold(a[i].Plan.String(), b[i].Plan.String()) {
			t.Fatalf("nondeterministic rewriting %d", i)
		}
	}
}

// TestMultipleViewsCompete indexes several views of the same family with
// different range restrictions; the matcher must offer only the sound
// ones and the executable rewritings must all be correct.
func TestMultipleViewsCompete(t *testing.T) {
	h := newHarness(t, 0)
	// Three stored selections of the join, progressively narrower.
	ranges := []interval.Interval{
		interval.New(0, 99), interval.New(20, 79), interval.New(40, 59),
	}
	res, err := h.eng.Run(joinPlan(), nil)
	if err != nil {
		t.Fatal(err)
	}
	full := res.Table
	ai := full.Schema.ColIndex("ss_item_sk")
	for _, iv := range ranges {
		sub := &query.Select{Child: joinPlan(),
			Ranges: []query.RangePred{{Col: "ss_item_sk", Iv: iv}}}
		sig := signature.Of(sub)
		entry := &Entry{ID: sig.Key(), Sig: sig, Schema: sub.Schema()}
		h.rw.Tree.Add(entry)
		vs := h.rw.Stats.View(entry.ID)
		tbl := relation.NewTable(full.Schema)
		for _, row := range full.Rows {
			if iv.Contains(row[ai].Int()) {
				tbl.Append(row)
			}
		}
		path := "views/sel/" + iv.String()
		h.eng.WriteMaterialized(path, tbl)
		pv := h.rw.Pool.Ensure(entry.ID, entry.Schema)
		pv.Path = path
		pv.Size = tbl.Bytes()
		vs.Size = tbl.Bytes()
		vs.Cost = 10
	}

	// A query with range [45,55] is answerable by all three views; the
	// narrowest should be cheapest, and every rewriting must be correct.
	plan := selPlan(45, 55)
	want, err := h.eng.Run(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	rws, _, err := h.rw.ComputeRewritings(plan)
	if err != nil {
		t.Fatal(err)
	}
	var poolRWs int
	bestCost := -1.0
	var bestPath string
	for _, rw := range rws {
		if !rw.UsesPool {
			continue
		}
		poolRWs++
		got, err := h.eng.Run(rw.Plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Table.Fingerprint() != want.Table.Fingerprint() {
			t.Fatalf("rewriting over %.40s wrong result", rw.ViewID)
		}
		if bestCost < 0 || rw.EstCost.Seconds < bestCost {
			bestCost = rw.EstCost.Seconds
			bestPath = rw.ViewID
		}
	}
	if poolRWs < 3 {
		t.Fatalf("only %d pool rewritings, want at least 3", poolRWs)
	}
	if !strings.Contains(bestPath, "[40,59]") {
		t.Errorf("cheapest rewriting uses %.80s, want the narrowest view", bestPath)
	}

	// A query wider than the narrow views must reject them and still be
	// answerable by the widest.
	wide := selPlan(10, 90)
	rws2, _, err := h.rw.ComputeRewritings(wide)
	if err != nil {
		t.Fatal(err)
	}
	usable := 0
	for _, rw := range rws2 {
		if rw.UsesPool {
			usable++
			if strings.Contains(rw.ViewID, "[40,59]") {
				t.Error("too-narrow view offered for a wide query")
			}
		}
	}
	if usable == 0 {
		t.Error("wide query found no usable view")
	}
}

// BenchmarkComputeRewritings measures matching latency with a populated
// index and partitioned pool — the per-query planning overhead.
func BenchmarkComputeRewritings(b *testing.B) {
	h := newHarnessB(b)
	entry := h.indexJoinViewB(b)
	ivs := []interval.Interval{
		interval.New(0, 24), interval.New(25, 49),
		interval.New(50, 74), interval.New(75, 99),
	}
	h.materializeFragmentsB(b, entry, ivs)
	plan := selPlan(30, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := h.rw.ComputeRewritings(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// Benchmark-friendly harness constructors (testing.B variants).
func newHarnessB(b *testing.B) *harness {
	b.Helper()
	e := engine.New(engine.DefaultCostModel())
	sales := relation.NewTable(salesSchema())
	for i := 0; i < 2000; i++ {
		sales.Append(relation.Row{
			relation.IntVal(int64(i % 100)),
			relation.FloatVal(float64(i%13) + 0.25),
		})
	}
	e.AddBaseTable(sales)
	item := relation.NewTable(itemSchema())
	cats := []string{"books", "music", "video", "games"}
	for i := 0; i < 100; i++ {
		item.Append(relation.Row{relation.IntVal(int64(i)), relation.StringVal(cats[i%4])})
	}
	e.AddBaseTable(item)
	return &harness{
		eng: e,
		rw: &Rewriter{
			Eng:   e,
			Pool:  pool.New(0),
			Stats: stats.NewRegistry(stats.Decay{}),
			Tree:  NewFilterTree(),
		},
	}
}

func (h *harness) indexJoinViewB(b *testing.B) *Entry {
	b.Helper()
	j := joinPlan()
	sig := signature.Of(j)
	entry := &Entry{ID: sig.Key(), Sig: sig, Schema: j.Schema()}
	h.rw.Tree.Add(entry)
	_, bytes, err := h.eng.EstimateSize(j)
	if err != nil {
		b.Fatal(err)
	}
	vs := h.rw.Stats.View(entry.ID)
	vs.Size = bytes
	vs.Cost = 100
	return entry
}

func (h *harness) materializeFragmentsB(b *testing.B, entry *Entry, ivs []interval.Interval) {
	b.Helper()
	res, err := h.eng.Run(joinPlan(), nil)
	if err != nil {
		b.Fatal(err)
	}
	view := res.Table
	pv := h.rw.Pool.Ensure(entry.ID, entry.Schema)
	part := partition.New(entry.ID, "ss_item_sk", interval.New(0, 99), false)
	ai := view.Schema.ColIndex("ss_item_sk")
	for _, iv := range ivs {
		frag := relation.NewTable(view.Schema)
		for _, row := range view.Rows {
			if iv.Contains(row[ai].Int()) {
				frag.Append(row)
			}
		}
		path := "views/j/" + iv.String()
		h.eng.WriteMaterialized(path, frag)
		part.Add(partition.Fragment{Iv: iv, Path: path, Size: frag.Bytes()})
	}
	pv.Parts["ss_item_sk"] = part
}

// TestPhysicalMatchingSkipsCompensatedRewritings: with PhysicalOnly,
// only exact-signature matches are offered (ReStore-style); matches
// that would need compensating selections are dropped.
func TestPhysicalMatchingSkipsCompensatedRewritings(t *testing.T) {
	h := newHarness(t, 0)
	entry := h.indexJoinView(t)
	h.materializeUnpartitioned(t, entry)
	h.rw.PhysicalOnly = true

	// The query's select node would need a compensating range (view has
	// none), so physical matching must reject it; the bare join node is
	// an exact match and stays.
	rws, _, err := h.rw.ComputeRewritings(selPlan(10, 20))
	if err != nil {
		t.Fatal(err)
	}
	for _, rw := range rws {
		if _, isSel := rw.Target.(*query.Select); isSel {
			t.Error("physical matching offered a compensated rewriting")
		}
	}
	if len(rws) == 0 {
		t.Error("exact-signature match missing under physical matching")
	}

	h.rw.PhysicalOnly = false
	rws2, _, err := h.rw.ComputeRewritings(selPlan(10, 20))
	if err != nil {
		t.Fatal(err)
	}
	if len(rws2) <= len(rws) {
		t.Error("logical matching did not offer more rewritings than physical")
	}
}
