package engine

import (
	"reflect"
	"testing"

	"deepsea/internal/interval"
	"deepsea/internal/query"
	"deepsea/internal/relation"
)

// deltaFixture builds an engine over a small fact + dim catalog with
// deliberately awkward float values (0.1 steps are not binary-exact, so
// a non-associative float fold would diverge across merge boundaries).
func deltaFixture(t *testing.T) *Engine {
	t.Helper()
	e := New(DefaultCostModel())
	fact := relation.NewTable(relation.Schema{Name: "fact", Cols: []relation.Column{
		{Name: "f_k", Type: relation.Int, Ordered: true, Lo: 0, Hi: 100, Width: 8},
		{Name: "f_g", Type: relation.Int, Width: 8},
		{Name: "f_v", Type: relation.Float, Width: 8},
	}})
	for i := 0; i < 400; i++ {
		fact.Append(relation.Row{
			relation.IntVal(int64(i % 100)),
			relation.IntVal(int64(i % 7)),
			relation.FloatVal(0.1 * float64(i%31)),
		})
	}
	dim := relation.NewTable(relation.Schema{Name: "dim", Cols: []relation.Column{
		{Name: "d_k", Type: relation.Int, Width: 8},
		{Name: "d_name", Type: relation.String, Width: 16},
	}})
	for i := 0; i < 100; i++ {
		dim.Append(relation.Row{
			relation.IntVal(int64(i)),
			relation.StringVal(string(rune('a' + i%26))),
		})
	}
	e.AddBaseTable(fact)
	e.AddBaseTable(dim)
	return e
}

func factDelta(n, seed int) []relation.Row {
	rows := make([]relation.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = relation.Row{
			relation.IntVal(int64((seed + 3*i) % 100)),
			relation.IntVal(int64((seed + i) % 7)),
			relation.FloatVal(0.1 * float64((seed+i)%37)),
		}
	}
	return rows
}

func deltaPlans(e *Engine) map[string]query.Node {
	factScan := func() *query.Scan { return query.NewScan("fact", e.BaseTable("fact").Schema) }
	dimScan := func() *query.Scan { return query.NewScan("dim", e.BaseTable("dim").Schema) }
	sel := func(c query.Node, lo, hi int64) query.Node {
		return &query.Select{Child: c, Ranges: []query.RangePred{{Col: "f_k", Iv: interval.Interval{Lo: lo, Hi: hi}}}}
	}
	join := func() query.Node {
		return &query.Join{Left: factScan(), Right: dimScan(), LCol: "f_k", RCol: "d_k"}
	}
	// The query templates' shape — a selection over a projected join —
	// which the probe kernel runs as one pass.
	fused := func(lo, hi int64) query.Node {
		return sel(&query.Project{Child: join(), Cols: []string{"f_k", "f_g", "f_v", "d_name"}}, lo, hi)
	}
	return map[string]query.Node{
		"fused-join": fused(5, 90),
		"fused-aggregate": &query.Aggregate{
			Child:   fused(0, 95),
			GroupBy: []string{"d_name"},
			Aggs:    []query.AggSpec{{Func: query.Count, As: "n"}, {Func: query.Sum, Col: "f_v", As: "sv"}},
		},
		"filter-project": &query.Project{Child: sel(factScan(), 10, 80), Cols: []string{"f_k", "f_v"}},
		"join":           &query.Project{Child: sel(join(), 5, 90), Cols: []string{"f_k", "f_v", "d_name"}},
		"aggregate": &query.Aggregate{
			Child:   sel(join(), 0, 95),
			GroupBy: []string{"f_g"},
			Aggs: []query.AggSpec{
				{Func: query.Count, As: "n"},
				{Func: query.Sum, Col: "f_v", As: "sv"},
				{Func: query.Avg, Col: "f_v", As: "av"},
				{Func: query.Min, Col: "f_k", As: "mn"},
				{Func: query.Max, Col: "d_name", As: "mx"},
			},
		},
	}
}

// applyDelta folds a DeltaApply outcome into the old content the way a
// refresh would, returning the resulting view rows.
func applyDelta(t *testing.T, old *relation.Table, res DeltaResult) *relation.Table {
	t.Helper()
	switch res.Kind {
	case DeltaEmpty:
		return old
	case DeltaAppend:
		out := relation.NewTable(old.Schema)
		out.Rows = append(append([]relation.Row{}, old.Rows...), res.Rows.Rows...)
		return out
	case DeltaAgg:
		return res.Rows
	default:
		t.Fatalf("unexpected remat: %s", res.Reason)
		return nil
	}
}

// TestDeltaApplyMatchesRemat is the core incremental-maintenance
// property at the engine level: prime ∘ delta-apply over appended rows
// reproduces a from-scratch rematerialization byte for byte, for
// filter/project, join and aggregate plans, across several consecutive
// append rounds (so merged states carry across refreshes).
func TestDeltaApplyMatchesRemat(t *testing.T) {
	for name, mk := range deltaPlans(deltaFixture(t)) {
		t.Run(name, func(t *testing.T) {
			e := deltaFixture(t)
			plan := mk
			tables := query.BaseTables(plan)

			old, err := e.BaseSnapshots(tables)
			if err != nil {
				t.Fatal(err)
			}
			rp, _, err := e.PrimeRefresh(plan, old)
			if err != nil {
				t.Fatalf("prime: %v", err)
			}
			res0, err := e.Run(plan, nil)
			if err != nil {
				t.Fatal(err)
			}
			content := res0.Table

			for round := 0; round < 3; round++ {
				marks := make(map[string]int64, len(old))
				for n, tb := range old {
					marks[n] = int64(len(tb.Rows))
				}
				if _, err := e.AppendBase("fact", factDelta(57+round*13, round*11)); err != nil {
					t.Fatal(err)
				}
				snaps, err := e.BaseSnapshots(tables)
				if err != nil {
					t.Fatal(err)
				}
				deltas := make(map[string]*relation.Table)
				for n, tb := range snaps {
					d := relation.NewTable(tb.Schema)
					d.Rows = tb.Rows[marks[n]:]
					if len(d.Rows) > 0 {
						deltas[n] = d
					}
				}
				dres, err := e.DeltaApply(rp, snaps, deltas)
				if err != nil {
					t.Fatal(err)
				}
				if dres.Kind == DeltaRemat {
					t.Fatalf("round %d: unexpected remat: %s", round, dres.Reason)
				}
				content = applyDelta(t, content, dres)
				rp.Sizes = dres.Sizes
				if dres.Kind == DeltaAgg {
					rp.States = dres.States
				}
				old = snaps

				remat, err := e.Run(plan, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(content.Rows, remat.Table.Rows) {
					t.Fatalf("round %d: incremental content diverges from remat (%d vs %d rows)",
						round, len(content.Rows), len(remat.Table.Rows))
				}
				// The carried sizes — including those of nodes the kernel
				// fuses away — equal a fresh priming over the new prefix.
				fresh, _, err := e.PrimeRefresh(plan, snaps)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(rp.Sizes, fresh.Sizes) {
					t.Fatalf("round %d: carried node sizes diverge from a fresh priming", round)
				}
			}
		})
	}
}

// TestDeltaApplyEmptyAndFiltered covers the two degenerate deltas: no
// appended rows at all, and appended rows that the plan's selection
// filters out entirely — both must report DeltaEmpty without touching
// content.
func TestDeltaApplyEmptyAndFiltered(t *testing.T) {
	e := deltaFixture(t)
	plan := deltaPlans(e)["filter-project"]
	tables := query.BaseTables(plan)
	old, _ := e.BaseSnapshots(tables)
	rp, _, err := e.PrimeRefresh(plan, old)
	if err != nil {
		t.Fatal(err)
	}

	res, err := e.DeltaApply(rp, old, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != DeltaEmpty {
		t.Fatalf("empty delta: got %s", res.Kind)
	}

	// Rows with f_k=99 fail the [10,80] range: a nonempty base delta
	// with an empty view delta.
	filtered := make([]relation.Row, 20)
	for i := range filtered {
		filtered[i] = relation.Row{relation.IntVal(99), relation.IntVal(0), relation.FloatVal(1.5)}
	}
	if _, err := e.AppendBase("fact", filtered); err != nil {
		t.Fatal(err)
	}
	snaps, _ := e.BaseSnapshots(tables)
	d := relation.NewTable(snaps["fact"].Schema)
	d.Rows = snaps["fact"].Rows[len(old["fact"].Rows):]
	res, err = e.DeltaApply(rp, snaps, map[string]*relation.Table{"fact": d})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != DeltaEmpty {
		t.Fatalf("all-filtered delta: got %s", res.Kind)
	}
}

// TestDeltaApplyRematFallbacks drives every condition under which the
// delta path must refuse: a delta on the join build side, an
// orientation flip, and both inputs changing.
func TestDeltaApplyRematFallbacks(t *testing.T) {
	e := deltaFixture(t)
	join := &query.Join{
		Left:  query.NewScan("fact", e.BaseTable("fact").Schema),
		Right: query.NewScan("dim", e.BaseTable("dim").Schema),
		LCol:  "f_k", RCol: "d_k",
	}
	tables := query.BaseTables(join)
	old, _ := e.BaseSnapshots(tables)
	rp, _, err := e.PrimeRefresh(join, old)
	if err != nil {
		t.Fatal(err)
	}

	// dim is the build side (100 < 400 rows): growing it must refuse.
	if _, err := e.AppendBase("dim", []relation.Row{{relation.IntVal(7), relation.StringVal("x")}}); err != nil {
		t.Fatal(err)
	}
	snaps, _ := e.BaseSnapshots(tables)
	dd := relation.NewTable(snaps["dim"].Schema)
	dd.Rows = snaps["dim"].Rows[100:]
	res, err := e.DeltaApply(rp, snaps, map[string]*relation.Table{"dim": dd})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != DeltaRemat {
		t.Fatalf("build-side delta: got %s", res.Kind)
	}

	// Both sides changing must refuse too.
	fd := relation.NewTable(snaps["fact"].Schema)
	fd.Rows = factDelta(3, 1)
	res, err = e.DeltaApply(rp, snaps, map[string]*relation.Table{"dim": dd, "fact": fd})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != DeltaRemat {
		t.Fatalf("both-sides delta: got %s", res.Kind)
	}

	// Orientation flip: prime with fact smaller than dim, then grow
	// fact past dim so the join would switch its build side.
	e2 := New(DefaultCostModel())
	smallFact := relation.NewTable(e.BaseTable("fact").Schema)
	for i := 0; i < 50; i++ {
		smallFact.Append(relation.Row{relation.IntVal(int64(i)), relation.IntVal(0), relation.FloatVal(1)})
	}
	e2.AddBaseTable(smallFact)
	e2.AddBaseTable(e.BaseTable("dim"))
	old2, _ := e2.BaseSnapshots(tables)
	rp2, _, err := e2.PrimeRefresh(join, old2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.AppendBase("fact", factDelta(200, 5)); err != nil {
		t.Fatal(err)
	}
	snaps2, _ := e2.BaseSnapshots(tables)
	fd2 := relation.NewTable(snaps2["fact"].Schema)
	fd2.Rows = snaps2["fact"].Rows[50:]
	res, err = e2.DeltaApply(rp2, snaps2, map[string]*relation.Table{"fact": fd2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != DeltaRemat {
		t.Fatalf("orientation flip: got %s", res.Kind)
	}
}

// TestPartialRootDeltaStates checks the partial-aggregate-rooted path
// (the shard tier's view shape): the merged state table must equal a
// from-scratch partial re-aggregation byte for byte.
func TestPartialRootDeltaStates(t *testing.T) {
	e := deltaFixture(t)
	agg := deltaPlans(e)["aggregate"].(*query.Aggregate)
	pa := *agg
	pa.Partial = true
	plan := query.Node(&pa)
	tables := query.BaseTables(plan)

	old, _ := e.BaseSnapshots(tables)
	rp, _, err := e.PrimeRefresh(plan, old)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AppendBase("fact", factDelta(80, 3)); err != nil {
		t.Fatal(err)
	}
	snaps, _ := e.BaseSnapshots(tables)
	fd := relation.NewTable(snaps["fact"].Schema)
	fd.Rows = snaps["fact"].Rows[400:]
	res, err := e.DeltaApply(rp, snaps, map[string]*relation.Table{"fact": fd})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != DeltaAgg {
		t.Fatalf("got %s (%s)", res.Kind, res.Reason)
	}
	remat, err := e.Run(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows.Rows, remat.Table.Rows) {
		t.Fatal("merged partial states diverge from a partial remat")
	}
}
