package engine

import (
	"bytes"
	"strings"
	"testing"

	"deepsea/internal/interval"
	"deepsea/internal/leakcheck"
	"deepsea/internal/query"
	"deepsea/internal/relation"
)

// bigEngine returns an engine whose sales table spans several chunks
// (nRows >> chunkRows), so parallel execution really fans out, plus the
// usual item dimension.
func bigEngine(nRows int) *Engine {
	e := New(DefaultCostModel())
	sales := relation.NewTable(salesSchema())
	for i := 0; i < nRows; i++ {
		sales.Append(relation.Row{
			relation.IntVal(int64(i % 100)),
			relation.IntVal(int64(i%7 + 1)),
			relation.FloatVal(float64(i%13) + 0.25),
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

// sameRows reports exact row-order-and-value equality — stricter than
// Fingerprint, which is order-independent.
func sameRows(a, b *relation.Table) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j := range a.Rows[i] {
			if !sameCell(a.Schema.Cols[j].Type, a.Rows[i][j], b.Rows[i][j]) {
				return false
			}
		}
	}
	return true
}

// sameCell reports whether two cells of one column type hold the same
// bits (Int, Float) or text (String): Value has no ==.
func sameCell(typ relation.Type, a, b relation.Value) bool {
	return bytes.Equal(relation.AppendKey(nil, typ, a), relation.AppendKey(nil, typ, b))
}

// TestParallelDeterminism runs every parallelized operator over a
// multi-chunk table at several worker counts and demands byte-identical
// output — same rows, same order, same float accumulation.
func TestParallelDeterminism(t *testing.T) {
	leakcheck.Check(t)
	const nRows = 3*chunkRows + 17
	plans := map[string]func() query.Node{
		"filter": func() query.Node {
			return &query.Select{
				Child:  query.NewScan("sales", salesSchema()),
				Ranges: []query.RangePred{{Col: "ss_item_sk", Iv: interval.New(10, 79)}},
			}
		},
		"project": func() query.Node {
			return &query.Project{
				Child: query.NewScan("sales", salesSchema()),
				Cols:  []string{"ss_price", "ss_item_sk"},
			}
		},
		"join": func() query.Node {
			return &query.Join{
				Left:  query.NewScan("sales", salesSchema()),
				Right: query.NewScan("item", itemSchema()),
				LCol:  "ss_item_sk",
				RCol:  "i_item_sk",
			}
		},
		"aggregate": func() query.Node {
			return &query.Aggregate{
				Child:   query.NewScan("sales", salesSchema()),
				GroupBy: []string{"ss_item_sk"},
				Aggs: []query.AggSpec{
					{Func: query.Count, As: "n"},
					{Func: query.Sum, Col: "ss_price", As: "total"},
					{Func: query.Avg, Col: "ss_price", As: "avg"},
					{Func: query.Min, Col: "ss_qty", As: "lo"},
					{Func: query.Max, Col: "ss_qty", As: "hi"},
				},
			}
		},
		"join-aggregate": func() query.Node {
			return &query.Aggregate{
				Child: &query.Join{
					Left:  query.NewScan("sales", salesSchema()),
					Right: query.NewScan("item", itemSchema()),
					LCol:  "ss_item_sk",
					RCol:  "i_item_sk",
				},
				GroupBy: []string{"i_category"},
				Aggs:    []query.AggSpec{{Func: query.Sum, Col: "ss_price", As: "total"}},
			}
		},
	}
	for name, mk := range plans {
		t.Run(name, func(t *testing.T) {
			var want *relation.Table
			for _, par := range []int{1, 3, 8} {
				e := bigEngine(nRows)
				e.Parallelism = par
				got := mustRun(t, e, mk()).Table
				if want == nil {
					want = got
					continue
				}
				if !sameRows(want, got) {
					t.Errorf("parallelism %d changed the result", par)
				}
			}
		})
	}
}

// TestParallelViewScanDeterminism covers the stored-fragment filter path
// (evalViewScan) at several worker counts.
func TestParallelViewScanDeterminism(t *testing.T) {
	leakcheck.Check(t)
	ivs := []interval.Interval{interval.New(0, 50), interval.New(40, 99)}
	queryIv := interval.New(30, 70)
	var want *relation.Table
	for _, par := range []int{1, 3, 8} {
		e := testEngine()
		e.Parallelism = par
		materializeJoinView(t, e, ivs)
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
		got := mustRun(t, e, vs).Table
		if want == nil {
			want = got
			continue
		}
		if !sameRows(want, got) {
			t.Errorf("parallelism %d changed the view-scan result", par)
		}
	}
}

// TestParallelMultiGapRemainderDeterminism covers the inter-operator
// path of evalViewScan: a fragment cover with several gaps, so multiple
// remainder subplans and stored-fragment filters run as one task pool.
// Output rows, their order, and every captured intermediate must be
// byte-identical at every worker count.
func TestParallelMultiGapRemainderDeterminism(t *testing.T) {
	leakcheck.Check(t)
	ivs := []interval.Interval{interval.New(20, 40), interval.New(60, 80)}
	queryIv := interval.New(0, 99)
	gaps := []interval.Interval{interval.New(0, 19), interval.New(41, 59), interval.New(81, 99)}

	type outcome struct {
		out  *relation.Table
		caps []*relation.Table
	}
	var want *outcome
	for _, par := range []int{1, 3, 8} {
		e := testEngine()
		e.Parallelism = par
		materializeJoinView(t, e, ivs)
		vs := &query.ViewScan{
			ViewID:     "j",
			ViewSchema: joinPlan().Schema(),
			PartAttr:   "ss_item_sk",
			CompRanges: []query.RangePred{{Col: "ss_item_sk", Iv: queryIv}},
		}
		for _, iv := range ivs {
			vs.FragIDs = append(vs.FragIDs, fragPath(iv))
			vs.Reads = append(vs.Reads, iv)
			vs.FragIvs = append(vs.FragIvs, iv)
		}
		capture := make(map[query.Node]Capture)
		for _, gap := range gaps {
			rem := &query.Select{
				Child:  joinPlan(),
				Ranges: []query.RangePred{{Col: "ss_item_sk", Iv: gap}},
			}
			vs.Remainders = append(vs.Remainders, rem)
			capture[rem] = Capture{Level: CaptureRows}
		}
		res, err := e.Run(vs, capture)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		got := &outcome{out: res.Table}
		for _, rem := range vs.Remainders {
			tbl, ok := res.Captured[rem]
			if !ok || tbl == nil {
				t.Fatalf("parallelism %d: remainder capture missing", par)
			}
			got.caps = append(got.caps, tbl)
		}
		if want == nil {
			want = got
			continue
		}
		if !sameRows(want.out, got.out) {
			t.Errorf("parallelism %d changed the multi-gap result", par)
		}
		for i := range want.caps {
			if !sameRows(want.caps[i], got.caps[i]) {
				t.Errorf("parallelism %d changed captured remainder %d", par, i)
			}
		}
	}
	// Sanity: the union really covers the whole range — 10 sales rows per
	// item_sk value, 100 values.
	if want.out.NumRows() != 1000 {
		t.Errorf("multi-gap union rows = %d, want 1000", want.out.NumRows())
	}
}

// TestGroupKeyCollisionRegression builds two rows whose group keys
// collided under the old separator-based encoding: per string value the
// key was [I][F][S][0x1f], so a value containing 0x1f followed by
// another value's zero-prefix was indistinguishable from the split
// placed one value later. The length-prefixed encoding keeps them apart.
func TestGroupKeyCollisionRegression(t *testing.T) {
	schema := relation.Schema{Name: "t", Cols: []relation.Column{
		{Name: "s1", Type: relation.String},
		{Name: "s2", Type: relation.String},
	}}
	tbl := relation.NewTable(schema)
	z16 := strings.Repeat("\x00", 16)
	// Old encoding of both rows: [z16]"a"[1f][z16][1f][z16][1f].
	tbl.Append(relation.Row{relation.StringVal("a"), relation.StringVal("\x1f" + z16)})
	tbl.Append(relation.Row{relation.StringVal("a\x1f" + z16), relation.StringVal("")})
	e := New(DefaultCostModel())
	e.AddBaseTable(tbl)
	res := mustRun(t, e, &query.Aggregate{
		Child:   query.NewScan("t", schema),
		GroupBy: []string{"s1", "s2"},
		Aggs:    []query.AggSpec{{Func: query.Count, As: "n"}},
	})
	if res.Table.NumRows() != 2 {
		t.Errorf("distinct group keys merged: got %d groups, want 2", res.Table.NumRows())
	}
}

// TestMalformedViewScanErrors feeds the executor and the estimator a
// ViewScan whose fragment list and clip ranges disagree; both must
// return an error rather than panic on the index mismatch.
func TestMalformedViewScanErrors(t *testing.T) {
	vs := &query.ViewScan{
		ViewID:     "j",
		ViewSchema: joinPlan().Schema(),
		PartAttr:   "ss_item_sk",
		FragIDs:    []string{"views/j/ss_item_sk/[0,10]", "views/j/ss_item_sk/[11,20]"},
		Reads:      []interval.Interval{interval.New(0, 10)},
	}
	e := testEngine()
	if _, err := e.Run(vs, nil); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Errorf("Run: want malformed-ViewScan error, got %v", err)
	}
	if _, err := e.EstimateCost(vs); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Errorf("EstimateCost: want malformed-ViewScan error, got %v", err)
	}
}
