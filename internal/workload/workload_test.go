package workload

import (
	"math"
	"math/rand"
	"testing"

	"deepsea/internal/engine"
	"deepsea/internal/interval"
	"deepsea/internal/query"
)

func TestGenerateSizes(t *testing.T) {
	d := Generate(100, 1, nil)
	total := d.TotalBytes()
	want := int64(100) << 30
	// Within 20% of the requested instance size.
	if math.Abs(float64(total-want)) > 0.2*float64(want) {
		t.Errorf("TotalBytes = %d, want ~%d", total, want)
	}
	for _, spec := range tableSpecs {
		if _, ok := d.Tables[spec.name]; !ok {
			t.Errorf("missing table %s", spec.name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(10, 42, nil)
	b := Generate(10, 42, nil)
	for name := range a.Tables {
		if a.Tables[name].Fingerprint() != b.Tables[name].Fingerprint() {
			t.Errorf("table %s differs between equal-seed generations", name)
		}
	}
}

func TestFactKeysJoinWithItem(t *testing.T) {
	d := Generate(10, 1, nil)
	itemKeys := make(map[int64]bool)
	for _, row := range d.Tables["item"].Rows {
		itemKeys[row[0].Int()] = true
	}
	for _, fact := range []string{"store_sales", "web_clickstream", "product_reviews"} {
		for _, row := range d.Tables[fact].Rows {
			if !itemKeys[row[0].Int()] {
				t.Fatalf("%s contains item_sk %d absent from item", fact, row[0].Int())
			}
		}
	}
}

func TestAllTemplatesExecute(t *testing.T) {
	d := Generate(5, 1, nil)
	e := engine.New(engine.DefaultCostModel())
	for _, tbl := range d.Tables {
		e.AddBaseTable(tbl)
	}
	iv := interval.New(100000, 200000)
	for _, tpl := range AllTemplates {
		q := d.Query(tpl, iv)
		res, err := e.Run(q, nil)
		if err != nil {
			t.Fatalf("%s: %v", tpl, err)
		}
		if res.Table.NumRows() == 0 {
			t.Errorf("%s returned no rows for a 25%% range", tpl)
		}
		// The selection attribute must appear in the plan.
		foundSel := false
		query.Walk(q, func(n query.Node) {
			if s, ok := n.(*query.Select); ok {
				for _, r := range s.Ranges {
					if r.Col == tpl.SelectionAttr() && r.Iv == iv {
						foundSel = true
					}
				}
			}
		})
		if !foundSel {
			t.Errorf("%s: selection on %s not found", tpl, tpl.SelectionAttr())
		}
	}
}

func TestTemplateSelectionNotPushedDown(t *testing.T) {
	d := Generate(5, 1, nil)
	q := d.Query(Q30, interval.New(0, 1000))
	// Plan shape: Aggregate(Select(Project(Join(...)))).
	agg, ok := q.(*query.Aggregate)
	if !ok {
		t.Fatal("root is not an aggregate")
	}
	sel, ok := agg.Child.(*query.Select)
	if !ok {
		t.Fatal("selection is not directly below the aggregate")
	}
	proj, ok := sel.Child.(*query.Project)
	if !ok {
		t.Fatal("selection pushed below the map-side projection")
	}
	if _, ok := proj.Child.(*query.Join); !ok {
		t.Fatal("projection not directly over the join")
	}
	// The fused join must not be a separate Definition 6 candidate; the
	// projected join result is.
	cands := query.CandidateNodes(q)
	for _, c := range cands {
		if _, isJoin := c.(*query.Join); isJoin {
			t.Error("bare join listed as candidate despite projection fusion")
		}
	}
}

func TestRangesSelectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dom := ItemSkDomain()
	for _, sel := range []float64{Small, Medium, Big} {
		for _, ranges := range [][]interval.Interval{
			Ranges(50, sel, Uniform, dom, rng),
			Ranges(50, sel, Light, dom, rng),
			Ranges(50, sel, Heavy, dom, rng),
		} {
			for _, iv := range ranges {
				got := float64(iv.Len()) / float64(dom.Len())
				if math.Abs(got-sel) > 0.002 {
					t.Fatalf("range %v has selectivity %.4f, want %.2f", iv, got, sel)
				}
				if !dom.ContainsInterval(iv) {
					t.Fatalf("range %v outside domain", iv)
				}
			}
		}
	}
}

func TestSkewConcentration(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dom := ItemSkDomain()
	spread := func(ivs []interval.Interval) float64 {
		var mids []float64
		for _, iv := range ivs {
			mids = append(mids, float64(iv.Lo+iv.Hi)/2)
		}
		var mean float64
		for _, m := range mids {
			mean += m
		}
		mean /= float64(len(mids))
		var v float64
		for _, m := range mids {
			v += (m - mean) * (m - mean)
		}
		return math.Sqrt(v / float64(len(mids)))
	}
	u := spread(Ranges(200, Small, Uniform, dom, rng))
	l := spread(Ranges(200, Small, Light, dom, rng))
	h := spread(Ranges(200, Small, Heavy, dom, rng))
	if !(h < l && l < u) {
		t.Errorf("midpoint spreads not ordered: H=%.0f L=%.0f U=%.0f", h, l, u)
	}
	// Heavy skew sigma is 0.25% of the domain (~1000).
	if h > 3*0.0025*float64(dom.Len()) {
		t.Errorf("heavy skew spread %.0f too wide", h)
	}
}

func TestZipfRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dom := ItemSkDomain()
	ivs := ZipfRanges(500, Small, dom, 1.5, rng)
	if len(ivs) != 500 {
		t.Fatalf("got %d ranges", len(ivs))
	}
	// Zipf mass concentrates at the low end of the domain.
	low := 0
	for _, iv := range ivs {
		if (iv.Lo+iv.Hi)/2 < dom.Lo+dom.Len()/10 {
			low++
		}
	}
	if low < 250 {
		t.Errorf("only %d/500 Zipf midpoints in the lowest decile", low)
	}
}

func TestShiftingRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dom := ItemSkDomain()
	ivs := ShiftingRanges([]int64{20000, 40000, 60000}, 10, Small, Heavy, dom, rng)
	if len(ivs) != 30 {
		t.Fatalf("got %d ranges, want 30", len(ivs))
	}
	for phase := 0; phase < 3; phase++ {
		center := float64(20000 * (phase + 1))
		for i := phase * 10; i < (phase+1)*10; i++ {
			mid := float64(ivs[i].Lo+ivs[i].Hi) / 2
			if math.Abs(mid-center) > 0.05*float64(dom.Len()) {
				t.Errorf("query %d midpoint %.0f far from phase center %.0f", i, mid, center)
			}
		}
	}
}

func TestRangeAtClamping(t *testing.T) {
	dom := interval.New(0, 100)
	if got := rangeAt(-50, 10, dom); got.Lo != 0 || got.Len() != 10 {
		t.Errorf("low clamp: %v", got)
	}
	if got := rangeAt(200, 10, dom); got.Hi != 100 || got.Len() != 10 {
		t.Errorf("high clamp: %v", got)
	}
	if got := rangeAt(50, 1000, dom); !dom.ContainsInterval(got) {
		t.Errorf("oversized range not clamped: %v", got)
	}
}

func TestKeyIndexes(t *testing.T) {
	got := Generate(1, 1, nil).KeyIndexes()
	want := map[string]int{
		"item":            0,
		"store_sales":     0,
		"web_clickstream": 0,
		"product_reviews": 0,
	}
	if len(got) != len(want) {
		t.Fatalf("KeyIndexes = %v, want %v", got, want)
	}
	for table, idx := range want {
		if g, ok := got[table]; !ok || g != idx {
			t.Errorf("KeyIndexes[%q] = %d (present %v), want %d", table, g, ok, idx)
		}
	}
	// Replicated dimensions must stay out of the map so coordinators
	// broadcast their appends.
	for _, table := range []string{"customer", "store"} {
		if _, ok := got[table]; ok {
			t.Errorf("KeyIndexes unexpectedly contains replicated table %q", table)
		}
	}
}
