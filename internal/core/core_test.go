package core

import (
	"fmt"
	"math/rand"
	"testing"

	"deepsea/internal/engine"
	"deepsea/internal/interval"
	"deepsea/internal/query"
	"deepsea/internal/relation"
	"deepsea/internal/signature"
)

const (
	testDomLo = 0
	testDomHi = 9999
)

func salesSchema() relation.Schema {
	return relation.Schema{
		Name: "sales",
		Cols: []relation.Column{
			// Width scales rows so that byte costs are paper-scale: the
			// 20k-row table models ~40 GB, most of it in the padding
			// column that projections drop (like the real generator).
			{Name: "ss_item_sk", Type: relation.Int, Ordered: true, Lo: testDomLo, Hi: testDomHi, Width: 1 << 18},
			{Name: "ss_qty", Type: relation.Int, Width: 1 << 18},
			{Name: "ss_pad", Type: relation.String, Width: 3 << 19},
		},
	}
}

func itemSchema() relation.Schema {
	return relation.Schema{
		Name: "item",
		Cols: []relation.Column{
			{Name: "i_item_sk", Type: relation.Int, Ordered: true, Lo: testDomLo, Hi: testDomHi, Width: 1 << 18},
			{Name: "i_category", Type: relation.String, Width: 1 << 18},
		},
	}
}

func addTestTables(d *DeepSea) {
	rng := rand.New(rand.NewSource(7))
	sales := relation.NewTable(salesSchema())
	for i := 0; i < 20000; i++ {
		sales.Append(relation.Row{
			relation.IntVal(rng.Int63n(testDomHi + 1)),
			relation.IntVal(rng.Int63n(50) + 1),
			relation.StringVal(""),
		})
	}
	d.AddBaseTable(sales)
	item := relation.NewTable(itemSchema())
	cats := []string{"books", "music", "video", "games", "food"}
	for i := 0; i <= testDomHi; i++ {
		item.Append(relation.Row{
			relation.IntVal(int64(i)),
			relation.StringVal(cats[i%len(cats)]),
		})
	}
	d.AddBaseTable(item)
}

// q30 builds the canonical template: aggregate over a range selection
// over a projected join — the selection deliberately NOT pushed below
// the join, the projection fused map-side like the real templates.
func q30(lo, hi int64) query.Node {
	return &query.Aggregate{
		Child: &query.Select{
			Child: &query.Project{
				Child: &query.Join{
					Left:  query.NewScan("sales", salesSchema()),
					Right: query.NewScan("item", itemSchema()),
					LCol:  "ss_item_sk",
					RCol:  "i_item_sk",
				},
				Cols: []string{"ss_item_sk", "ss_qty", "i_category"},
			},
			Ranges: []query.RangePred{{Col: "ss_item_sk", Iv: interval.New(lo, hi)}},
		},
		GroupBy: []string{"i_category"},
		Aggs: []query.AggSpec{
			{Func: query.Count, As: "n"},
			{Func: query.Sum, Col: "ss_qty", As: "total_qty"},
		},
	}
}

// testConfig returns a DeepSea config tuned for the small test tables: a
// small block size so fragments can form.
func testConfig() Config {
	cfg := DefaultConfig()
	cm := engine.DefaultCostModel()
	cfg.CostModel = &cm
	cfg.MinFragBytes = 64 << 20 // 64 MB at paper scale
	return cfg
}

func newTestSystem(t *testing.T, mutate func(*Config)) *DeepSea {
	t.Helper()
	cfg := testConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	d := New(cfg)
	addTestTables(d)
	return d
}

func run(t *testing.T, d *DeepSea, q query.Node) QueryReport {
	t.Helper()
	rep, err := d.ProcessQuery(q)
	if err != nil {
		t.Fatalf("ProcessQuery: %v", err)
	}
	return rep
}

func TestHiveModeNeverMaterializes(t *testing.T) {
	d := newTestSystem(t, func(c *Config) { c.Materialize = false })
	for i := 0; i < 3; i++ {
		rep := run(t, d, q30(100, 600))
		if rep.Rewritten || len(rep.MaterializedViews) > 0 {
			t.Fatal("vanilla mode materialized or rewrote")
		}
	}
	if d.Pool.TotalSize() != 0 {
		t.Error("vanilla mode stored data")
	}
}

func TestNPMaterializesAndReuses(t *testing.T) {
	d := newTestSystem(t, func(c *Config) { c.Partition = PartitionNone })
	r1 := run(t, d, q30(100, 600))
	if len(r1.MaterializedViews) == 0 {
		t.Fatal("first query did not materialize the join view")
	}
	r2 := run(t, d, q30(2000, 2500))
	if !r2.Rewritten {
		t.Fatal("second query did not reuse the view")
	}
	if r2.ExecCost.Seconds >= r1.ExecCost.Seconds {
		t.Errorf("reuse cost %.1f >= first cost %.1f", r2.ExecCost.Seconds, r1.ExecCost.Seconds)
	}
}

func TestAdaptivePartitioningAlignsToQuery(t *testing.T) {
	d := newTestSystem(t, nil)
	r1 := run(t, d, q30(1000, 1999)) // 10% selectivity
	if len(r1.MaterializedViews) == 0 {
		t.Fatal("view not materialized")
	}
	// The join view must be partitioned with boundaries at 1000/2000.
	var found bool
	for _, pv := range d.Pool.Views() {
		for _, part := range pv.Parts {
			for _, f := range part.Fragments() {
				if f.Iv == interval.New(1000, 1999) {
					found = true
				}
			}
		}
	}
	if !found {
		t.Error("no fragment aligned to the query range [1000,1999]")
	}

	// A query over a subrange must read exactly one fragment, no
	// remainder. (An exact repeat would be answered by the materialized
	// aggregate view instead — also correct, but not what we probe here.)
	r2 := run(t, d, q30(1100, 1899))
	if !r2.Rewritten || r2.FragmentsRead != 1 || r2.RemainderGaps != 0 {
		t.Errorf("subrange query: rewritten=%v frags=%d gaps=%d",
			r2.Rewritten, r2.FragmentsRead, r2.RemainderGaps)
	}
	if r2.ExecCost.Seconds >= r1.ExecCost.Seconds/2 {
		t.Errorf("fragment reuse not cheap enough: %.1f vs %.1f",
			r2.ExecCost.Seconds, r1.ExecCost.Seconds)
	}
}

func TestProgressiveRefinementSplitsFragments(t *testing.T) {
	d := newTestSystem(t, func(c *Config) { c.Partition = PartitionAdaptive })
	run(t, d, q30(0, 4999)) // creates view partitioned at 5000
	fragsBefore := totalFragments(d)
	// Repeated queries inside the cold half accumulate benefit until the
	// split cost is offset (Section 7.2's filter); the refinement must
	// eventually trigger — the paper's Figure 10 shows the same
	// multi-query amortization.
	fragsAfter := fragsBefore
	for i := 0; i < 15 && fragsAfter <= fragsBefore; i++ {
		run(t, d, q30(7000, 7999+int64(i))) // slight jitter avoids the aggregate-view shortcut
		fragsAfter = totalFragments(d)
	}
	if fragsAfter <= fragsBefore {
		t.Errorf("no refinement after 15 queries: %d -> %d fragments", fragsBefore, fragsAfter)
	}
	// Horizontal mode must keep fragments disjoint.
	for _, pv := range d.Pool.Views() {
		for _, part := range pv.Parts {
			if err := part.Validate(); err != nil {
				t.Error(err)
			}
		}
	}
}

func TestOverlappingRefinementKeepsParents(t *testing.T) {
	d := newTestSystem(t, nil) // default overlap mode
	run(t, d, q30(0, 4999))
	run(t, d, q30(7000, 7999))
	run(t, d, q30(7000, 7999))
	// Overlap mode: some partition may now be non-disjoint but must
	// still validate as overlapping.
	for _, pv := range d.Pool.Views() {
		for _, part := range pv.Parts {
			if !part.Overlapping {
				t.Error("partition not marked overlapping in overlap mode")
			}
			if err := part.Validate(); err != nil {
				t.Error(err)
			}
		}
	}
}

func totalFragments(d *DeepSea) int {
	n := 0
	for _, pv := range d.Pool.Views() {
		for _, part := range pv.Parts {
			n += part.NumFragments()
		}
	}
	return n
}

func TestEquiDepthPartitioning(t *testing.T) {
	d := newTestSystem(t, func(c *Config) {
		c.Partition = PartitionEquiDepth
		c.EquiDepthK = 6
		c.MaxFragFraction = 0
	})
	run(t, d, q30(100, 600))
	for _, pv := range d.Pool.Views() {
		for _, part := range pv.Parts {
			if part.NumFragments() != 6 {
				t.Errorf("equi-depth fragments = %d, want 6", part.NumFragments())
			}
			// Fragment sizes should be roughly equal (true equi-depth).
			var mn, mx int64 = 1 << 62, 0
			for _, f := range part.Fragments() {
				if f.Size < mn {
					mn = f.Size
				}
				if f.Size > mx {
					mx = f.Size
				}
			}
			if mn == 0 || float64(mx)/float64(mn) > 1.5 {
				t.Errorf("equi-depth sizes too skewed: min=%d max=%d", mn, mx)
			}
		}
	}
	// Equi-depth never refines.
	before := totalFragments(d)
	run(t, d, q30(3000, 3100))
	run(t, d, q30(3000, 3100))
	if totalFragments(d) != before {
		t.Error("equi-depth refined its partitioning")
	}
}

func TestPoolLimitEnforcedEventually(t *testing.T) {
	// Tiny pool: after each query's settlement the pool must respect
	// Smax (transient overshoot during a query is allowed).
	d := newTestSystem(t, func(c *Config) { c.Smax = 2 << 30 })
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		lo := rng.Int63n(9000)
		run(t, d, q30(lo, lo+999))
		if got := d.Pool.TotalSize(); got > d.Cfg.Smax {
			// The selection is a strict prefix under Smax, so after
			// eviction the pool is within the limit except for items
			// created this round that the next selection will handle.
			t.Logf("pool size %d exceeds Smax %d at query %d (transient)", got, d.Cfg.Smax, i)
		}
	}
	// Run one more query; afterwards the pool must be within 2x Smax
	// (strict-prefix selection can keep at most Smax of ranked items
	// plus this round's creations).
	run(t, d, q30(0, 999))
	if got := d.Pool.TotalSize(); got > 2*d.Cfg.Smax {
		t.Errorf("pool size %d far exceeds Smax %d", got, d.Cfg.Smax)
	}
}

func TestEvictionRemovesFiles(t *testing.T) {
	d := newTestSystem(t, func(c *Config) { c.Smax = 1 << 30 })
	var evicted int
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10; i++ {
		lo := rng.Int63n(9000)
		rep := run(t, d, q30(lo, lo+999))
		evicted += len(rep.Evicted)
	}
	if evicted == 0 {
		t.Skip("no evictions triggered; pool larger than workload footprint")
	}
	// FS and pool accounting must agree.
	if d.Eng.FS().TotalSize() != d.Pool.TotalSize() {
		t.Errorf("FS size %d != pool size %d", d.Eng.FS().TotalSize(), d.Pool.TotalSize())
	}
}

// The heavyweight correctness property: across an evolving workload, every
// strategy returns exactly the rows a vanilla execution returns.
func TestAllStrategiesProduceCorrectResults(t *testing.T) {
	strategies := map[string]func(*Config){
		"NP":      func(c *Config) { c.Partition = PartitionNone },
		"E-6":     func(c *Config) { c.Partition = PartitionEquiDepth; c.EquiDepthK = 6; c.MaxFragFraction = 0 },
		"DS-H":    func(c *Config) { c.Partition = PartitionAdaptive },
		"DS":      nil,
		"NR":      func(c *Config) { c.Partition = PartitionAdaptiveNoRepartition },
		"N":       func(c *Config) { c.Selection = SelectNectar },
		"N+":      func(c *Config) { c.Selection = SelectNectarPlus },
		"DS-raw":  func(c *Config) { c.Selection = SelectDeepSeaRawHits },
		"DS-4GB":  func(c *Config) { c.Smax = 4 << 30 },
		"DS-tiny": func(c *Config) { c.Smax = 1 << 28 },
	}
	// Evolving workload: hot spot moves.
	type qr struct{ lo, hi int64 }
	var workload []qr
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 12; i++ {
		center := int64(2000)
		if i >= 6 {
			center = 7000
		}
		lo := center + rng.Int63n(800) - 400
		workload = append(workload, qr{lo, lo + 500})
	}

	vanilla := newTestSystem(t, func(c *Config) { c.Materialize = false })
	var want []string
	for _, w := range workload {
		rep := run(t, vanilla, q30(w.lo, w.hi))
		want = append(want, rep.Result.Fingerprint())
	}

	for name, mutate := range strategies {
		t.Run(name, func(t *testing.T) {
			d := newTestSystem(t, mutate)
			for i, w := range workload {
				rep := run(t, d, q30(w.lo, w.hi))
				if got := rep.Result.Fingerprint(); got != want[i] {
					t.Fatalf("query %d (%d-%d): wrong result", i, w.lo, w.hi)
				}
			}
		})
	}
}

func TestDeepSeaBeatsHiveOnRepeatedWorkload(t *testing.T) {
	hive := newTestSystem(t, func(c *Config) { c.Materialize = false })
	ds := newTestSystem(t, nil)
	rng := rand.New(rand.NewSource(23))
	var hiveTotal, dsTotal float64
	for i := 0; i < 10; i++ {
		lo := 3000 + rng.Int63n(500)
		q := q30(lo, lo+499)
		hiveTotal += run(t, hive, q30(lo, lo+499)).TotalSeconds
		dsTotal += run(t, ds, q).TotalSeconds
	}
	if dsTotal >= hiveTotal {
		t.Errorf("DeepSea total %.0fs >= Hive total %.0fs on a skewed repeated workload",
			dsTotal, hiveTotal)
	}
}

func TestReportFields(t *testing.T) {
	d := newTestSystem(t, nil)
	r1 := run(t, d, q30(100, 1099))
	if r1.TotalSeconds != r1.ExecCost.Seconds+r1.MatCost.Seconds {
		t.Error("TotalSeconds != ExecCost + MatCost")
	}
	if r1.MatCost.Seconds <= 0 {
		t.Error("creation charged no cost")
	}
	r2 := run(t, d, q30(100, 1099))
	if !r2.Rewritten || r2.UsedView == "" {
		t.Error("second query report missing rewriting info")
	}
	fmt.Fprintln(nopWriter{}, r2) // exercise String paths indirectly
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestHiveBaselineUsesPushdown: the vanilla arm must run the
// pushed-down plan, making it cheaper than DeepSea's unpushed first
// query (before materialization overhead is even added).
func TestHiveBaselineUsesPushdown(t *testing.T) {
	hive := newTestSystem(t, func(c *Config) { c.Materialize = false })
	ds := newTestSystem(t, nil)
	q := q30(1000, 1099) // 1% selectivity: pushdown saves a lot of shuffle
	h := run(t, hive, q30(1000, 1099))
	d := run(t, ds, q)
	if h.ExecCost.Seconds >= d.ExecCost.Seconds {
		t.Errorf("pushed-down Hive (%.1fs) not cheaper than DeepSea's unpushed first run (%.1fs)",
			h.ExecCost.Seconds, d.ExecCost.Seconds)
	}
	if h.ExecCost.ShuffleBytes >= d.ExecCost.ShuffleBytes {
		t.Errorf("pushdown did not shrink shuffle: %d vs %d",
			h.ExecCost.ShuffleBytes, d.ExecCost.ShuffleBytes)
	}
}

func TestStringersAndDefaults(t *testing.T) {
	modes := map[PartitionMode]string{
		PartitionNone: "NP", PartitionEquiDepth: "E",
		PartitionAdaptive: "DS-H", PartitionAdaptiveOverlap: "DS",
		PartitionAdaptiveNoRepartition: "NR", PartitionMode(99): "?",
	}
	for m, want := range modes {
		if m.String() != want {
			t.Errorf("PartitionMode(%d).String() = %q, want %q", m, m.String(), want)
		}
	}
	policies := map[SelectionPolicy]string{
		SelectDeepSea: "DS", SelectDeepSeaRawHits: "DS-raw",
		SelectNectar: "N", SelectNectarPlus: "N+", SelectionPolicy(99): "?",
	}
	for p, want := range policies {
		if p.String() != want {
			t.Errorf("SelectionPolicy(%d).String() = %q, want %q", p, p.String(), want)
		}
	}
	// minFragBytes fallbacks: explicit > cost model block > default block.
	c := Config{MinFragBytes: 42}
	if c.minFragBytes() != 42 {
		t.Error("explicit MinFragBytes ignored")
	}
	c = Config{}
	if c.minFragBytes() <= 0 {
		t.Error("default minFragBytes not positive")
	}
	d := newTestSystem(t, nil)
	if d.Now() != 1 {
		t.Errorf("fresh clock = %g", d.Now())
	}
}

// TestNoDuplicateCoverageWrites is the regression test for the
// constrained-pool churn bug: partial re-materialization must write only
// the UNCOVERED gaps of a proposed piece, never duplicate ranges that
// existing fragments already cover (duplicates re-written every query
// ballooned materialization cost ~3x in the Figure 5b regime).
func TestNoDuplicateCoverageWrites(t *testing.T) {
	d := newTestSystem(t, func(c *Config) { c.Smax = 3 << 30 })
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 25; i++ {
		lo := 2000 + rng.Int63n(500)
		run(t, d, q30(lo, lo+400))
	}
	// Overlapping partitioning legitimately stores extra copies of hot
	// ranges (Example 2 trades storage for write avoidance), so some
	// amplification is expected; the bug this guards against re-wrote
	// whole pieces every query, amplifying storage and writes without
	// bound (~25x in the Figure 5b regime).
	for _, pv := range d.Pool.Views() {
		for attr, part := range pv.Parts {
			var stored, covered int64
			frags, reads, _ := part.Cover(interval.New(testDomLo, testDomHi))
			for i, f := range frags {
				covered += int64(float64(f.Size) * float64(reads[i].Len()) / float64(f.Iv.Len()))
			}
			for _, f := range part.Fragments() {
				stored += f.Size
			}
			if covered > 0 && float64(stored) > 5*float64(covered) {
				t.Errorf("%s.%s: stored %d bytes vs minimal cover %d — duplicated coverage",
					shortID(pv.ID), attr, stored, covered)
			}
		}
	}
}

// TestFullAndPartialAggregatesShareASystem: a full-mode and a
// partial-mode instance of one aggregate template run on one system.
// The full-mode root aggregate is stored first; the partial-mode plan
// over the same range must not be answered from it (it used to match —
// the signature did not carry the mode — and planning panicked looking
// for "n#count" in the full-mode schema), and neither mode's stored
// aggregate ever matches the other's query.
func TestFullAndPartialAggregatesShareASystem(t *testing.T) {
	partialQ30 := func(lo, hi int64) query.Node {
		a := q30(lo, hi).(*query.Aggregate)
		a.Partial = true
		return a
	}
	reference := newTestSystem(t, func(c *Config) { c.Materialize = false })
	wantPartial := resultJSON(t, run(t, reference, partialQ30(0, 4999)))
	wantFull := resultJSON(t, run(t, reference, q30(5000, 9999)))

	d := newTestSystem(t, nil)
	run(t, d, q30(0, 4999))
	run(t, d, q30(0, 4999))
	fullID := signature.Of(q30(0, 4999)).Key()
	if pv := d.Pool.View(fullID); pv == nil || pv.Path == "" {
		t.Fatal("the full-mode root aggregate was not stored; the fixture proves nothing")
	}
	rep := run(t, d, partialQ30(0, 4999))
	if got := resultJSON(t, rep); got != wantPartial {
		t.Errorf("partial-mode answer differs from the unmaterialized reference")
	}
	if rep.UsedView == fullID {
		t.Error("a partial-mode query was answered from the full-mode aggregate view")
	}

	// The other way round: a stored partial-mode aggregate and a
	// full-mode query over its range.
	d = newTestSystem(t, nil)
	run(t, d, partialQ30(5000, 9999))
	partialID := signature.Of(partialQ30(5000, 9999)).Key()
	if pv := d.Pool.View(partialID); pv == nil || pv.Path == "" {
		t.Fatal("the partial-mode root aggregate was not stored; the fixture proves nothing")
	}
	rep = run(t, d, q30(5000, 9999))
	if got := resultJSON(t, rep); got != wantFull {
		t.Errorf("full-mode answer differs from the unmaterialized reference")
	}
	if rep.UsedView == partialID {
		t.Error("a full-mode query was answered from the partial-mode aggregate view")
	}
	if _, ok := signature.Match(signature.Of(q30(0, 4999)), signature.Of(partialQ30(0, 4999))); ok {
		t.Error("a full-mode view signature matches the partial-mode query")
	}
	if _, ok := signature.Match(signature.Of(partialQ30(0, 4999)), signature.Of(q30(0, 4999))); ok {
		t.Error("a partial-mode view signature matches the full-mode query")
	}
}
