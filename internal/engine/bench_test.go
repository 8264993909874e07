package engine

import (
	"fmt"
	"math/bits"
	"runtime"
	"testing"

	"deepsea/internal/interval"
	"deepsea/internal/query"
	"deepsea/internal/relation"
)

// Layer microbenchmarks for the row data path, at the sizes the
// serve_adaptive workload runs them: a 24 000-row fact table probing a
// 4 800-row dimension, and the chain that goes on to a 13-row one.
// allocs/op is exact and gated by TestFusedProbeAllocations,
// TestFusedChainAllocations and TestAggregateAllocations; ns/op is
// advisory.
//
//	go test -run '^$' -bench . -benchmem ./internal/engine

const (
	benchFactRows = 24000
	benchDimRows  = 4800
)

// probeFixture returns a fact and a dimension table shaped like
// store_sales and item — every fact row joins exactly one dimension row —
// and the template stack over them: a range selection over the
// projected join.
func probeFixture(factRows, dimRows int) (fact, dim *relation.Table, sel *query.Select) {
	fact = relation.NewTable(relation.Schema{Name: "fact", Cols: []relation.Column{
		{Name: "f_k", Type: relation.Int, Ordered: true, Lo: 0, Hi: int64(dimRows) - 1},
		{Name: "f_cust", Type: relation.Int},
		{Name: "f_store", Type: relation.Int},
		{Name: "f_date", Type: relation.Int},
		{Name: "f_qty", Type: relation.Int},
		{Name: "f_price", Type: relation.Float},
		{Name: "f_note", Type: relation.String},
	}})
	for i := 0; i < factRows; i++ {
		fact.Append(relation.Row{
			relation.IntVal(int64(i * 7919 % dimRows)),
			relation.IntVal(int64(i % 997)),
			relation.IntVal(int64(i % 13)),
			relation.IntVal(int64(i % 365)),
			relation.IntVal(int64(1 + i%9)),
			relation.FloatVal(0.1 * float64(i%311)),
			relation.StringVal("n"),
		})
	}
	dim = relation.NewTable(relation.Schema{Name: "dim", Cols: []relation.Column{
		{Name: "d_k", Type: relation.Int},
		{Name: "d_cat", Type: relation.Int},
		{Name: "d_name", Type: relation.String},
		{Name: "d_price", Type: relation.Float},
	}})
	for i := 0; i < dimRows; i++ {
		dim.Append(relation.Row{
			relation.IntVal(int64(i)),
			relation.IntVal(int64(i % 10)),
			relation.StringVal(fmt.Sprintf("item-%d", i)),
			relation.FloatVal(float64(i%500) / 4),
		})
	}
	join := &query.Join{
		Left: query.NewScan("fact", fact.Schema), Right: query.NewScan("dim", dim.Schema),
		LCol: "f_k", RCol: "d_k",
	}
	proj := &query.Project{Child: join, Cols: []string{"f_k", "d_cat", "f_qty", "f_price"}}
	// 5% of the key domain, as the workloads' selections are.
	lo := int64(dimRows) * 2 / 5
	sel = &query.Select{Child: proj, Ranges: []query.RangePred{{Col: "f_k", Iv: interval.New(lo, lo+int64(dimRows)/20-1)}}}
	return fact, dim, sel
}

// chainFixture extends probeFixture's stack over fact and dim into the
// Q7 shape: the projected fact ⋈ dimension joined on to a 13-row
// dimension like store, projected, and the same 5% selection over it.
func chainFixture(fact, dim *relation.Table) (small *relation.Table, sel *query.Select) {
	small = relation.NewTable(relation.Schema{Name: "small", Cols: []relation.Column{
		{Name: "s_k", Type: relation.Int},
		{Name: "s_region", Type: relation.Int},
		{Name: "s_name", Type: relation.String},
	}})
	for i := 0; i < 13; i++ {
		small.Append(relation.Row{relation.IntVal(int64(i)), relation.IntVal(int64(i % 4)), relation.StringVal(fmt.Sprintf("store-%d", i))})
	}
	inner := &query.Project{
		Child: &query.Join{Left: query.NewScan("fact", fact.Schema), Right: query.NewScan("dim", dim.Schema), LCol: "f_k", RCol: "d_k"},
		Cols:  []string{"f_k", "f_store", "d_cat", "f_qty"},
	}
	join := &query.Join{Left: inner, Right: query.NewScan("small", small.Schema), LCol: "f_store", RCol: "s_k"}
	lo := int64(len(dim.Rows)) * 2 / 5
	sel = &query.Select{
		Child:  &query.Project{Child: join, Cols: []string{"f_k", "s_region", "f_qty"}},
		Ranges: []query.RangePred{{Col: "f_k", Iv: interval.New(lo, lo+int64(len(dim.Rows))/20-1)}},
	}
	return small, sel
}

// mustFuse returns the kernel's stack rooted at n under the given
// captures.
func mustFuse(tb testing.TB, n query.Node, capture map[query.Node]Capture) *fusedJoin {
	tb.Helper()
	f, ok := fuseJoin(n, capture)
	if !ok {
		tb.Fatalf("%T does not fuse", n)
	}
	return &f
}

// mustChain returns the kernel's chain rooted at n under the given
// captures, which must have two levels.
func mustChain(tb testing.TB, n query.Node, capture map[query.Node]Capture) *fusedJoin {
	tb.Helper()
	f := mustFuse(tb, n, capture)
	f.extend(capture)
	if len(f.levels) != 2 {
		tb.Fatalf("%T fuses %d levels, want 2", n, len(f.levels))
	}
	return f
}

// probeOnce makes the chain's passes with the deepest join built on its
// right input and returns the output and the ranged capture's rows.
func probeOnce(f *fusedJoin, l, r *relation.Table, uppers []*relation.Table, bud *budget) (out, captured *relation.Table) {
	for _, s := range f.probe(l, r, false, uppers, bud) {
		out = s.out
		if s.captured != nil {
			captured = s.captured
		}
	}
	return out, captured
}

// capture10pct is the capture a partially admitted view gets: node,
// restricted to sel's range plus a guard of half its width on either
// side — three adjacent intervals, 10% of the key domain, as guardSplit
// cuts them.
func capture10pct(sel *query.Select, node query.Node) map[query.Node]Capture {
	hot := sel.Ranges[0].Iv
	g := hot.Len() / 2
	return map[query.Node]Capture{node: {Level: CaptureRows, Col: sel.Ranges[0].Col, Ivs: []interval.Interval{
		interval.New(hot.Lo-g, hot.Lo-1), hot, interval.New(hot.Hi+1, hot.Hi+g),
	}}}
}

var benchSink, benchCaptured *relation.Table

func BenchmarkProbe(b *testing.B) {
	fact, dim, sel := probeFixture(benchFactRows, benchDimRows)
	proj := sel.Child.(*query.Project)
	small, csel := chainFixture(fact, dim)
	inner := csel.Child.(*query.Project).Child.(*query.Join).Left
	for _, bc := range []struct {
		name    string
		top     query.Node
		capture map[query.Node]Capture
		chain   bool
	}{
		{"join", proj.Child, nil, false},
		{"join+project", proj, nil, false},
		{"join+project+select5pct", sel, nil, false},
		{"join+project+select5pct+capture10pct", sel, capture10pct(sel, proj), false},
		{"chain+select5pct", csel, nil, true},
		{"chain+select5pct+capture10pct", csel, capture10pct(csel, inner), true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			f := mustFuse(b, bc.top, bc.capture)
			var uppers []*relation.Table
			if bc.chain {
				f = mustChain(b, bc.top, bc.capture)
				uppers = []*relation.Table{small}
			}
			bud := newBudget(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink, benchCaptured = probeOnce(f, fact, dim, uppers, bud)
			}
		})
	}
}

func BenchmarkProjectTable(b *testing.B) {
	fact, _, _ := probeFixture(benchFactRows, benchDimRows)
	bud := newBudget(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = projectTable(fact, []string{"f_k", "f_qty", "f_price"}, bud)
	}
}

// aggregateFixture is the grouped count + sum the aggregate benchmark
// and its allocation gate run: 13 groups over the fact table.
func aggregateFixture() (*relation.Table, *query.Aggregate) {
	fact, _, _ := probeFixture(benchFactRows, benchDimRows)
	return fact, &query.Aggregate{
		Child:   query.NewScan("fact", fact.Schema),
		GroupBy: []string{"f_store"},
		Aggs: []query.AggSpec{
			{Func: query.Count, As: "n"},
			{Func: query.Sum, Col: "f_price", As: "revenue"},
		},
	}
}

func BenchmarkAggregate(b *testing.B) {
	fact, agg := aggregateFixture()
	bud := newBudget(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = aggregate(fact, agg, bud)
	}
}

func BenchmarkExactAccAdd(b *testing.B) {
	var acc exactAcc
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		acc.add(0.1 * float64(i%311))
	}
}

// TestFusedProbeAllocations is the kernel's exact allocation gate: the
// fused select-probe allocates per block and per chunk, never per row —
// with one output or, serving a ranged capture, with two. An output
// thinned by predicates starts each chunk at firstBlockRows and doubles
// its blocks up to relation.SlabRows, so a chunk pays the block list and
// at most log2(SlabRows/firstBlockRows)+1 growing blocks per output
// before every further block holds SlabRows rows.
func TestFusedProbeAllocations(t *testing.T) {
	fact, dim, sel := probeFixture(benchFactRows, benchDimRows)
	bud := newBudget(1)
	chunks := numChunks(len(fact.Rows))
	perChunk := 1 + bits.Len(relation.SlabRows/firstBlockRows)
	for _, tc := range []struct {
		name    string
		capture map[query.Node]Capture
		outputs int
	}{
		{"select", nil, 1},
		{"select+capture", capture10pct(sel, sel.Child), 2},
	} {
		f := mustFuse(t, sel, tc.capture)
		out, captured := probeOnce(f, fact, dim, nil, bud)
		if len(out.Rows) == 0 || len(out.Rows) >= len(fact.Rows)/10 {
			t.Fatalf("%s: selection kept %d of %d rows; the fixture is not a 5%% selection", tc.name, len(out.Rows), len(fact.Rows))
		}
		rows := len(out.Rows)
		if tc.outputs == 2 {
			if len(captured.Rows) <= len(out.Rows) || len(captured.Rows) >= len(fact.Rows)/5 {
				t.Fatalf("%s: captured %d of %d rows; the fixture is not a 10%% capture", tc.name, len(captured.Rows), len(fact.Rows))
			}
			rows += len(captured.Rows)
		}
		limit := float64(rows/relation.SlabRows + tc.outputs*perChunk*chunks + 32)
		got := testing.AllocsPerRun(10, func() {
			benchSink, benchCaptured = probeOnce(f, fact, dim, nil, bud)
		})
		if got > limit {
			t.Errorf("%s: fused probe allocates %.0f objects for %d rows written, limit %.0f", tc.name, got, rows, limit)
		}
	}
}

// TestAggregateAllocations is the aggregate's exact allocation gate: a
// group-key lookup allocates nothing, so what is left per input row is
// the two big.Float allocations of its one exactAcc.add; everything
// else (key string, key row, states, accumulator, map and slice growth,
// output row) is paid once per group and chunk.
func TestAggregateAllocations(t *testing.T) {
	fact, agg := aggregateFixture()
	bud := newBudget(1)
	out := aggregate(fact, agg, bud)
	groups, chunks := len(out.Rows), numChunks(len(fact.Rows))
	if groups != 13 || chunks < 2 {
		t.Fatalf("%d groups over %d chunks; the fixture is not the 13-group, multi-chunk aggregate", groups, chunks)
	}
	limit := float64(2*len(fact.Rows) + 7*groups*chunks + 4*chunks + 16)
	got := testing.AllocsPerRun(5, func() {
		benchSink = aggregate(fact, agg, bud)
	})
	if got > limit {
		t.Errorf("aggregate allocates %.0f objects for %d rows in %d groups and %d chunks, limit %.0f",
			got, len(fact.Rows), groups, chunks, limit)
	}
}

// TestFusedChainAllocations is the chain's allocation gate: the fused
// fact ⋈ dim ⋈ small pass allocates per block and per chunk, as one join
// does — with one output or, serving a ranged capture of the inner
// projection, two — and nothing that scales with the inner join's
// 24 000 rows, which it never writes: its bytes are the hash tables,
// the rows written and a fixed scratch per chunk.
func TestFusedChainAllocations(t *testing.T) {
	fact, dim, _ := probeFixture(benchFactRows, benchDimRows)
	small, sel := chainFixture(fact, dim)
	inner := sel.Child.(*query.Project).Child.(*query.Join).Left
	uppers := []*relation.Table{small}
	bud := newBudget(1)
	chunks := numChunks(len(fact.Rows))
	perChunk := 1 + bits.Len(relation.SlabRows/firstBlockRows)
	var tables int64
	for _, build := range []*relation.Table{dim, small} {
		tables += 4 * int64(len(buildJoinTable(build.Rows, 0, bud).heads)+len(build.Rows))
	}
	e := New(DefaultCostModel())
	e.Parallelism = 1
	for _, tbl := range []*relation.Table{fact, dim, small} {
		e.AddBaseTable(tbl)
	}
	for _, tc := range []struct {
		name    string
		capture map[query.Node]Capture
		outputs int
	}{
		{"select", nil, 1},
		{"select+capture", capture10pct(sel, inner), 2},
	} {
		f := mustChain(t, sel, tc.capture)
		segs := f.probe(fact, dim, false, uppers, bud)
		if len(segs) != 1 || segs[0].counts[0].passed != len(fact.Rows) {
			t.Fatalf("%s: %d passes, inner join of %d rows; the fixture is not one pass over a %d-row inner join",
				tc.name, len(segs), segs[0].counts[0].passed, len(fact.Rows))
		}
		out, captured := segs[0].out, segs[0].captured
		if len(out.Rows) == 0 || len(out.Rows) >= len(fact.Rows)/10 {
			t.Fatalf("%s: selection kept %d of %d rows; the fixture is not a 5%% selection", tc.name, len(out.Rows), len(fact.Rows))
		}
		rows := len(out.Rows)
		written := int64(len(out.Rows)) * (24 + 16*int64(len(out.Schema.Cols)))
		if tc.outputs == 2 {
			if len(captured.Rows) <= len(out.Rows) || len(captured.Rows) >= len(fact.Rows)/5 {
				t.Fatalf("%s: captured %d of %d rows; the fixture is not a 10%% capture", tc.name, len(captured.Rows), len(fact.Rows))
			}
			rows += len(captured.Rows)
			written += int64(len(captured.Rows)) * (24 + 16*int64(len(captured.Schema.Cols)))
		}
		limit := float64(rows/relation.SlabRows + tc.outputs*perChunk*chunks + 2*chunks + 48)
		got := testing.AllocsPerRun(10, func() {
			benchSink, benchCaptured = probeOnce(f, fact, dim, uppers, bud)
		})
		if got > limit {
			t.Errorf("%s: fused chain allocates %.0f objects for %d rows written, limit %.0f", tc.name, got, rows, limit)
		}
		// Blocks double, so an output's blocks hold at most twice its rows;
		// the scratch is a chunk's batch of matches waiting for the next
		// level, plus the block lists and pass state.
		byteLimit := 2*written + tables + int64(chunks)*(2*walkBatch*2*24+4096) + 16384
		// The same holds for the plan run whole: Run fuses the chain.
		for _, pass := range []struct {
			name string
			run  func()
		}{
			{"pass", func() { benchSink, benchCaptured = probeOnce(f, fact, dim, uppers, bud) }},
			{"Run", func() {
				if _, err := e.Run(sel, tc.capture); err != nil {
					t.Fatal(err)
				}
			}},
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			const runs = 10
			for i := 0; i < runs; i++ {
				pass.run()
			}
			runtime.ReadMemStats(&after)
			if got := int64(after.TotalAlloc-before.TotalAlloc) / runs; got > byteLimit {
				t.Errorf("%s: %s allocates %d bytes for %d rows written, limit %d (the inner join alone holds %d)",
					tc.name, pass.name, got, rows, byteLimit, int64(len(fact.Rows))*(24+16*4))
			}
		}
	}
}
