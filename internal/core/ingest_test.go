package core

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"

	"deepsea/internal/datastore"
	"deepsea/internal/leakcheck"
	"deepsea/internal/maintain"
	"deepsea/internal/query"
	"deepsea/internal/relation"
)

// appendRows builds a deterministic batch of new sales rows, disjoint
// from the seed batches for other calls (seed selects the stream).
func appendRows(seed int64, n int) []relation.Row {
	rng := rand.New(rand.NewSource(1000 + seed))
	rows := make([]relation.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, relation.Row{
			relation.IntVal(rng.Int63n(testDomHi + 1)),
			relation.IntVal(rng.Int63n(50) + 1),
			relation.StringVal(""),
		})
	}
	return rows
}

// freshWithAppends builds a baseline instance whose sales table contains
// the seed rows plus all the given append batches from the start — the
// rematerialize-from-scratch ground truth.
func freshWithAppends(t *testing.T, batches ...[]relation.Row) *DeepSea {
	t.Helper()
	d := New(testConfig())
	addTestTables(d)
	for _, b := range batches {
		tbl := d.Eng.BaseTable("sales")
		tbl.Rows = append(tbl.Rows, b...)
	}
	return d
}

// resultJSON is the repo's result-identity oracle: the order-independent
// fingerprint (rewritten plans are row-set identical to the original
// plan; row order follows the chosen fragment cover). View CONTENT
// byte-identity of incremental refresh vs remat is asserted at the
// engine layer (delta_test.go).
func resultJSON(t *testing.T, rep QueryReport) string {
	t.Helper()
	if rep.Result == nil {
		t.Fatal("query returned no rows")
	}
	return rep.Result.Fingerprint()
}

// TestAppendRefreshMatchesFresh is the tentpole identity: interleaved
// appends and queries produce byte-identical results to a fresh
// instance whose base tables held the appended rows from the start.
func TestAppendRefreshMatchesFresh(t *testing.T) {
	d := newTestSystem(t, nil)
	persistWorkload(t, d) // warm: views materialize
	b1, b2 := appendRows(1, 300), appendRows(2, 500)

	if _, err := d.Append("sales", b1); err != nil {
		t.Fatalf("Append: %v", err)
	}
	run(t, d, q30(0, 4999))
	rep, err := d.Append("sales", b2)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if rep.NewCount != 20000+300+500 {
		t.Fatalf("NewCount = %d, want %d", rep.NewCount, 20000+800)
	}

	base := freshWithAppends(t, b1, b2)
	for _, q := range []struct{ lo, hi int64 }{{0, 4999}, {1000, 2999}, {500, 1499}, {0, 9999}} {
		got := resultJSON(t, run(t, d, q30(q.lo, q.hi)))
		want := resultJSON(t, run(t, base, q30(q.lo, q.hi)))
		if got != want {
			t.Errorf("q30(%d,%d) after appends diverges from fresh baseline:\n got %s\nwant %s", q.lo, q.hi, got, want)
		}
	}

	is := d.IngestStats()
	if is.Appends != 2 || is.AppendedRows != 800 {
		t.Errorf("IngestStats appends = %d/%d rows, want 2/800", is.Appends, is.AppendedRows)
	}
	if is.StaleViews != 0 {
		t.Errorf("IngestStats.StaleViews = %d after inline refresh, want 0", is.StaleViews)
	}
	if is.Refreshes == 0 && is.Drops == 0 {
		t.Error("append over a warmed pool neither refreshed nor dropped any view")
	}
}

// TestEmptyAppendIsNoop: appending zero rows changes nothing and marks
// nothing stale.
func TestEmptyAppendIsNoop(t *testing.T) {
	d := newTestSystem(t, nil)
	persistWorkload(t, d)
	before := resultJSON(t, run(t, d, q30(0, 4999)))
	rep, err := d.Append("sales", nil)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if rep.NewCount != 20000 || len(rep.StaleViews) != 0 {
		t.Fatalf("empty append report = %+v", rep)
	}
	if is := d.IngestStats(); is.Appends != 0 {
		t.Errorf("empty append counted: %+v", is)
	}
	if after := resultJSON(t, run(t, d, q30(0, 4999))); after != before {
		t.Error("empty append changed query result")
	}
}

// TestCacheInvalidationOnAppend: a cached result must miss after the
// base grows (the appended rows change the answer), and re-hit once the
// new result is cached — never serving pre-append bytes.
func TestCacheInvalidationOnAppend(t *testing.T) {
	d := newTestSystem(t, func(c *Config) { c.CacheBytes = 1 << 40 })
	q := q30(0, 4999)
	first := resultJSON(t, run(t, d, q))

	h0 := d.Health()
	second := resultJSON(t, run(t, d, q))
	h1 := d.Health()
	if h1.CacheHits != h0.CacheHits+1 {
		t.Fatalf("repeat query did not hit the cache: hits %d -> %d", h0.CacheHits, h1.CacheHits)
	}
	if second != first {
		t.Fatal("cache hit returned different bytes")
	}

	b := appendRows(3, 400)
	if _, err := d.Append("sales", b); err != nil {
		t.Fatalf("Append: %v", err)
	}
	third := resultJSON(t, run(t, d, q))
	h2 := d.Health()
	if h2.CacheHits != h1.CacheHits {
		t.Error("post-append query hit the cache: stale bytes served")
	}
	want := resultJSON(t, run(t, freshWithAppends(t, b), q))
	if third != want {
		t.Errorf("post-append result:\n got %s\nwant %s", third, want)
	}
	fourth := resultJSON(t, run(t, d, q))
	h3 := d.Health()
	if h3.CacheHits != h2.CacheHits+1 {
		t.Errorf("post-append repeat did not re-hit: hits %d -> %d", h2.CacheHits, h3.CacheHits)
	}
	if fourth != third {
		t.Error("re-hit returned different bytes")
	}
}

// TestBackgroundRefresh: with maintenance workers, Append defers the
// refresh to the KindRefresh band; queries issued before the drain are
// still correct (the stale view is skipped), and after the drain no
// view is stale. Appends that outrun the workers queue one refresh per
// dependent view, not one per append.
func TestBackgroundRefresh(t *testing.T) {
	d := newTestSystem(t, func(c *Config) { c.MaintWorkers = 2 })
	defer d.CloseMaintenance()
	// park, once armed, holds the next drain cycle inside its maintenance
	// section (and with it the commit lock every other cycle needs).
	var park atomic.Bool
	parked, release := make(chan struct{}), make(chan struct{})
	d.OnMaintain = func(_ []string, enter bool) {
		if enter && park.CompareAndSwap(true, false) {
			close(parked)
			<-release
		}
	}
	persistWorkload(t, d)
	if err := d.DrainMaintenance(context.Background()); err != nil {
		t.Fatal(err)
	}
	b := appendRows(5, 300)
	rep, err := d.Append("sales", b)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if len(rep.StaleViews) > 0 && !rep.Deferred {
		t.Error("background mode applied refresh inline")
	}
	base := freshWithAppends(t, b)
	// Before the drain: the refresh may or may not have run, but the
	// result must already reflect the append.
	got := resultJSON(t, run(t, d, q30(0, 4999)))
	want := resultJSON(t, run(t, base, q30(0, 4999)))
	if got != want {
		t.Errorf("pre-drain result:\n got %s\nwant %s", got, want)
	}
	if err := d.DrainMaintenance(context.Background()); err != nil {
		t.Fatal(err)
	}
	if is := d.IngestStats(); is.StaleViews != 0 {
		t.Errorf("stale views after drain: %+v", is)
	}
	got = resultJSON(t, run(t, d, q30(1000, 2999)))
	want = resultJSON(t, run(t, base, q30(1000, 2999)))
	if got != want {
		t.Errorf("post-drain result:\n got %s\nwant %s", got, want)
	}

	// With the workers stuck, K more appends to the table leave at most
	// one pending refresh per dependent view — the task reads live state
	// when it runs, so one covers them all — and the queue drops nothing.
	if len(rep.StaleViews) == 0 {
		t.Fatal("the append had no dependent views; nothing to park on")
	}
	park.Store(true)
	batches := [][]relation.Row{b}
	for k := 0; k < 12; k++ {
		batches = append(batches, appendRows(int64(30+k), 50))
		if _, err := d.Append("sales", batches[len(batches)-1]); err != nil {
			t.Fatalf("Append %d: %v", k, err)
		}
		if k == 0 {
			<-parked
		}
	}
	if ms := d.MaintStats(); ms.Depth > len(rep.StaleViews) || ms.Dropped != 0 {
		t.Errorf("12 appends over %d dependent views left %d tasks pending, %d dropped", len(rep.StaleViews), ms.Depth, ms.Dropped)
	}
	close(release)
	if err := d.DrainMaintenance(context.Background()); err != nil {
		t.Fatal(err)
	}
	if is := d.IngestStats(); is.StaleViews != 0 {
		t.Errorf("stale views after the burst drained: %+v", is)
	}
	got = resultJSON(t, run(t, d, q30(0, 4999)))
	want = resultJSON(t, run(t, freshWithAppends(t, batches...), q30(0, 4999)))
	if got != want {
		t.Errorf("post-burst result:\n got %s\nwant %s", got, want)
	}
}

// TestAppendRecoveryWarmRestart: appends journal through the datastore;
// a warm restart re-adds the base catalog, replays the appends, and
// serves byte-identical results. Views whose marks match survive; the
// rest are dropped, never served stale.
func TestAppendRecoveryWarmRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := openStore(t, dir)
	d1 := newTestSystem(t, func(c *Config) { c.Datastore = s1 })
	persistWorkload(t, d1)
	b := appendRows(6, 300)
	if _, err := d1.Append("sales", b); err != nil {
		t.Fatalf("Append: %v", err)
	}
	want := resultJSON(t, run(t, d1, q30(0, 4999)))
	// No Snapshot: the appends must recover from the journal tail alone.
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir)
	defer s2.Close()
	d2 := newTestSystem(t, func(c *Config) { c.Datastore = s2 })
	if rec := d2.Recovery(); !rec.Ran || rec.Err != "" {
		t.Fatalf("recovery = %+v", rec)
	}
	info, err := d2.ApplyRecoveredAppends()
	if err != nil {
		t.Fatalf("ApplyRecoveredAppends: %v", err)
	}
	if info.Rows != 300 {
		t.Errorf("recovered %d appended rows, want 300", info.Rows)
	}
	if n := d2.Eng.BaseCounts([]string{"sales"})["sales"]; n != 20300 {
		t.Errorf("recovered sales count = %d, want 20300", n)
	}
	if got := resultJSON(t, run(t, d2, q30(0, 4999))); got != want {
		t.Errorf("recovered result diverges:\n got %s\nwant %s", got, want)
	}

	// And again with a snapshot covering the appends.
	if err := d2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := openStore(t, dir)
	defer s3.Close()
	d3 := newTestSystem(t, func(c *Config) { c.Datastore = s3 })
	if _, err := d3.ApplyRecoveredAppends(); err != nil {
		t.Fatal(err)
	}
	if got := resultJSON(t, run(t, d3, q30(0, 4999))); got != want {
		t.Errorf("snapshot-recovered result diverges:\n got %s\nwant %s", got, want)
	}
}

// countingStore counts the append_rows records that reach Append.
type countingStore struct {
	datastore.Store
	appendRows atomic.Int64
}

func (s *countingStore) Append(rec *datastore.Record) error {
	err := s.Store.Append(rec)
	if rec.Op == "append_rows" {
		s.appendRows.Add(1)
	}
	return err
}

// TestAppendJournaledBeforeReturnWithWorkers: a record reaches the store
// before the call that wrote it returns, also while a worker's drain
// cycle is applying maintenance. One goroutine keeps the worker busy
// with queries; every Append's append_rows record must be in the store
// by the time Append returns, or an acknowledged batch is lost to a
// kill -9.
func TestAppendJournaledBeforeReturnWithWorkers(t *testing.T) {
	leakcheck.Check(t)
	store := &countingStore{Store: openStore(t, t.TempDir())}
	defer store.Close()
	d := newTestSystem(t, func(c *Config) {
		c.MaintWorkers = 1
		c.Datastore = store
	})
	defer d.CloseMaintenance()

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(29))
		for {
			select {
			case <-stop:
				return
			default:
			}
			lo := rng.Int63n(testDomHi - 1000)
			if _, err := d.ProcessQuery(q30(lo, lo+rng.Int63n(1000))); err != nil {
				t.Errorf("query: %v", err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()

	const appends = 300
	late := 0
	for i := 0; i < appends; i++ {
		before := store.appendRows.Load()
		if _, err := d.Append("sales", appendRows(int64(100+i), 20)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if store.appendRows.Load() == before {
			late++
		}
	}
	if late > 0 {
		t.Errorf("%d of %d appends returned before their append_rows record reached the store", late, appends)
	}
}

// appendMaintainedView finds the warmed pool's append-maintained view
// (non-aggregate root, fragment-partitioned — the DeltaAppend refresh
// path) and returns its id plus its fragment paths in partition order.
func appendMaintainedView(t *testing.T, d *DeepSea) (string, []string) {
	t.Helper()
	s := d.ingest
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, m := range s.views {
		if _, isAgg := m.plan.(*query.Aggregate); isAgg {
			continue
		}
		pv := d.Pool.View(id)
		if pv == nil {
			continue
		}
		var paths []string
		for _, attr := range pv.PartAttrs() {
			for _, fr := range pv.Parts[attr].Fragments() {
				paths = append(paths, fr.Path)
			}
		}
		if len(paths) > 1 {
			return id, paths
		}
	}
	t.Fatal("warmed pool has no fragment-partitioned append-maintained view")
	return "", nil
}

// TestAppendPartialApplyDropsView: a write fault partway through a
// multi-file DeltaAppend apply leaves fragments extended before the
// fault already holding the delta, so the refresh must DROP the view —
// re-running the apply would append the delta to those files a second
// time. The instance comes out with no stale views, no retry backlog,
// and query results identical to a fresh baseline.
func TestAppendPartialApplyDropsView(t *testing.T) {
	d := newTestSystem(t, nil)
	persistWorkload(t, d)
	id, frags := appendMaintainedView(t, d)

	// Sabotage the last fragment's backing file: the apply extends every
	// earlier fragment, then faults — a genuine partial apply.
	d.Eng.DeleteMaterialized(frags[len(frags)-1])

	b := appendRows(8, 300)
	rep, err := d.Append("sales", b)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	dropped := false
	for _, v := range rep.Dropped {
		dropped = dropped || v == id
	}
	if !dropped {
		t.Fatalf("partially applied view not dropped: %+v", rep)
	}
	for _, v := range rep.Refreshed {
		if v == id {
			t.Fatal("partially applied view reported refreshed")
		}
	}
	is := d.IngestStats()
	if is.Drops == 0 || is.StaleViews != 0 || is.RetryBacklog != 0 {
		t.Fatalf("post-fault stats = %+v, want the view dropped cleanly", is)
	}

	base := freshWithAppends(t, b)
	for _, q := range []struct{ lo, hi int64 }{{0, 4999}, {1000, 2999}} {
		got := resultJSON(t, run(t, d, q30(q.lo, q.hi)))
		want := resultJSON(t, run(t, base, q30(q.lo, q.hi)))
		if got != want {
			t.Errorf("q30(%d,%d) after partial-apply drop diverges (delta applied twice?):\n got %s\nwant %s",
				q.lo, q.hi, got, want)
		}
	}
}

// TestInlineRetryBacklogDrains: when a faulted view's drop is blocked by
// a pinned file in inline mode, the view joins the retry backlog (the
// operator-visible degraded signal) instead of being stuck forever, and
// the next Append — after the pin releases — drains the backlog.
func TestInlineRetryBacklogDrains(t *testing.T) {
	d := newTestSystem(t, nil)
	persistWorkload(t, d)
	id, frags := appendMaintainedView(t, d)

	// A concurrent query holds the first fragment pinned; the last
	// fragment's backing file is gone, so the refresh faults mid-apply
	// and the pin blocks the only safe completion (the drop).
	d.pin(frags[:1])
	d.Eng.DeleteMaterialized(frags[len(frags)-1])

	b1 := appendRows(9, 300)
	rep1, err := d.Append("sales", b1)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	for _, v := range append(rep1.Refreshed, rep1.Dropped...) {
		if v == id {
			t.Fatalf("pinned faulted view reported resolved: %+v", rep1)
		}
	}
	is := d.IngestStats()
	if is.RetryBacklog != 1 || is.StaleViews != 1 {
		t.Fatalf("stuck view not in retry backlog: %+v", is)
	}
	if h := d.Health(); h.IngestRetryBacklog != 1 {
		t.Fatalf("Health.IngestRetryBacklog = %d, want 1", h.IngestRetryBacklog)
	}

	// Pin released: the next append (same or different dependents) drains
	// the backlog, and the poisoned marks force the drop.
	d.unpin(frags[:1])
	b2 := appendRows(10, 200)
	rep2, err := d.Append("sales", b2)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	dropped := false
	for _, v := range rep2.Dropped {
		dropped = dropped || v == id
	}
	if !dropped {
		t.Fatalf("backlog view not dropped on the next append: %+v", rep2)
	}
	is = d.IngestStats()
	if is.RetryBacklog != 0 || is.StaleViews != 0 || is.Drops == 0 {
		t.Fatalf("backlog did not drain: %+v", is)
	}

	base := freshWithAppends(t, b1, b2)
	got := resultJSON(t, run(t, d, q30(0, 4999)))
	want := resultJSON(t, run(t, base, q30(0, 4999)))
	if got != want {
		t.Errorf("post-drain result diverges:\n got %s\nwant %s", got, want)
	}
}

// TestInlineRetryBacklogDrainsOnQuery: in inline mode a finishing query
// retries the backlog too — a still-stale view does not wait for an
// append that may never come.
func TestInlineRetryBacklogDrainsOnQuery(t *testing.T) {
	d := newTestSystem(t, nil)
	persistWorkload(t, d)
	_, frags := appendMaintainedView(t, d)

	// Same stuck state as TestInlineRetryBacklogDrains: a pin blocks the
	// drop a mid-apply fault requires.
	d.pin(frags[:1])
	d.Eng.DeleteMaterialized(frags[len(frags)-1])
	b1 := appendRows(9, 300)
	if _, err := d.Append("sales", b1); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if is := d.IngestStats(); is.RetryBacklog != 1 || is.StaleViews != 1 {
		t.Fatalf("stuck view not in retry backlog: %+v", is)
	}

	// While the pin is held a finishing query retries and fails again;
	// the entry stays.
	run(t, d, q30(0, 4999))
	if is := d.IngestStats(); is.RetryBacklog != 1 || is.StaleViews != 1 {
		t.Fatalf("pinned view left the backlog: %+v", is)
	}

	// Pin released, no further append: the next query to finish settles
	// the view.
	d.unpin(frags[:1])
	got := resultJSON(t, run(t, d, q30(0, 4999)))
	if is := d.IngestStats(); is.RetryBacklog != 0 || is.StaleViews != 0 || is.Drops == 0 {
		t.Fatalf("query did not drain the backlog: %+v", is)
	}
	want := resultJSON(t, run(t, freshWithAppends(t, b1), q30(0, 4999)))
	if got != want {
		t.Errorf("post-drain result diverges:\n got %s\nwant %s", got, want)
	}
}

// TestAppendUnknownTable: appending to a table the engine does not know
// fails cleanly.
func TestAppendUnknownTable(t *testing.T) {
	d := newTestSystem(t, nil)
	if _, err := d.Append("nope", appendRows(7, 1)); err == nil {
		t.Fatal("append to unknown table succeeded")
	}
}

// TestMaterializeSkipsViewLaggingAppend: two queries can select the same
// new view before either has materialized it. When the first stores it
// and an append then leaves it stale, the second — planned after the
// append, its captured rows exact at the new counts — must not
// re-register the view: every fragment is already stored, so it would
// write nothing and only declare the lagging content fresh at the new
// counts, and the refresh that follows would find nothing to do.
func TestMaterializeSkipsViewLaggingAppend(t *testing.T) {
	d := newTestSystem(t, nil)
	persistWorkload(t, d)
	id, _ := appendMaintainedView(t, d)
	pv := d.Pool.View(id)
	attr := pv.PartAttrs()[0]
	sv := selectedView{
		vc:   viewCandidate{id: id, node: d.ingest.views[id].plan, schema: pv.Schema},
		attr: attr,
		dom:  pv.Parts[attr].Dom,
	}

	// The append up to the point its refresh would start.
	b := appendRows(12, 600)
	if _, err := d.Eng.AppendBase("sales", b); err != nil {
		t.Fatal(err)
	}
	ids := d.markDependentsStale("sales", &relation.Table{Schema: d.Eng.BaseTable("sales").Schema, Rows: b})

	// The second query's materialization, with rows captured after the
	// append landed.
	captured := relation.NewTable(pv.Schema)
	_, created, err := d.materializeView(&matViewTask{
		sv: sv, captured: captured, capturedBytes: captured.Bytes(),
		baseCounts: d.Eng.BaseCounts([]string{"item", "sales"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if created || !d.staleView(id) {
		t.Fatalf("view lagging an append re-registered fresh (created=%v, stale=%v)", created, d.staleView(id))
	}

	var tasks []*maintain.Task
	for _, id := range ids {
		tasks = append(tasks, refreshTaskFor(id))
	}
	d.applyEach(tasks, &maintOutcome{})
	if is := d.IngestStats(); is.StaleViews != 0 {
		t.Fatalf("%d views stale after the refresh", is.StaleViews)
	}
	base := freshWithAppends(t, b)
	for _, q := range []struct{ lo, hi int64 }{{0, 4999}, {1000, 2999}, {0, 9999}} {
		got := resultJSON(t, run(t, d, q30(q.lo, q.hi)))
		want := resultJSON(t, run(t, base, q30(q.lo, q.hi)))
		if got != want {
			t.Errorf("q30(%d,%d) diverges from fresh baseline:\n got %s\nwant %s", q.lo, q.hi, got, want)
		}
	}
}
