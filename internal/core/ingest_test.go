package core

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"deepsea/internal/datastore"
	"deepsea/internal/faults"
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

// TestSnapshotCarriesAppendedRowsInApplyOrder: a snapshot's appends are
// each base table's rows past the count it had before its first append.
// After live appends, and after a warm restart that replays recovered
// appends and then takes more, they are exactly the appended rows of
// every table, in apply order.
func TestSnapshotCarriesAppendedRowsInApplyOrder(t *testing.T) {
	dir := t.TempDir()
	want := map[string][]relation.Row{}
	appendTo := func(d *DeepSea, table string, rows []relation.Row) {
		t.Helper()
		if _, err := d.Append(table, rows); err != nil {
			t.Fatalf("Append %s: %v", table, err)
		}
		want[table] = append(want[table], rows...)
	}
	itemRows := func(first int64, n int) []relation.Row {
		rows := make([]relation.Row, n)
		for i := range rows {
			rows[i] = relation.Row{relation.IntVal(first + int64(i)), relation.StringVal("extra")}
		}
		return rows
	}
	check := func(phase string, d *DeepSea) {
		t.Helper()
		d.mu.Lock()
		snap := d.buildSnapshot()
		d.mu.Unlock()
		got := map[string][]relation.Row{}
		for _, a := range snap.Appends {
			got[a.Table] = a.Rows.Rows
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: snapshot appends differ from the applied rows:\n got %v\nwant %v", phase, got, want)
		}
		counts := d.Eng.BaseCounts([]string{"sales", "item"})
		if counts["sales"] != 20000+int64(len(want["sales"])) || counts["item"] != testDomHi+1+int64(len(want["item"])) {
			t.Fatalf("%s: base counts %v do not match the appended rows", phase, counts)
		}
	}
	boot := func() (*DeepSea, *datastore.FileStore) {
		s := openStore(t, dir)
		d := newTestSystem(t, func(c *Config) { c.Datastore = s })
		if _, err := d.ApplyRecoveredAppends(); err != nil {
			t.Fatal(err)
		}
		return d, s
	}

	d1, s1 := boot()
	run(t, d1, q30(0, 4999))
	appendTo(d1, "sales", appendRows(21, 40))
	appendTo(d1, "item", itemRows(10, 3))
	appendTo(d1, "sales", appendRows(22, 25))
	check("live", d1)
	if err := d1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	appendTo(d1, "sales", appendRows(23, 7)) // journal tail only
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	d2, s2 := boot()
	check("recovered", d2)
	appendTo(d2, "item", itemRows(20, 2))
	appendTo(d2, "sales", appendRows(24, 11))
	check("recovered then appended", d2)
	if err := d2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	d3, s3 := boot()
	defer s3.Close()
	check("second restart", d3)
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

// opStore records the op of every record that reaches Append.
type opStore struct {
	datastore.Store
	mu  sync.Mutex
	ops []string
}

func (s *opStore) Append(rec *datastore.Record) error {
	s.mu.Lock()
	s.ops = append(s.ops, rec.Op)
	s.mu.Unlock()
	return s.Store.Append(rec)
}

func (s *opStore) since(n int) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.ops[n:])
}

// TestAppendJournalsOnlyItsRows: staleness is the marks trailing the
// base counts, so an Append journals its one append_rows record and
// nothing per dependent view. The worker is held at the start of the
// refresh cycle, so every record after the append_rows up to then is
// the Append's own.
func TestAppendJournalsOnlyItsRows(t *testing.T) {
	store := &opStore{Store: openStore(t, t.TempDir())}
	defer store.Close()
	d := newTestSystem(t, func(c *Config) {
		c.MaintWorkers = 1
		c.Datastore = store
	})
	defer d.CloseMaintenance()
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

	park.Store(true)
	n := len(store.since(0))
	rep, err := d.Append("sales", appendRows(6, 200))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.StaleViews) == 0 || !rep.Deferred {
		t.Fatalf("append report %+v: want deferred refreshes of dependent views", rep)
	}
	<-parked
	got := store.since(n)
	close(release)
	if !slices.Equal(got, []string{"append_rows"}) {
		t.Errorf("an append with %d dependent views journaled %v before its refreshes ran, want [append_rows]",
			len(rep.StaleViews), got)
	}
	if is := d.IngestStats(); is.StaleViews != len(rep.StaleViews) {
		t.Errorf("IngestStats.StaleViews = %d before the refreshes ran, want %d", is.StaleViews, len(rep.StaleViews))
	}
	if err := d.DrainMaintenance(context.Background()); err != nil {
		t.Fatal(err)
	}
	if is := d.IngestStats(); is.StaleViews != 0 || is.Refreshes == 0 {
		t.Errorf("after the drain: %+v, want refreshes and no stale view", is)
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

// TestDropStaleViewRemovesEveryFile: a refresh's drop leaves nothing
// of the view behind — no pool fragment, no stored file. A fragment left
// in the pool without its ingest metadata would be an untracked view,
// free to serve content that lags every later append.
func TestDropStaleViewRemovesEveryFile(t *testing.T) {
	d := newTestSystem(t, nil)
	persistWorkload(t, d)
	id, frags := appendMaintainedView(t, d)
	if len(frags) < 3 {
		t.Fatalf("view has %d fragments; the fixture needs 3", len(frags))
	}
	d.mu.Lock()
	d.dropStaleView(id)
	d.mu.Unlock()
	if d.Pool.View(id) != nil {
		t.Errorf("pool still holds view %s after its drop", id)
	}
	for _, p := range frags {
		if isStored(d, p) {
			t.Errorf("fragment %s still stored after its view's drop", p)
		}
	}
	if err := d.Pool.VerifySize(); err != nil {
		t.Error(err)
	}
}

// aggregateViews lists the warmed pool's stored views with an
// aggregate root — the DeltaAgg refresh path, whose write-back replaces
// every file of the view — sorted by id.
func aggregateViews(t *testing.T, d *DeepSea) []string {
	t.Helper()
	s := d.ingest
	s.mu.Lock()
	defer s.mu.Unlock()
	var ids []string
	for id, m := range s.views {
		if _, isAgg := m.plan.(*query.Aggregate); isAgg && d.Pool.View(id) != nil {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		t.Fatal("warmed pool has no aggregate view")
	}
	sort.Strings(ids)
	return ids
}

// failWrites arms (on) or disarms an injector that fails every stored
// file write.
func failWrites(d *DeepSea, on bool) {
	var in *faults.Injector
	if on {
		in = faults.New(faults.Config{Seed: 1, StorageWrite: 1})
	}
	d.Eng.SetFaults(in)
}

// TestInlineRetryBacklogDrains: when a write fault interrupts an
// aggregate view's refresh in inline mode — a replace is retryable, so
// the view is not dropped — the view joins the retry backlog (the
// operator-visible degraded signal) instead of being stuck forever, and
// the next Append, with writes working again, drains the backlog.
func TestInlineRetryBacklogDrains(t *testing.T) {
	d := newTestSystem(t, nil)
	persistWorkload(t, d)
	aggs := aggregateViews(t, d)

	failWrites(d, true)
	b1 := appendRows(9, 300)
	rep1, err := d.Append("sales", b1)
	failWrites(d, false)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	for _, v := range append(rep1.Refreshed, rep1.Dropped...) {
		if slices.Contains(aggs, v) {
			t.Fatalf("faulted aggregate view %s reported resolved: %+v", v, rep1)
		}
	}
	is := d.IngestStats()
	if is.RetryBacklog != len(aggs) || is.StaleViews != len(aggs) {
		t.Fatalf("stuck views not in retry backlog: %+v, want %d", is, len(aggs))
	}
	if h := d.Health(); h.IngestRetryBacklog != len(aggs) {
		t.Fatalf("Health.IngestRetryBacklog = %d, want %d", h.IngestRetryBacklog, len(aggs))
	}

	// Writes work again: the next append drains the backlog, and the
	// retried replace refreshes the views instead of dropping them.
	b2 := appendRows(10, 200)
	rep2, err := d.Append("sales", b2)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	for _, id := range aggs {
		if !slices.Contains(rep2.Refreshed, id) {
			t.Fatalf("backlog view %s not refreshed on the next append: %+v", id, rep2)
		}
	}
	is = d.IngestStats()
	if is.RetryBacklog != 0 || is.StaleViews != 0 {
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
	aggs := aggregateViews(t, d)

	// Same stuck state as TestInlineRetryBacklogDrains: a write fault
	// interrupts every aggregate view's replace.
	failWrites(d, true)
	b1 := appendRows(9, 300)
	if _, err := d.Append("sales", b1); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if is := d.IngestStats(); is.RetryBacklog != len(aggs) || is.StaleViews != len(aggs) {
		t.Fatalf("stuck views not in retry backlog: %+v, want %d", is, len(aggs))
	}

	// While writes still fail a finishing query retries and fails again;
	// the entries stay.
	run(t, d, q30(0, 4999))
	if is := d.IngestStats(); is.RetryBacklog != len(aggs) || is.StaleViews != len(aggs) {
		t.Fatalf("faulted views left the backlog: %+v", is)
	}

	// Writes work again, no further append: the next query to finish
	// settles the views.
	failWrites(d, false)
	refreshed := d.IngestStats().Refreshes
	got := resultJSON(t, run(t, d, q30(0, 4999)))
	if is := d.IngestStats(); is.RetryBacklog != 0 || is.StaleViews != 0 || is.Refreshes < refreshed+uint64(len(aggs)) {
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
	newCount, err := d.Eng.AppendBase("sales", b)
	if err != nil {
		t.Fatal(err)
	}
	ids := d.tallyAppend("sales", len(b), newCount)

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
	m := d.ingest.views[id]
	if stale := !countsEqual(m.marks, d.Eng.BaseCounts(m.tables), m.tables); created || !stale {
		t.Fatalf("view lagging an append re-registered fresh (created=%v, stale=%v)", created, stale)
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
