package core

import (
	"math/rand"
	"sync"
	"testing"

	"deepsea/internal/interval"
	"deepsea/internal/query"
	"deepsea/internal/relation"
)

// storeSchema is a third base table for tests that need a second,
// unrelated view: item ⋈ store shares no signature with sales ⋈ item, so
// the matcher cannot answer one template from the other's view.
func storeSchema() relation.Schema {
	return relation.Schema{
		Name: "store",
		Cols: []relation.Column{
			{Name: "s_store_sk", Type: relation.Int, Ordered: true, Lo: testDomLo, Hi: testDomHi, Width: 1 << 18},
			{Name: "s_name", Type: relation.String, Width: 1 << 18},
			// Wide payload the test queries never project, so the
			// project-over-join view is far cheaper to scan than the base
			// tables — same reason q30's view pays off against ss_pad.
			{Name: "s_pad", Type: relation.String, Width: 3 << 19},
		},
	}
}

func addStoreTable(d *DeepSea) {
	store := relation.NewTable(storeSchema())
	names := []string{"north", "south", "east", "west", "central", "outlet"}
	for i := 0; i <= testDomHi; i++ {
		store.Append(relation.Row{
			relation.IntVal(int64(i)),
			relation.StringVal(names[i%len(names)]),
			relation.StringVal("pad"),
		})
	}
	d.AddBaseTable(store)
}

// qStore is a second template whose view (item ⋈ store) is disjoint from
// q30's (sales ⋈ item), so cache tests can hold entries over two
// distinct views at once.
func qStore(lo, hi int64) query.Node {
	return &query.Aggregate{
		Child: &query.Select{
			Child: &query.Project{
				Child: &query.Join{
					Left:  query.NewScan("item", itemSchema()),
					Right: query.NewScan("store", storeSchema()),
					LCol:  "i_item_sk",
					RCol:  "s_store_sk",
				},
				Cols: []string{"i_item_sk", "i_category", "s_name"},
			},
			Ranges: []query.RangePred{{Col: "i_item_sk", Iv: interval.New(lo, hi)}},
		},
		GroupBy: []string{"s_name"},
		Aggs:    []query.AggSpec{{Func: query.Count, As: "n"}},
	}
}

func TestCacheHitOnRepeat(t *testing.T) {
	d := newTestSystem(t, func(c *Config) { c.CacheBytes = 1 << 30 })
	first := run(t, d, q30(100, 600))
	if first.CacheHit {
		t.Fatal("first execution reported a cache hit")
	}
	again := run(t, d, q30(100, 600))
	if !again.CacheHit {
		t.Fatal("identical repeat missed the cache")
	}
	if again.TotalSeconds != 0 {
		t.Errorf("cache hit charged %v simulated seconds, want 0", again.TotalSeconds)
	}
	if again.Result.Fingerprint() != first.Result.Fingerprint() {
		t.Error("cached result differs from computed result")
	}
	if other := run(t, d, q30(100, 601)); other.CacheHit {
		t.Error("different query hit the cache")
	}
	// Vanilla mode caches too.
	h := newTestSystem(t, func(c *Config) {
		c.Materialize = false
		c.CacheBytes = 1 << 30
	})
	run(t, h, q30(100, 600))
	if rep := run(t, h, q30(100, 600)); !rep.CacheHit {
		t.Error("vanilla repeat missed the cache")
	}
}

func TestCacheDisabledByDefault(t *testing.T) {
	d := newTestSystem(t, nil)
	if d.Cache != nil {
		t.Fatal("cache exists without CacheBytes")
	}
	run(t, d, q30(100, 600))
	if rep := run(t, d, q30(100, 600)); rep.CacheHit {
		t.Error("cache hit with caching disabled")
	}
}

// TestCachePreciseInvalidation: an entry becomes unreachable exactly
// when the base rows its query reads change, and on nothing else. It
// holds entries over two distinct views, evicts the view one of them
// was answered from — the entry still hits, with the answer a
// non-materializing system computes — then appends to sales, which
// retires only the entry whose query reads sales.
func TestCachePreciseInvalidation(t *testing.T) {
	d := newTestSystem(t, func(c *Config) { c.CacheBytes = 1 << 30 })
	addStoreTable(d)
	vanilla := newTestSystem(t, func(c *Config) { c.Materialize = false })
	addStoreTable(vanilla)

	// First executions materialize each template's view; the subset
	// queries then rewrite over the views.
	run(t, d, q30(1000, 3000))
	repA := run(t, d, q30(1200, 2800))
	if !repA.Rewritten || repA.UsedView == "" {
		t.Fatal("q30 subset did not rewrite over its view; test needs an entry answered from a view")
	}
	va := repA.UsedView
	run(t, d, qStore(5000, 7000))
	repB := run(t, d, qStore(5200, 6800))
	if !repB.Rewritten || repB.UsedView == "" {
		t.Fatal("qStore subset did not rewrite over its view")
	}
	if va == repB.UsedView {
		t.Fatalf("templates share view %s; test needs two distinct views", va)
	}
	wantA := resultJSON(t, run(t, vanilla, q30(1200, 2800)))
	wantB := resultJSON(t, run(t, vanilla, qStore(5200, 6800)))

	// Evict view A's content.
	pv := d.Pool.View(va)
	if pv == nil {
		t.Fatalf("view %s not in pool; cannot evict", va)
	}
	if pv.Path != "" {
		d.Eng.DeleteMaterialized(pv.Path)
	}
	for _, part := range pv.Parts {
		for _, f := range part.Fragments() {
			d.Eng.DeleteMaterialized(f.Path)
		}
	}
	d.Pool.Remove(va)

	repA2 := run(t, d, q30(1200, 2800))
	if !repA2.CacheHit {
		t.Error("entry answered from the evicted view missed; its base rows did not change")
	}
	if got := resultJSON(t, repA2); got != wantA {
		t.Errorf("entry over the evicted view answers %s, want the base plan's %s", got, wantA)
	}
	if rep := run(t, d, qStore(5200, 6800)); !rep.CacheHit || resultJSON(t, rep) != wantB {
		t.Errorf("entry over the untouched view: hit=%v, want a hit with the base plan's answer", rep.CacheHit)
	}

	// An append to sales moves q30's key, not qStore's.
	if _, err := d.Append("sales", appendRows(4, 200)); err != nil {
		t.Fatal(err)
	}
	if rep := run(t, d, q30(1200, 2800)); rep.CacheHit {
		t.Error("entry over sales hit after an append to sales")
	}
	if rep := run(t, d, qStore(5200, 6800)); !rep.CacheHit {
		t.Error("entry over item and store missed after an append to sales")
	}
	if inv := d.Health().CacheInvalidations; inv != 0 {
		t.Errorf("CacheInvalidations = %d, want 0: nothing invalidates an entry", inv)
	}
}

// TestCacheRaceWithEvictions hammers ProcessQuery on a cache-enabled
// system from several goroutines while a churn goroutine drives
// materialization, eviction and merging through a tight pool. Every
// answer — cached or computed — must equal the vanilla reference. A
// hit on an entry whose plan read a view evicted since is correct (the
// rewriting answered what the base plan answers); the comparison
// against vanilla is what guards it. Run under -race this also proves
// the lock split (mu + cache) is sound.
func TestCacheRaceWithEvictions(t *testing.T) {
	const (
		goroutines = 4
		perG       = 12
	)
	type qr struct{ lo, hi int64 }
	rng := rand.New(rand.NewSource(42))
	distinct := make([]qr, 8)
	for i := range distinct {
		width := rng.Int63n(1500) + 300
		lo := rng.Int63n(testDomHi - width)
		distinct[i] = qr{lo, lo + width}
	}

	vanilla := newTestSystem(t, func(c *Config) { c.Materialize = false })
	want := make([]string, len(distinct))
	for i, q := range distinct {
		want[i] = run(t, vanilla, q30(q.lo, q.hi)).Result.Fingerprint()
	}

	d := newTestSystem(t, func(c *Config) {
		c.Smax = 2 << 30 // tight: selection keeps evicting
		c.MergeFragments = true
		c.CacheBytes = 1 << 30
	})

	var queriesWg, churnWg sync.WaitGroup
	errs := make(chan error, goroutines*perG*2+64)
	stop := make(chan struct{})
	// Churn: shifting wide queries force continuous materialize / evict /
	// merge traffic on the shared view.
	churnWg.Add(1)
	go func() {
		defer churnWg.Done()
		churn := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			width := churn.Int63n(4000) + 2000
			lo := churn.Int63n(testDomHi - width)
			if _, err := d.ProcessQuery(q30(lo, lo+width)); err != nil {
				errs <- err
				return
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		queriesWg.Add(1)
		go func(g int) {
			defer queriesWg.Done()
			grng := rand.New(rand.NewSource(int64(g) + 100))
			for i := 0; i < perG; i++ {
				k := grng.Intn(len(distinct))
				// Issue the same query twice back-to-back: the second run
				// exercises the hit path whenever no mutation interleaves.
				for rep := 0; rep < 2; rep++ {
					r, err := d.ProcessQuery(q30(distinct[k].lo, distinct[k].hi))
					if err != nil {
						errs <- err
						return
					}
					if got := r.Result.Fingerprint(); got != want[k] {
						t.Errorf("goroutine %d query %d (hit=%v): result differs from vanilla",
							g, k, r.CacheHit)
					}
				}
			}
		}(g)
	}
	// Wait for the query goroutines, then stop the churn.
	queriesWg.Wait()
	close(stop)
	churnWg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Deterministic hit check after the storm: compute once, repeat once.
	q := q30(distinct[0].lo, distinct[0].hi)
	first, err := d.ProcessQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	again, err := d.ProcessQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Error("sequential repeat after the storm missed the cache")
	}
	if again.Result.Fingerprint() != first.Result.Fingerprint() ||
		again.Result.Fingerprint() != want[0] {
		t.Error("post-storm cached result differs from vanilla")
	}

	if err := d.Pool.VerifySize(); err != nil {
		t.Error(err)
	}
}
