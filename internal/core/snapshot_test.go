package core

import (
	"context"
	"slices"
	"sync/atomic"
	"testing"

	"deepsea/internal/partition"
	"deepsea/internal/pool"
	"deepsea/internal/relation"
)

// rowsAt builds one sales row per key, in key order.
func rowsAt(keys ...int64) []relation.Row {
	rows := make([]relation.Row, len(keys))
	for i, k := range keys {
		rows[i] = relation.Row{relation.IntVal(k), relation.IntVal(7), relation.StringVal("")}
	}
	return rows
}

// adjacentFragments returns two adjacent fragments of the warmed pool's
// append-maintained view, in partition order.
func adjacentFragments(t *testing.T, d *DeepSea) (id, attr string, a, b partition.Fragment) {
	t.Helper()
	id, _ = appendMaintainedView(t, d)
	pv := d.Pool.View(id)
	for _, attr := range pv.PartAttrs() {
		frags := pv.Parts[attr].Fragments()
		for i := 0; i+1 < len(frags); i++ {
			if frags[i].Iv.Hi+1 == frags[i+1].Iv.Lo {
				return id, attr, frags[i], frags[i+1]
			}
		}
	}
	t.Fatal("append-maintained view has no two adjacent fragments")
	return
}

// TestQueryReadsOneState: a query reads the state it was planned
// against, whatever lands between planning and execution. The plan reads
// one stored fragment and computes a remainder gap from the base table;
// an append in OnPlanned puts rows in both ranges while the maintenance
// worker is held, so the fragment keeps its pre-append content. Reading
// the fragment as planned and the base table as it is now would mix two
// states; the answer must be the one of the pre-append rows.
func TestQueryReadsOneState(t *testing.T) {
	d := newTestSystem(t, func(c *Config) { c.MaintWorkers = 1 })
	defer d.CloseMaintenance()
	// armed, once set, holds every drain cycle inside its maintenance
	// section until release closes.
	var armed atomic.Bool
	release := make(chan struct{})
	d.OnMaintain = func(_ []string, enter bool) {
		if enter && armed.Load() {
			<-release
		}
	}
	persistWorkload(t, d)
	if err := d.DrainMaintenance(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Leave a hole where gone was: evict every fragment but kept that
	// overlaps it.
	id, attr, kept, gone := adjacentFragments(t, d)
	d.mu.Lock()
	for _, f := range slices.Clone(d.Pool.View(id).Parts[attr].Fragments()) {
		if _, overlaps := f.Iv.Intersect(gone.Iv); overlaps && f.Iv != kept.Iv {
			d.evict(pool.Candidate{Kind: pool.Frag, ViewID: id, Attr: attr, Iv: f.Iv})
		}
	}
	d.mu.Unlock()
	q := q30(kept.Iv.Lo, gone.Iv.Hi)
	want := resultJSON(t, run(t, newTestSystem(t, func(c *Config) { c.Materialize = false }), q))

	rows := rowsAt(kept.Iv.Lo, kept.Iv.Hi, gone.Iv.Lo, gone.Iv.Hi)
	d.OnPlanned = func([]string) {
		if armed.CompareAndSwap(false, true) {
			if _, err := d.Append("sales", rows); err != nil {
				t.Errorf("Append: %v", err)
			}
		}
	}
	rep, err := d.ProcessQuery(q)
	close(release)
	d.OnPlanned = nil
	if err != nil {
		t.Fatal(err)
	}
	if !armed.Load() || rep.UsedView != id || rep.FragmentsRead == 0 || rep.RemainderGaps == 0 {
		t.Fatalf("query read %s with %d fragments and %d gaps (appended: %v); the fixture proves nothing",
			rep.UsedView, rep.FragmentsRead, rep.RemainderGaps, armed.Load())
	}
	if got := resultJSON(t, rep); got != want {
		t.Errorf("answer mixes the pre- and post-append states:\n got %s\nwant %s", got, want)
	}

	if err := d.DrainMaintenance(context.Background()); err != nil {
		t.Fatal(err)
	}
	after := resultJSON(t, run(t, d, q))
	if fresh := resultJSON(t, run(t, freshWithAppends(t, rows), q)); after != fresh {
		t.Errorf("answer after the refresh diverges from a fresh system:\n got %s\nwant %s", after, fresh)
	}
}

// TestCaptureRegistersAtSnapshot: rows a query captures are exact at its
// snapshot's base counts, so a view materialized from them while an
// append lands registers at those counts and is refreshed, not dropped,
// and then serves a later query.
func TestCaptureRegistersAtSnapshot(t *testing.T) {
	d := newTestSystem(t, nil)
	q := q30(0, 4999)
	want := resultJSON(t, run(t, newTestSystem(t, func(c *Config) { c.Materialize = false }), q))
	rows := appendRows(21, 400)
	appended := false
	d.OnPlanned = func([]string) {
		if !appended {
			appended = true
			if _, err := d.Append("sales", rows); err != nil {
				t.Errorf("Append: %v", err)
			}
		}
	}
	rep := run(t, d, q)
	d.OnPlanned = nil
	if len(rep.MaterializedViews) == 0 {
		t.Fatal("the first query materialized no view; the fixture proves nothing")
	}
	if got := resultJSON(t, rep); got != want {
		t.Errorf("first answer is not the snapshot's:\n got %s\nwant %s", got, want)
	}
	is := d.IngestStats()
	if is.Drops != 0 || is.Refreshes == 0 || is.StaleViews != 0 {
		t.Fatalf("views captured before the append were not refreshed: %+v", is)
	}

	base := freshWithAppends(t, rows)
	for _, r := range []struct{ lo, hi int64 }{{0, 4999}, {1000, 2999}} {
		later := run(t, d, q30(r.lo, r.hi))
		if !later.Rewritten {
			t.Errorf("q30(%d,%d) was not answered from the refreshed view", r.lo, r.hi)
		}
		if got, want := resultJSON(t, later), resultJSON(t, run(t, base, q30(r.lo, r.hi))); got != want {
			t.Errorf("q30(%d,%d) diverges from a fresh system:\n got %s\nwant %s", r.lo, r.hi, got, want)
		}
	}
}

// TestPlannedFilesSurviveRemoval: whatever removes the files a plan
// reads between planning and execution — eviction, quarantine, a
// refresh's drop — the query answers from its snapshot, exactly.
func TestPlannedFilesSurviveRemoval(t *testing.T) {
	removals := map[string]func(d *DeepSea, ids []string){
		"evict": func(d *DeepSea, ids []string) {
			d.mu.Lock()
			defer d.mu.Unlock()
			items, _ := poolFiles(d, ids)
			for _, item := range items {
				d.evict(item)
			}
		},
		"quarantine": func(d *DeepSea, ids []string) {
			d.mu.Lock()
			items, paths := poolFiles(d, ids)
			d.mu.Unlock()
			for i, item := range items {
				d.quarantine(item.ViewID, paths[i])
			}
		},
		"refresh-drop": func(d *DeepSea, ids []string) {
			d.mu.Lock()
			defer d.mu.Unlock()
			for _, id := range ids {
				d.dropStaleView(id)
			}
		},
	}
	q := q30(1000, 2999)
	want := resultJSON(t, run(t, newTestSystem(t, func(c *Config) { c.Materialize = false }), q))
	for name, remove := range removals {
		t.Run(name, func(t *testing.T) {
			d := newTestSystem(t, nil)
			for _, r := range []struct{ lo, hi int64 }{{0, 4999}, {1000, 2999}, {3000, 4999}, {1000, 2999}} {
				run(t, d, q30(r.lo, r.hi))
			}
			left := -1
			d.OnPlanned = func(ids []string) {
				remove(d, ids)
				d.mu.Lock()
				_, paths := poolFiles(d, ids)
				d.mu.Unlock()
				left = len(paths)
			}
			rep := run(t, d, q)
			d.OnPlanned = nil
			if !rep.Rewritten || rep.FragmentsRead == 0 || left != 0 {
				t.Fatalf("query read %d fragments of %q, %d of its views' files left in the pool; the fixture proves nothing",
					rep.FragmentsRead, rep.UsedView, left)
			}
			if got := resultJSON(t, rep); got != want {
				t.Errorf("answer after %s of its files diverges:\n got %s\nwant %s", name, got, want)
			}
			assertPoolInvariants(t, d, name)
		})
	}
}

// poolFiles lists every stored file of the given views: as pool items,
// and their paths. The caller holds mu.
func poolFiles(d *DeepSea, ids []string) (items []pool.Candidate, paths []string) {
	for _, id := range ids {
		pv := d.Pool.View(id)
		if pv == nil {
			continue
		}
		if pv.Path != "" {
			items = append(items, pool.Candidate{Kind: pool.WholeView, ViewID: id})
			paths = append(paths, pv.Path)
		}
		for _, attr := range pv.PartAttrs() {
			for _, f := range pv.Parts[attr].Fragments() {
				items = append(items, pool.Candidate{Kind: pool.Frag, ViewID: id, Attr: attr, Iv: f.Iv})
				paths = append(paths, f.Path)
			}
		}
	}
	return items, paths
}
