package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"deepsea/internal/leakcheck"
)

// poolShape describes the pool's logical contents independent of file
// paths (background workers may number files in a different order than
// inline maintenance): per view, the view-file size and each attribute's
// sorted fragment intervals with sizes.
func poolShape(d *DeepSea) []string {
	var out []string
	for _, pv := range d.Pool.Views() {
		if pv.Path != "" {
			out = append(out, fmt.Sprintf("view %s size=%d", shortID(pv.ID), pv.Size))
		}
		for attr, part := range pv.Parts {
			for _, f := range part.Fragments() {
				out = append(out, fmt.Sprintf("frag %s.%s %s size=%d",
					shortID(pv.ID), attr, f.Iv, f.Size))
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestBackgroundMatchesInlineResultsAndPool is the two maintenance
// drivers' equivalence proof: over an evolving workload of queries and
// appends, every result is byte-identical between inline and background
// maintenance, background queries are charged execution only, and — with
// a drain after each step — both drivers charge the clock the same
// seconds, build the exact same pool, and refresh or drop the same
// views.
func TestBackgroundMatchesInlineResultsAndPool(t *testing.T) {
	leakcheck.Check(t)

	type qr struct{ lo, hi int64 }
	rng := rand.New(rand.NewSource(41))
	var queries []qr
	for i := 0; i < 16; i++ {
		center := int64(2000)
		if i >= 8 {
			center = 7000
		}
		lo := center + rng.Int63n(800) - 400
		queries = append(queries, qr{lo, lo + 500})
	}

	inline := newTestSystem(t, nil)
	bg := newTestSystem(t, func(c *Config) { c.MaintWorkers = 2 })
	defer bg.CloseMaintenance()
	// settle drains the background pool and compares what both drivers
	// have done so far: the one-Advance driver (execution + maintenance)
	// and the two-Advance driver (execution, then the drain cycle) must
	// have charged the same seconds — up to rounding, since t+(e+m) and
	// (t+e)+m differ in the last bit (they do, after query 5).
	settle := func(step string) {
		t.Helper()
		if err := bg.DrainMaintenance(context.Background()); err != nil {
			t.Fatalf("drain after %s: %v", step, err)
		}
		assertPoolInvariants(t, bg, "after drain")
		if in, b := inline.Now(), bg.Now(); math.Abs(in-b) > 1e-12*in {
			t.Fatalf("after %s: inline clock %v, background clock %v", step, in, b)
		}
	}
	for i, q := range queries {
		want := run(t, inline, q30(q.lo, q.hi)).Result.Fingerprint()
		rep := run(t, bg, q30(q.lo, q.hi))
		if got := rep.Result.Fingerprint(); got != want {
			t.Fatalf("query %d (%d-%d): background result differs from inline", i, q.lo, q.hi)
		}
		if !rep.DeferredMaintenance {
			t.Fatalf("query %d not marked deferred", i)
		}
		if rep.TotalSeconds != rep.ExecCost.Seconds {
			t.Fatalf("query %d charged %.1fs, exec alone is %.1fs — maintenance leaked onto the query",
				i, rep.TotalSeconds, rep.ExecCost.Seconds)
		}
		// Drain between queries so each plans against the same pool state
		// inline maintenance would have left — the convergence contract.
		settle(fmt.Sprintf("query %d", i))

		if i%4 != 3 {
			continue
		}
		// The append arm: the same batch through both drivers. What the
		// inline report lists as refreshed or dropped is exactly what the
		// drain cycle refreshed or dropped.
		before := bg.IngestStats()
		batch := appendRows(int64(20+i), 200)
		irep, err := inline.Append("sales", batch)
		if err != nil {
			t.Fatalf("inline append: %v", err)
		}
		brep, err := bg.Append("sales", batch)
		if err != nil {
			t.Fatalf("background append: %v", err)
		}
		if !brep.Deferred || len(brep.Refreshed)+len(brep.Dropped) != 0 {
			t.Fatalf("background append not deferred: %+v", brep)
		}
		settle(fmt.Sprintf("append after query %d", i))
		is, bs := inline.IngestStats(), bg.IngestStats()
		if is.Refreshes != bs.Refreshes || is.Drops != bs.Drops || is.StaleViews != 0 || bs.StaleViews != 0 {
			t.Fatalf("append after query %d: inline %+v, background %+v", i, is, bs)
		}
		if got, want := len(irep.Refreshed), int(bs.Refreshes-before.Refreshes); got != want {
			t.Errorf("append after query %d: inline refreshed %v, background refreshed %d", i, irep.Refreshed, want)
		}
		if got, want := len(irep.Dropped), int(bs.Drops-before.Drops); got != want {
			t.Errorf("append after query %d: inline dropped %v, background dropped %d", i, irep.Dropped, want)
		}
		settled := append(append([]string(nil), irep.Refreshed...), irep.Dropped...)
		sort.Strings(settled)
		if fmt.Sprint(settled) != fmt.Sprint(brep.StaleViews) {
			t.Errorf("append after query %d: inline settled %v, background marked stale %v", i, settled, brep.StaleViews)
		}
	}

	wantShape, gotShape := poolShape(inline), poolShape(bg)
	if len(wantShape) != len(gotShape) {
		t.Fatalf("pool diverged: inline %d entries, background %d\ninline: %v\nbackground: %v",
			len(wantShape), len(gotShape), wantShape, gotShape)
	}
	for i := range wantShape {
		if wantShape[i] != gotShape[i] {
			t.Errorf("pool entry %d: inline %q vs background %q", i, wantShape[i], gotShape[i])
		}
	}

	ms := bg.MaintStats()
	if ms.Completed == 0 {
		t.Fatal("background run completed no maintenance tasks; the test proved nothing")
	}
	if ms.Enqueued != ms.Completed+ms.Failed+ms.Deduped+ms.Dropped {
		t.Errorf("task accounting leak after drain: %+v", ms)
	}
	// Inline maintenance applies its own tasks; none pass through the pool.
	if ims := inline.MaintStats(); ims.Workers != 0 || ims.Enqueued != 0 {
		t.Errorf("inline run used the pool: %+v", ims)
	}
}

// TestBackgroundQueueBoundsAndClose: a capacity-1 queue under a real
// workload must drop candidates rather than block queries, results stay
// correct, the accounting identity holds, and CloseMaintenance is
// idempotent and leak-free.
func TestBackgroundQueueBoundsAndClose(t *testing.T) {
	leakcheck.Check(t)
	vanilla := newTestSystem(t, func(c *Config) { c.Materialize = false })
	d := newTestSystem(t, func(c *Config) {
		c.MaintWorkers = 1
		c.MaintQueue = 1
	})
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 10; i++ {
		lo := rng.Int63n(8000)
		q := q30(lo, lo+999)
		want := run(t, vanilla, q30(lo, lo+999)).Result.Fingerprint()
		if got := run(t, d, q).Result.Fingerprint(); got != want {
			t.Fatalf("query %d wrong under a saturated queue", i)
		}
	}
	d.CloseMaintenance()
	d.CloseMaintenance() // idempotent
	ms := d.MaintStats()
	if ms.Enqueued != ms.Completed+ms.Failed+ms.Deduped+ms.Dropped {
		t.Errorf("task accounting leak after close: %+v", ms)
	}
	if ms.Dropped+ms.Deduped == 0 {
		t.Log("capacity-1 queue never dropped or deduped; workload drained faster than it enqueued")
	}
	// Queries after close still answer (maintenance is simply off).
	if got := run(t, d, q30(100, 599)).Result; got == nil {
		t.Fatal("query after CloseMaintenance returned no rows")
	}
}
