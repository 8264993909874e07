package core

import (
	"math/rand"
	"testing"

	"deepsea/internal/interval"
)

// TestEvictionThenRemainderCorrectness force-evicts fragments mid-workload
// and checks every later query still returns exactly the vanilla result
// (remainder plans fill the holes).
func TestEvictionThenRemainderCorrectness(t *testing.T) {
	vanilla := newTestSystem(t, func(c *Config) { c.Materialize = false })
	d := newTestSystem(t, nil)

	type qr struct{ lo, hi int64 }
	queries := []qr{{1000, 2999}, {1200, 2500}, {1500, 3500}, {800, 1800}}
	var want []string
	for _, q := range queries {
		want = append(want, run(t, vanilla, q30(q.lo, q.hi)).Result.Fingerprint())
	}

	if got := run(t, d, q30(queries[0].lo, queries[0].hi)).Result.Fingerprint(); got != want[0] {
		t.Fatal("query 0 wrong before any eviction")
	}

	// Force-evict every other fragment of every partition.
	evicted := 0
	for _, pv := range d.Pool.Views() {
		for attr, part := range pv.Parts {
			frags := append([]interval.Interval(nil), part.Intervals()...)
			for i, iv := range frags {
				if i%2 == 0 {
					if f, ok := part.Lookup(iv); ok {
						d.Eng.DeleteMaterialized(f.Path)
						d.Pool.RemoveFragment(pv.ID, attr, iv)
						evicted++
					}
				}
			}
		}
	}
	if evicted == 0 {
		t.Fatal("nothing to evict; test setup broken")
	}

	for i := 1; i < len(queries); i++ {
		rep := run(t, d, q30(queries[i].lo, queries[i].hi))
		if rep.Result.Fingerprint() != want[i] {
			t.Fatalf("query %d wrong after forced eviction", i)
		}
	}
	// FS and pool must agree after the churn.
	if d.Eng.StoredBytes() != d.Pool.TotalSize() {
		t.Errorf("FS size %d != pool size %d", d.Eng.StoredBytes(), d.Pool.TotalSize())
	}
}

// TestGapRecoveryRefillsHole: after a hole is evicted, repeated queries
// over it eventually re-materialize the missing range from the remainder
// execution (the gap-recovery path), without ever re-running the view's
// defining query as a standalone job.
func TestGapRecoveryRefillsHole(t *testing.T) {
	d := newTestSystem(t, nil)
	run(t, d, q30(1000, 2999))

	// Evict exactly the fragments covering [1000,2999].
	for _, pv := range d.Pool.Views() {
		for attr, part := range pv.Parts {
			for _, iv := range append([]interval.Interval(nil), part.Intervals()...) {
				if iv.Overlaps(interval.New(1000, 2999)) && iv.Len() < 5000 {
					if f, ok := part.Lookup(iv); ok {
						d.Eng.DeleteMaterialized(f.Path)
						d.Pool.RemoveFragment(pv.ID, attr, iv)
					}
				}
			}
		}
	}

	covered := func() bool {
		for _, pv := range d.Pool.Views() {
			for _, part := range pv.Parts {
				if _, _, gaps := part.Cover(interval.New(1000, 2990)); len(gaps) == 0 {
					return true
				}
			}
		}
		return false
	}
	if covered() {
		t.Fatal("eviction did not open a hole; test setup broken")
	}
	for i := 0; i < 10 && !covered(); i++ {
		run(t, d, q30(1000, 2999-int64(i))) // jitter avoids the agg-view shortcut
	}
	if !covered() {
		t.Error("hole never refilled (gap recovery / partial re-materialization)")
	}
}

// TestLongRandomWorkloadInvariants runs a longer randomized workload
// under a tight pool and checks structural invariants after every query.
func TestLongRandomWorkloadInvariants(t *testing.T) {
	d := newTestSystem(t, func(c *Config) { c.Smax = 3 << 30 })
	rng := rand.New(rand.NewSource(123))
	for i := 0; i < 40; i++ {
		width := rng.Int63n(2000) + 100
		lo := rng.Int63n(testDomHi - width)
		run(t, d, q30(lo, lo+width))

		for _, pv := range d.Pool.Views() {
			for _, part := range pv.Parts {
				if err := part.Validate(); err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				for _, f := range part.Fragments() {
					if !isStored(d, f.Path) {
						t.Fatalf("query %d: pool references missing file %s", i, f.Path)
					}
				}
			}
		}
		if fs, pool := d.Eng.StoredBytes(), d.Pool.TotalSize(); fs != pool {
			t.Fatalf("query %d: FS %d != pool %d", i, fs, pool)
		}
	}
}
