package core

import (
	"testing"
)

func TestSharedHits(t *testing.T) {
	tests := []struct {
		a, b []float64
		want int
	}{
		{nil, nil, 0},
		{[]float64{1, 2, 3}, []float64{2, 3, 4}, 2},
		{[]float64{1, 2}, []float64{3, 4}, 0},
		{[]float64{1, 2, 3}, []float64{1, 2, 3}, 3},
	}
	for i, tt := range tests {
		if got := sharedHits(tt.a, tt.b); got != tt.want {
			t.Errorf("case %d: sharedHits = %d, want %d", i, got, tt.want)
		}
	}
}

// TestFragmentMerging runs queries that straddle a fragment boundary
// until the co-access merge fires, then checks results stay correct and
// the boundary is gone.
func TestFragmentMerging(t *testing.T) {
	vanilla := newTestSystem(t, func(c *Config) { c.Materialize = false })
	d := newTestSystem(t, func(c *Config) { c.MergeFragments = true })

	// First query sets a boundary at 2000; follow-ups straddle it.
	boundary := int64(2000)
	var mergedSeen bool
	for i := 0; i < 12; i++ {
		// Narrow straddling ranges: the merged fragment must stay under
		// the largest-fragment bound (10% of the view by default).
		lo := boundary - 150 - int64(i)
		hi := boundary + 150 + int64(i)
		want := run(t, vanilla, q30(lo, hi)).Result.Fingerprint()
		rep := run(t, d, q30(lo, hi))
		if rep.Result.Fingerprint() != want {
			t.Fatalf("query %d wrong result", i)
		}
		if len(rep.MergedFrags) > 0 {
			mergedSeen = true
		}
	}
	if !mergedSeen {
		t.Error("no co-access merge fired in 12 straddling queries")
	}
	// Structural invariants survive merging.
	for _, pv := range d.Pool.Views() {
		for _, part := range pv.Parts {
			if err := part.Validate(); err != nil {
				t.Error(err)
			}
		}
	}
	if d.Eng.StoredBytes() != d.Pool.TotalSize() {
		t.Error("FS and pool disagree after merges")
	}
}

// TestMergeRespectsUpperBound: fragments whose combined size exceeds the
// φ bound must not merge.
func TestMergeRespectsUpperBound(t *testing.T) {
	d := newTestSystem(t, func(c *Config) {
		c.MergeFragments = true
		c.MaxFragFraction = 0.05 // tiny bound: most merges are illegal
	})
	for i := 0; i < 12; i++ {
		run(t, d, q30(1400-int64(i), 2600+int64(i)))
	}
	vs := d.Pool.Views()
	for _, pv := range vs {
		for _, part := range pv.Parts {
			views, ok := d.Stats.LookupView(pv.ID)
			if !ok {
				continue
			}
			maxBytes := int64(0.05*float64(views.Size)) + 1
			for _, f := range part.Fragments() {
				if f.Size > maxBytes*2 { // slack for estimate drift
					t.Errorf("fragment %s (%d bytes) exceeds the bound %d", f.Iv, f.Size, maxBytes)
				}
			}
		}
	}
}
