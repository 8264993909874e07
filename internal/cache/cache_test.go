package cache

import (
	"fmt"
	"reflect"
	"testing"

	"deepsea/internal/relation"
)

// testTable builds a table of n rows with a known byte size.
func testTable(n int) *relation.Table {
	s := relation.Schema{Name: "t", Cols: []relation.Column{{Name: "a", Type: relation.Int}}}
	t := relation.NewTable(s)
	for i := 0; i < n; i++ {
		t.Append(relation.Row{relation.IntVal(int64(i))})
	}
	return t
}

// gens returns a generation lookup over a mutable map.
func gens(m map[string]uint64) func(string) uint64 {
	return func(id string) uint64 { return m[id] }
}

func TestGetPutRoundTrip(t *testing.T) {
	c := New(1 << 20)
	tbl := testTable(10)
	c.Put("k", tbl, nil)
	got, ok := c.Get("k", gens(nil))
	if !ok || !reflect.DeepEqual(got, tbl) {
		t.Fatalf("Get = (%v, %v), want the stored table", got, ok)
	}
	if &got.Rows[0][0] == &tbl.Rows[0][0] {
		t.Fatal("cache kept the caller's rows instead of a copy")
	}
	if _, ok := c.Get("other", gens(nil)); ok {
		t.Fatal("Get on unknown key hit")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Insertions != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 insertion", st)
	}
}

func TestByteBoundEvictsLRU(t *testing.T) {
	one := testTable(1).Bytes()
	c := New(3 * one)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), testTable(1), nil)
	}
	if c.Len() != 3 || c.Bytes() != 3*one {
		t.Fatalf("cache holds %d entries / %d bytes, want 3 / %d", c.Len(), c.Bytes(), 3*one)
	}
	// Touch k0 so k1 becomes least recently used, then overflow.
	if _, ok := c.Get("k0", gens(nil)); !ok {
		t.Fatal("k0 missing before overflow")
	}
	c.Put("k3", testTable(1), nil)
	if _, ok := c.Get("k1", gens(nil)); ok {
		t.Fatal("LRU entry k1 survived the overflow")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k, gens(nil)); !ok {
			t.Fatalf("%s evicted, want k1 only", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if c.Bytes() != 3*one {
		t.Fatalf("cache bytes %d exceed bound %d", c.Bytes(), 3*one)
	}
}

func TestOversizedTableNotStored(t *testing.T) {
	c := New(testTable(1).Bytes())
	c.Put("big", testTable(100), nil)
	if c.Len() != 0 {
		t.Fatal("table larger than the cache was stored")
	}
}

func TestGenerationInvalidationIsPrecise(t *testing.T) {
	g := map[string]uint64{"va": 3, "vb": 7}
	c := New(1 << 20)
	c.Put("qa", testTable(1), []Dep{{ViewID: "va", Gen: g["va"]}})
	c.Put("qb", testTable(2), []Dep{{ViewID: "vb", Gen: g["vb"]}})
	c.Put("qbase", testTable(3), nil) // base-only result, no view deps

	// Mutating va (evict/split/merge all bump the generation) must kill
	// exactly qa.
	g["va"]++
	if _, ok := c.Get("qa", gens(g)); ok {
		t.Fatal("entry over mutated view va still hit")
	}
	if _, ok := c.Get("qb", gens(g)); !ok {
		t.Fatal("entry over untouched view vb missed")
	}
	if _, ok := c.Get("qbase", gens(g)); !ok {
		t.Fatal("base-only entry missed after unrelated view mutation")
	}
	st := c.Stats()
	if st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}
	// The stale entry is gone, not resurrectable.
	if _, ok := c.Get("qa", gens(g)); ok {
		t.Fatal("invalidated entry reappeared")
	}
}

func TestPutReplacesExistingKey(t *testing.T) {
	c := New(1 << 20)
	c.Put("k", testTable(1), nil)
	repl := testTable(2)
	c.Put("k", repl, nil)
	got, ok := c.Get("k", gens(nil))
	if !ok || !reflect.DeepEqual(got, repl) {
		t.Fatal("Put did not replace the existing entry")
	}
	if c.Len() != 1 || c.Bytes() != repl.Bytes() {
		t.Fatalf("cache holds %d entries / %d bytes after replace, want 1 / %d",
			c.Len(), c.Bytes(), repl.Bytes())
	}
}

func TestNilAndZeroCapCache(t *testing.T) {
	var c *ResultCache
	c.Put("k", testTable(1), nil) // must not panic
	if _, ok := c.Get("k", gens(nil)); ok {
		t.Fatal("nil cache hit")
	}
	z := New(0)
	z.Put("k", testTable(1), nil)
	if z.Len() != 0 {
		t.Fatal("zero-capacity cache stored an entry")
	}
}

func TestAdmissionGuardRejectsOversizedResults(t *testing.T) {
	one := testTable(1).Bytes()
	// Cache of 8 rows, admission limit of 2 rows.
	c := NewWithEntryLimit(8*one, 2*one)
	for i := 0; i < 4; i++ {
		c.Put(fmt.Sprintf("k%d", i), testTable(2), nil)
	}
	if c.Len() != 4 {
		t.Fatalf("cache holds %d entries, want 4", c.Len())
	}
	// A result above the per-entry limit is refused and evicts nothing.
	c.Put("giant", testTable(3), nil)
	if _, ok := c.Get("giant", gens(nil)); ok {
		t.Fatal("oversized result was cached past the admission guard")
	}
	for i := 0; i < 4; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i), gens(nil)); !ok {
			t.Fatalf("k%d lost: the rejected giant must not disturb the working set", i)
		}
	}
	if st := c.Stats(); st.AdmissionRejects != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 1 admission reject and 0 evictions", st)
	}
}

func TestAdmissionGuardDefaultsToWholeCache(t *testing.T) {
	one := testTable(1).Bytes()
	c := New(4 * one)
	c.Put("fits", testTable(4), nil)
	if _, ok := c.Get("fits", gens(nil)); !ok {
		t.Fatal("whole-cache-sized result must still be admitted by New")
	}
	c.Put("big", testTable(5), nil)
	if _, ok := c.Get("big", gens(nil)); ok {
		t.Fatal("result above the whole cache admitted")
	}
	if st := c.Stats(); st.AdmissionRejects != 1 {
		t.Fatalf("stats = %+v, want 1 admission reject", st)
	}
	// Out-of-range entry limits clamp to the cache size.
	c2 := NewWithEntryLimit(4*one, 100*one)
	c2.Put("fits", testTable(4), nil)
	if _, ok := c2.Get("fits", gens(nil)); !ok {
		t.Fatal("clamped entry limit refused a fitting result")
	}
}

// TestDisabledCache: a zero/negative budget builds a disabled cache
// that short-circuits everything and reports the traffic distinctly —
// DisabledPuts, not AdmissionRejects (a tuning failure) or Misses (a
// capacity signal).
func TestDisabledCache(t *testing.T) {
	for _, c := range []*ResultCache{New(0), New(-1), NewWithEntryLimit(0, 10)} {
		if !c.Disabled() {
			t.Fatal("zero-budget cache not disabled")
		}
		c.Put("k", testTable(3), []Dep{{ViewID: "v", Gen: 1}})
		c.Put("k2", testTable(1), nil)
		if _, ok := c.Get("k", gens(map[string]uint64{"v": 1})); ok {
			t.Error("disabled cache returned a hit")
		}
		s := c.Stats()
		if s.DisabledPuts != 2 {
			t.Errorf("DisabledPuts = %d, want 2", s.DisabledPuts)
		}
		if s.AdmissionRejects != 0 || s.Insertions != 0 || s.Misses != 0 || s.Hits != 0 {
			t.Errorf("disabled cache bled into other counters: %+v", s)
		}
		if c.Len() != 0 || c.Bytes() != 0 {
			t.Errorf("disabled cache holds entries: len=%d bytes=%d", c.Len(), c.Bytes())
		}
	}
	// A nil cache is disabled too (and safe to call).
	var nilCache *ResultCache
	if !nilCache.Disabled() {
		t.Error("nil cache not reported disabled")
	}
}

// TestEnabledCacheNoDisabledPuts: a live cache never counts
// DisabledPuts, even when admission rejects an oversized entry.
func TestEnabledCacheNoDisabledPuts(t *testing.T) {
	c := NewWithEntryLimit(1<<20, 64)
	c.Put("small", testTable(1), nil)
	c.Put("huge", testTable(10_000), nil)
	s := c.Stats()
	if s.DisabledPuts != 0 {
		t.Errorf("enabled cache counted %d DisabledPuts", s.DisabledPuts)
	}
	if s.AdmissionRejects == 0 {
		t.Error("oversized entry not admission-rejected")
	}
	if c.Disabled() {
		t.Error("enabled cache reports disabled")
	}
}
