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

func TestGetPutRoundTrip(t *testing.T) {
	c := New(1<<20, 0)
	tbl := testTable(10)
	c.Put("k", tbl)
	got, ok := c.Get("k")
	if !ok || !reflect.DeepEqual(got, tbl) {
		t.Fatalf("Get = (%v, %v), want the stored table", got, ok)
	}
	if &got.Rows[0][0] == &tbl.Rows[0][0] {
		t.Fatal("cache kept the caller's rows instead of a copy")
	}
	if _, ok := c.Get("other"); ok {
		t.Fatal("Get on unknown key hit")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Insertions != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 insertion", st)
	}
}

func TestByteBoundEvictsLRU(t *testing.T) {
	one := testTable(1).Bytes()
	c := New(3*one, 0)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), testTable(1))
	}
	if c.Len() != 3 || c.Bytes() != 3*one {
		t.Fatalf("cache holds %d entries / %d bytes, want 3 / %d", c.Len(), c.Bytes(), 3*one)
	}
	// Touch k0 so k1 becomes least recently used, then overflow.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 missing before overflow")
	}
	c.Put("k3", testTable(1))
	if _, ok := c.Get("k1"); ok {
		t.Fatal("LRU entry k1 survived the overflow")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k); !ok {
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
	c := New(testTable(1).Bytes(), 0)
	c.Put("big", testTable(100))
	if c.Len() != 0 {
		t.Fatal("table larger than the cache was stored")
	}
}

func TestPutReplacesExistingKey(t *testing.T) {
	c := New(1<<20, 0)
	c.Put("k", testTable(1))
	repl := testTable(2)
	c.Put("k", repl)
	got, ok := c.Get("k")
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
	c.Put("k", testTable(1)) // must not panic
	if _, ok := c.Get("k"); ok {
		t.Fatal("nil cache hit")
	}
	z := New(0, 0)
	z.Put("k", testTable(1))
	if z.Len() != 0 {
		t.Fatal("zero-capacity cache stored an entry")
	}
}

func TestAdmissionGuardRejectsOversizedResults(t *testing.T) {
	one := testTable(1).Bytes()
	// Cache of 8 rows, admission limit of 2 rows.
	c := New(8*one, 2*one)
	for i := 0; i < 4; i++ {
		c.Put(fmt.Sprintf("k%d", i), testTable(2))
	}
	if c.Len() != 4 {
		t.Fatalf("cache holds %d entries, want 4", c.Len())
	}
	// A result above the per-entry limit is refused and evicts nothing.
	c.Put("giant", testTable(3))
	if _, ok := c.Get("giant"); ok {
		t.Fatal("oversized result was cached past the admission guard")
	}
	for i := 0; i < 4; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d lost: the rejected giant must not disturb the working set", i)
		}
	}
	if st := c.Stats(); st.AdmissionRejects != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 1 admission reject and 0 evictions", st)
	}
}

func TestAdmissionGuardDefaultsToWholeCache(t *testing.T) {
	one := testTable(1).Bytes()
	c := New(4*one, 0)
	c.Put("fits", testTable(4))
	if _, ok := c.Get("fits"); !ok {
		t.Fatal("whole-cache-sized result must still be admitted without an entry limit")
	}
	c.Put("big", testTable(5))
	if _, ok := c.Get("big"); ok {
		t.Fatal("result above the whole cache admitted")
	}
	if st := c.Stats(); st.AdmissionRejects != 1 {
		t.Fatalf("stats = %+v, want 1 admission reject", st)
	}
	// Out-of-range entry limits clamp to the cache size.
	c2 := New(4*one, 100*one)
	c2.Put("fits", testTable(4))
	if _, ok := c2.Get("fits"); !ok {
		t.Fatal("clamped entry limit refused a fitting result")
	}
}
