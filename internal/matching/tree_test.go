package matching

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
)

// filledTree returns an index holding size entries spread over four
// families, and the next batch entries to add to it.
func filledTree(size, batch int) (*FilterTree, []*Entry) {
	ft := NewFilterTree()
	for i := 0; i < size; i++ {
		ft.Add(testEntry(i%4, i))
	}
	next := make([]*Entry, batch)
	for i := range next {
		next[i] = testEntry((size+i)%4, size+i)
	}
	return ft, next
}

// addBytes is the heap bytes one Add of a new id allocates into an index
// of size entries: the least of five trials, each on a fresh index, so a
// map growth that one trial's hash seed happens to trigger, or another
// goroutine's allocation, does not count.
func addBytes(size int) uint64 {
	least := uint64(math.MaxUint64)
	for trial := 0; trial < 5; trial++ {
		ft, next := filledTree(size, 1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ft.Add(next[0])
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestFilterTreeAddAllocations is the index's allocation gate: indexing
// one new view costs what it costs at 100 entries, within 2x, at 10 000
// — nothing that grows with the index is copied.
func TestFilterTreeAddAllocations(t *testing.T) {
	small, large := addBytes(100), addBytes(10000)
	t.Logf("one Add: %d B at 100 entries, %d B at 10 000", small, large)
	if large > 2*small {
		t.Fatalf("Add allocates %d B at 10 000 entries, %d B at 100; want within 2x", large, small)
	}
}

// remove takes an entry added by a benchmark iteration back out, so the
// index keeps its size.
func (ft *FilterTree) remove(e *Entry) {
	delete(ft.byID, e.ID)
	key := e.Sig.FamilyKey()
	fam := ft.families[key]
	at := slices.Index(fam, e)
	ft.families[key] = slices.Delete(fam, at, at+1)
}

// BenchmarkFilterTreeAdd is the cost of indexing one new view into an
// index of the given size; B/op is what an Add allocates. Every
// iteration takes its entry back out (the removal is timed with it), so
// the size holds. TestFilterTreeAddAllocations is the exact gate.
func BenchmarkFilterTreeAdd(b *testing.B) {
	for _, size := range []int{100, 10000} {
		b.Run(fmt.Sprintf("entries=%d", size), func(b *testing.B) {
			const batch = 64
			ft, next := filledTree(size, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := next[i%batch]
				ft.Add(e)
				ft.remove(e)
			}
		})
	}
}
