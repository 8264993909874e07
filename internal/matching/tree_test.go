package matching

import (
	"fmt"
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

// BenchmarkFilterTreeAdd is the cost of indexing one new view into an
// index of the given size; B/op is what an Add allocates, a copy of the
// index's maps. Every iteration adds to the same published state, so
// the size holds.
func BenchmarkFilterTreeAdd(b *testing.B) {
	for _, size := range []int{100, 10000} {
		b.Run(fmt.Sprintf("entries=%d", size), func(b *testing.B) {
			const batch = 64
			ft, next := filledTree(size, batch)
			base := ft.state.Load()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ft.state.Store(base)
				ft.Add(next[i%batch])
			}
		})
	}
}
