package matching

import (
	"fmt"
	"sync"
	"testing"

	"deepsea/internal/interval"
	"deepsea/internal/signature"
)

// testEntry builds an entry whose family key depends on fam, so the
// stress test exercises both family growth and new-family creation.
func testEntry(fam, i int) *Entry {
	sig := &signature.Signature{
		Relations: []string{fmt.Sprintf("t%d", fam)},
		Ranges: map[string]interval.Interval{
			"a": {Lo: int64(i), Hi: int64(i + 1)},
		},
	}
	return &Entry{ID: fmt.Sprintf("f%d-e%04d", fam, i), Sig: sig}
}

// TestTreeConcurrentAddRead is the index's locking stress test: writers
// add entries while readers hammer every read path. Run under -race this
// proves readers never observe a partially built tree; the in-test
// assertions prove every observed state is internally consistent
// (sorted families, fully formed entries, monotone size).
func TestTreeConcurrentAddRead(t *testing.T) {
	ft := NewFilterTree()
	const families = 4
	const perFamily = 200

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers: candidates, lookup, entries, len — continuously.
	querySigs := make([]*signature.Signature, families)
	for f := 0; f < families; f++ {
		querySigs[f] = testEntry(f, 0).Sig
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lastLen := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := ft.Len()
				if n < lastLen {
					t.Errorf("tree shrank: %d -> %d", lastLen, n)
					return
				}
				lastLen = n
				fam := ft.Candidates(querySigs[r%families])
				for i, e := range fam {
					if e == nil || e.ID == "" || e.Sig == nil {
						t.Error("partially built entry observed")
						return
					}
					if i > 0 && fam[i-1].ID >= e.ID {
						t.Errorf("family not sorted: %q before %q", fam[i-1].ID, e.ID)
						return
					}
					if got, ok := ft.Lookup(e.ID); !ok || got != e {
						t.Errorf("lookup of published entry %q failed", e.ID)
						return
					}
				}
				all := ft.Entries()
				if len(all) < len(fam) {
					t.Errorf("Entries()=%d < family size %d", len(all), len(fam))
					return
				}
			}
		}(r)
	}

	// Writers: concurrent adds across families, including duplicate IDs
	// (which must stay no-ops).
	var ww sync.WaitGroup
	for f := 0; f < families; f++ {
		ww.Add(1)
		go func(f int) {
			defer ww.Done()
			for i := 0; i < perFamily; i++ {
				ft.Add(testEntry(f, i))
				if i%10 == 0 {
					ft.Add(testEntry(f, i)) // duplicate: no-op
				}
			}
		}(f)
	}
	ww.Wait()
	close(stop)
	wg.Wait()

	if got := ft.Len(); got != families*perFamily {
		t.Fatalf("Len = %d, want %d", got, families*perFamily)
	}
	for f := 0; f < families; f++ {
		fam := ft.Candidates(querySigs[f])
		if len(fam) != perFamily {
			t.Fatalf("family %d has %d entries, want %d", f, len(fam), perFamily)
		}
	}
}
