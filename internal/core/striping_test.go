package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"deepsea/internal/query"
	"deepsea/internal/relation"
)

// The striping tests build independent query families — per-family
// sales/item table pairs with disjoint names — so each family's
// candidate views, and therefore its maintenance lock set, is disjoint
// from every other family's.

func famSalesSchema(name string) relation.Schema {
	s := salesSchema()
	s.Name = name
	return s
}

func famItemSchema(name string) relation.Schema {
	s := itemSchema()
	s.Name = name
	return s
}

func addFamilyTables(d *DeepSea, fam string, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	sales := relation.NewTable(famSalesSchema("sales_" + fam))
	for i := 0; i < 8000; i++ {
		sales.Append(relation.Row{
			relation.IntVal(rng.Int63n(testDomHi + 1)),
			relation.IntVal(rng.Int63n(50) + 1),
			relation.StringVal(""),
		})
	}
	d.AddBaseTable(sales)
	item := relation.NewTable(famItemSchema("item_" + fam))
	cats := []string{"books", "music", "video", "games", "food"}
	for i := 0; i <= testDomHi; i++ {
		item.Append(relation.Row{
			relation.IntVal(int64(i)),
			relation.StringVal(cats[i%len(cats)]),
		})
	}
	d.AddBaseTable(item)
}

// famQ is q30 over one family's tables.
func famQ(fam string, lo, hi int64) query.Node {
	q := q30(lo, hi)
	j := q.(*query.Aggregate).Child.(*query.Select).Child.(*query.Project).Child.(*query.Join)
	j.Left = query.NewScan("sales_"+fam, famSalesSchema("sales_"+fam))
	j.Right = query.NewScan("item_"+fam, famItemSchema("item_"+fam))
	return q
}

// newFamilySystem builds a DeepSea instance holding every family's
// tables (family names carry the salt).
func newFamilySystem(t *testing.T, fams []string, mutate func(*Config)) *DeepSea {
	t.Helper()
	cfg := testConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	d := New(cfg)
	for i, fam := range fams {
		addFamilyTables(d, fam, int64(11+i))
	}
	return d
}

// disjointFamilies searches salted family names whose maintenance lock
// sets land on pairwise disjoint stripes: it runs each family's query
// once on a scratch instance, captures the lock set via OnMaintain, and
// maps it through the stripe hash. View ids are signatures, so stripe
// placement is deterministic but not predictable by hand; with 64
// stripes and a handful of views per family, a few salts always
// suffice.
func disjointFamilies(t *testing.T, nfam int) []string {
	t.Helper()
	for salt := 0; salt < 32; salt++ {
		fams := make([]string, nfam)
		for i := range fams {
			fams[i] = fmt.Sprintf("%c%d", 'a'+i, salt)
		}
		d := newFamilySystem(t, fams, nil)
		var mu sync.Mutex
		var current []string
		sets := make([][]string, nfam)
		d.OnMaintain = func(ids []string, enter bool) {
			if enter {
				mu.Lock()
				current = append([]string(nil), ids...)
				mu.Unlock()
			}
		}
		disjoint := true
		taken := make(map[int]int) // stripe -> family
		for i, fam := range fams {
			run(t, d, famQ(fam, 1000, 3000))
			mu.Lock()
			sets[i] = current
			mu.Unlock()
			if len(sets[i]) == 0 {
				t.Fatalf("family %s: empty maintenance lock set", fam)
			}
			for _, s := range d.views.stripeSet(sets[i]) {
				if owner, ok := taken[s]; ok && owner != i {
					disjoint = false
				}
				taken[s] = i
			}
		}
		if disjoint {
			return fams
		}
	}
	t.Fatal("no salt yielded stripe-disjoint families")
	return nil
}

// rendezvous synchronizes `want` queries in two stages. First, a
// barrier after planning (OnPlanned, outside every manager lock): no
// query proceeds to execution until all have finished planning — a
// query blocked inside maintenance holds its write stripes, which
// would stall the others' planning (planning reads every stripe), so
// the overlap below is only reachable once nobody plans anymore.
// Second, each query blocks inside its maintenance section (OnMaintain)
// until `want` queries are inside simultaneously or the deadline
// passes. If maintenance were serialized by a shared lock, the second
// query could never enter while the first waits, the deadline would
// fire, and maxConcurrent would stay 1.
type rendezvous struct {
	mu       sync.Mutex
	cond     *sync.Cond
	want     int
	planned  int
	cur, max int
	timedOut bool
}

func newRendezvous(want int, timeout time.Duration) *rendezvous {
	r := &rendezvous{want: want}
	r.cond = sync.NewCond(&r.mu)
	time.AfterFunc(timeout, func() {
		r.mu.Lock()
		r.timedOut = true
		r.cond.Broadcast()
		r.mu.Unlock()
	})
	return r
}

func (r *rendezvous) plannedHook(_ []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.planned++
	r.cond.Broadcast()
	for r.planned < r.want && !r.timedOut {
		r.cond.Wait()
	}
}

func (r *rendezvous) hook(_ []string, enter bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !enter {
		r.cur--
		return
	}
	r.cur++
	if r.cur > r.max {
		r.max = r.cur
	}
	r.cond.Broadcast()
	for r.max < r.want && !r.timedOut {
		r.cond.Wait()
	}
}

func (r *rendezvous) maxConcurrent() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.max
}

// TestDisjointMutatorsOverlap is the striping acceptance test: two
// first-time queries over stripe-disjoint families — each a mutating
// query that materializes its join view — must be inside their
// maintenance sections at the same time, and their results must be
// byte-identical to a serial run of the same queries.
func TestDisjointMutatorsOverlap(t *testing.T) {
	fams := disjointFamilies(t, 2)

	// Serial reference fingerprints on a fresh instance.
	serial := newFamilySystem(t, fams, nil)
	want := make([]string, len(fams))
	for i, fam := range fams {
		want[i] = run(t, serial, famQ(fam, 1000, 3000)).Result.Fingerprint()
	}

	d := newFamilySystem(t, fams, nil)
	r := newRendezvous(len(fams), 10*time.Second)
	d.OnPlanned = r.plannedHook
	d.OnMaintain = r.hook

	reports := make([]QueryReport, len(fams))
	errs := make([]error, len(fams))
	var wg sync.WaitGroup
	for i, fam := range fams {
		wg.Add(1)
		go func(i int, fam string) {
			defer wg.Done()
			reports[i], errs[i] = d.ProcessQuery(famQ(fam, 1000, 3000))
		}(i, fam)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("family %s: %v", fams[i], err)
		}
	}
	if got := r.maxConcurrent(); got < len(fams) {
		t.Errorf("max concurrent maintenance sections = %d, want %d: disjoint mutators did not overlap", got, len(fams))
	}
	for i, rep := range reports {
		if len(rep.MaterializedViews) == 0 {
			t.Errorf("family %s: first query did not materialize (not a mutating query)", fams[i])
		}
		if rep.Result.Fingerprint() != want[i] {
			t.Errorf("family %s: concurrent result differs from serial run", fams[i])
		}
	}
	if err := d.Pool.VerifySize(); err != nil {
		t.Error(err)
	}
	if len(d.pinned) != 0 {
		t.Errorf("pins leaked: %v", d.pinned)
	}
}

// TestStripedWorkloadMatchesSerial runs the same mixed two-family
// workload serially and concurrently (one goroutine per family) on
// fresh instances and demands byte-identical per-query results and
// consistent pool accounting — the determinism contract of the striped
// manager.
func TestStripedWorkloadMatchesSerial(t *testing.T) {
	fams := []string{"x", "y"}
	const perFam = 12
	type qr struct{ lo, hi int64 }
	rng := rand.New(rand.NewSource(42))
	queries := make(map[string][]qr)
	for _, fam := range fams {
		for i := 0; i < perFam; i++ {
			width := rng.Int63n(2500) + 200
			lo := rng.Int63n(testDomHi - width)
			queries[fam] = append(queries[fam], qr{lo, lo + width})
		}
	}

	serial := newFamilySystem(t, fams, nil)
	want := make(map[string][]string)
	for _, fam := range fams {
		for _, q := range queries[fam] {
			want[fam] = append(want[fam], run(t, serial, famQ(fam, q.lo, q.hi)).Result.Fingerprint())
		}
	}

	d := newFamilySystem(t, fams, nil)
	var wg sync.WaitGroup
	errCh := make(chan error, len(fams)*perFam)
	for _, fam := range fams {
		wg.Add(1)
		go func(fam string) {
			defer wg.Done()
			for i, q := range queries[fam] {
				rep, err := d.ProcessQuery(famQ(fam, q.lo, q.hi))
				if err != nil {
					errCh <- fmt.Errorf("family %s query %d: %w", fam, i, err)
					return
				}
				if rep.Result.Fingerprint() != want[fam][i] {
					t.Errorf("family %s query %d: striped result differs from serial", fam, i)
				}
			}
		}(fam)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if err := d.Pool.VerifySize(); err != nil {
		t.Error(err)
	}
	if fs, pool := d.Eng.FS().TotalSize(), d.Pool.TotalSize(); fs != pool {
		t.Errorf("FS size %d != pool size %d", fs, pool)
	}
	if len(d.pinned) != 0 {
		t.Errorf("pins leaked: %v", d.pinned)
	}
}

// TestMaintenanceViewsSortedDeduped pins the canonical lock-set order:
// sorted by id, no duplicates, step through the stripe map unchanged.
func TestMaintenanceViewsSortedDeduped(t *testing.T) {
	d := newTestSystem(t, nil)
	var got [][]string
	d.OnMaintain = func(ids []string, enter bool) {
		if enter {
			got = append(got, append([]string(nil), ids...))
		}
	}
	run(t, d, q30(100, 600))
	run(t, d, q30(2000, 2500))
	if len(got) != 2 {
		t.Fatalf("expected 2 maintenance sections, saw %d", len(got))
	}
	for _, ids := range got {
		if len(ids) == 0 {
			t.Fatal("empty lock set for a materializing query")
		}
		seen := make(map[string]bool)
		for i, id := range ids {
			if i > 0 && !(ids[i-1] < id) {
				t.Errorf("lock set not strictly sorted: %v", ids)
				break
			}
			if seen[id] {
				t.Errorf("duplicate id %s in lock set", id)
			}
			seen[id] = true
		}
	}
}

// TestLockStripesConfig pins the stripe count of a fresh instance.
func TestLockStripesConfig(t *testing.T) {
	if got := len(New(testConfig()).views.stripes); got != defaultLockStripes {
		t.Errorf("default stripe count = %d, want %d", got, defaultLockStripes)
	}
}
