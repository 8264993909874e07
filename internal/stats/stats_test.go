package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"deepsea/internal/interval"
)

func TestDecayWeight(t *testing.T) {
	d := Decay{TMax: 100}
	tests := []struct {
		tnow, tt float64
		want     float64
	}{
		{200, 200, 1},              // just now
		{200, 100, 0.5},            // proportional t/tnow
		{200, 150, 0.75},           // proportional
		{200, 99, 0},               // older than TMax
		{1000, 100, 0},             // timed out
		{100, 100, 1},              // boundary
		{200, 100.0001, 0.5000005}, // just within TMax
	}
	for _, tt2 := range tests {
		got := d.Weight(tt2.tnow, tt2.tt)
		if math.Abs(got-tt2.want) > 1e-6 {
			t.Errorf("Weight(%g,%g) = %g, want %g", tt2.tnow, tt2.tt, got, tt2.want)
		}
	}
}

func TestDecayNoTimeout(t *testing.T) {
	d := Decay{}
	if got := d.Weight(1000, 1); math.Abs(got-0.001) > 1e-12 {
		t.Errorf("Weight = %g, want 0.001", got)
	}
}

// Decay must be monotonically non-increasing in age.
func TestDecayMonotoneProperty(t *testing.T) {
	d := Decay{TMax: 500}
	f := func(tnow, a, b uint16) bool {
		now := float64(tnow) + 1
		ta := now - math.Mod(float64(a), now)
		tb := now - math.Mod(float64(b), now)
		if ta > tb { // ta older
			ta, tb = tb, ta
		}
		return d.Weight(now, ta) <= d.Weight(now, tb)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestViewBenefitAndValue(t *testing.T) {
	d := Decay{TMax: 1000}
	v := &ViewStat{ID: "v", Size: 100, Cost: 50}
	v.RecordUse(100, 10)
	v.RecordUse(200, 20)
	// At tnow=200: B = 10*(100/200) + 20*1 = 25.
	if got := v.Benefit(200, d); math.Abs(got-25) > 1e-9 {
		t.Errorf("Benefit = %g, want 25", got)
	}
	// Φ = 50*25/100 = 12.5
	if got := v.Value(200, d); math.Abs(got-12.5) > 1e-9 {
		t.Errorf("Value = %g, want 12.5", got)
	}
}

func TestViewValueZeroSize(t *testing.T) {
	v := &ViewStat{ID: "v", Cost: 50}
	v.RecordUse(1, 1)
	if got := v.Value(10, Decay{}); got != 0 {
		t.Errorf("Value with zero size = %g, want 0", got)
	}
}

func TestFragBenefitAndValue(t *testing.T) {
	d := Decay{}
	f := &FragStat{Iv: interval.New(0, 9), Size: 10}
	f.RecordHit(50)
	f.RecordHit(100)
	// H = 50/100 + 1 = 1.5; perHit = (10/100)*40 = 4; B = 6.
	if got := f.Benefit(100, d, 100, 40); math.Abs(got-6) > 1e-9 {
		t.Errorf("Benefit = %g, want 6", got)
	}
	// Φ = 40*6/10 = 24.
	if got := f.Value(100, d, 100, 40); math.Abs(got-24) > 1e-9 {
		t.Errorf("Value = %g, want 24", got)
	}
	// Adjusted-hit variants with HA = 3: B = 4*3 = 12, Φ = 40*12/10 = 48.
	if got := f.BenefitFromHits(3, 100, 40); math.Abs(got-12) > 1e-9 {
		t.Errorf("BenefitFromHits = %g, want 12", got)
	}
	if got := f.ValueFromHits(3, 100, 40); math.Abs(got-48) > 1e-9 {
		t.Errorf("ValueFromHits = %g, want 48", got)
	}
}

func TestRegistryViewAndPartition(t *testing.T) {
	r := NewRegistry(Decay{TMax: 10})
	v := r.View("a")
	if v2 := r.View("a"); v2 != v {
		t.Error("View() did not return the same record")
	}
	if _, ok := r.LookupView("b"); ok {
		t.Error("LookupView found untracked view")
	}
	dom := interval.New(0, 100)
	p := r.Partition("a", "x", dom)
	if p2 := r.Partition("a", "x", dom); p2 != p {
		t.Error("Partition() did not return the same record")
	}
	if _, ok := r.LookupPartition("a", "y"); ok {
		t.Error("LookupPartition found untracked partition")
	}
	if got := r.Partitions("a"); len(got) != 1 {
		t.Errorf("Partitions = %d, want 1", len(got))
	}
	if got := r.Views(); len(got) != 1 || got[0].ID != "a" {
		t.Errorf("Views = %v", got)
	}
	for i := 0; i < 20; i++ {
		r.View(fmt.Sprintf("v%d", i)).Size = int64(i)
	}
	if got := r.NumViews(); got != 21 {
		t.Errorf("NumViews = %d, want 21", got)
	}
	if v, ok := r.LookupView("v7"); !ok || v.Size != 7 {
		t.Error("LookupView(v7) lost the record")
	}
}

func TestRegistryPartitionDomainMismatchPanics(t *testing.T) {
	r := NewRegistry(Decay{})
	r.Partition("a", "x", interval.New(0, 100))
	defer func() {
		if recover() == nil {
			t.Fatal("domain mismatch did not panic")
		}
	}()
	r.Partition("a", "x", interval.New(0, 200))
}

func TestPartitionStatFragmentsSorted(t *testing.T) {
	p := NewPartitionStat("v", "a", interval.New(0, 100))
	p.Frag(interval.New(50, 100))
	p.Frag(interval.New(0, 49))
	fs := p.Fragments()
	if len(fs) != 2 || fs[0].Iv.Lo != 0 {
		t.Errorf("Fragments = %v", fs)
	}
	p.Drop(interval.New(0, 49))
	if len(p.Fragments()) != 1 {
		t.Error("Drop did not remove fragment")
	}
}

func TestTotalHits(t *testing.T) {
	d := Decay{}
	p := NewPartitionStat("v", "a", interval.New(0, 100))
	p.Frag(interval.New(0, 49)).RecordHit(100)
	p.Frag(interval.New(50, 100)).RecordHit(50)
	// At tnow=100: 1 + 0.5 = 1.5
	if got := p.TotalHits(100, d); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("TotalHits = %g, want 1.5", got)
	}
}

func TestFitNormalCentersOnHotSpot(t *testing.T) {
	d := Decay{}
	p := NewPartitionStat("v", "a", interval.New(0, 1000))
	// Hot fragment around [400,500], cold neighbors.
	hot := p.Frag(interval.New(400, 500))
	for i := 0; i < 50; i++ {
		hot.RecordHit(100)
	}
	p.Frag(interval.New(0, 399))
	p.Frag(interval.New(501, 1000))
	m := p.FitNormal(100, d)
	if !m.Valid() {
		t.Fatal("model invalid")
	}
	if m.Mu < 400 || m.Mu > 500 {
		t.Errorf("mu = %g, want inside [400,500]", m.Mu)
	}
	// A fragment near the hot spot must receive more adjusted hits than
	// an equally-sized fragment far away — the correlation the paper
	// exploits.
	near := m.AdjustedHits(interval.New(501, 600))
	far := m.AdjustedHits(interval.New(901, 1000))
	if near <= far {
		t.Errorf("adjusted hits near=%g far=%g: correlation not captured", near, far)
	}
}

func TestFitNormalPaperScenario(t *testing.T) {
	// Section 7.1: many hits on [0,5], none on [6,10] and [11,15];
	// [6,10] should be judged likelier to be hit than [11,15].
	d := Decay{}
	p := NewPartitionStat("v", "a", interval.New(0, 15))
	h := p.Frag(interval.New(0, 5))
	for i := 0; i < 20; i++ {
		h.RecordHit(10)
	}
	p.Frag(interval.New(6, 10))
	p.Frag(interval.New(11, 15))
	m := p.FitNormal(10, d)
	a := m.AdjustedHits(interval.New(6, 10))
	b := m.AdjustedHits(interval.New(11, 15))
	if a <= b {
		t.Errorf("adjusted hits [6,10]=%g <= [11,15]=%g", a, b)
	}
}

func TestFitNormalNoHits(t *testing.T) {
	p := NewPartitionStat("v", "a", interval.New(0, 100))
	p.Frag(interval.New(0, 100))
	m := p.FitNormal(10, Decay{})
	if m.Valid() {
		t.Error("model with no hits should be invalid")
	}
	if m.AdjustedHits(interval.New(0, 10)) != 0 {
		t.Error("invalid model must adjust hits to 0")
	}
}

func TestFitNormalEmptyPartition(t *testing.T) {
	p := NewPartitionStat("v", "a", interval.New(0, 100))
	if m := p.FitNormal(10, Decay{}); m.Valid() {
		t.Error("empty partition produced a valid model")
	}
}

func TestAdjustedHitsSumsToHtotalOverDomain(t *testing.T) {
	d := Decay{}
	p := NewPartitionStat("v", "a", interval.New(0, 1000))
	f1 := p.Frag(interval.New(100, 300))
	f2 := p.Frag(interval.New(301, 600))
	for i := 0; i < 10; i++ {
		f1.RecordHit(100)
	}
	for i := 0; i < 5; i++ {
		f2.RecordHit(100)
	}
	m := p.FitNormal(100, d)
	// CDF mass over a wide interval around the domain ~= Htotal.
	total := m.AdjustedHits(interval.New(-5000, 5000))
	if math.Abs(total-m.Htotal) > 0.05*m.Htotal {
		t.Errorf("mass over wide interval = %g, want ~%g", total, m.Htotal)
	}
}

func TestCDFMonotone(t *testing.T) {
	m := NormalModel{Mu: 50, Sigma: 10, Htotal: 1}
	prev := -1.0
	for x := 0.0; x <= 100; x += 5 {
		c := m.CDF(x)
		if c < prev {
			t.Fatalf("CDF not monotone at %g", x)
		}
		prev = c
	}
}

func TestNectarValues(t *testing.T) {
	v := &ViewStat{ID: "v", Size: 100, Cost: 50}
	v.RecordUse(10, 5)
	v.RecordUse(20, 7)
	// Plain Nectar at tnow=30: last saving 7, dt=10: 50*7/(100*10) = 0.35.
	if got := NectarValue(v, 30); math.Abs(got-0.35) > 1e-9 {
		t.Errorf("NectarValue = %g, want 0.35", got)
	}
	// Nectar+: accumulated 12: 50*12/(100*10) = 0.6.
	if got := NectarPlusValue(v, 30); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("NectarPlusValue = %g, want 0.6", got)
	}
	// Nectar+ must value the view at least as much as plain Nectar.
	if NectarPlusValue(v, 30) < NectarValue(v, 30) {
		t.Error("Nectar+ < Nectar for accumulating history")
	}
}

func TestNectarZeroCases(t *testing.T) {
	v := &ViewStat{ID: "v", Size: 100, Cost: 50}
	if NectarValue(v, 10) != 0 || NectarPlusValue(v, 10) != 0 {
		t.Error("no-use view should have zero Nectar value")
	}
	f := &FragStat{Iv: interval.New(0, 1), Size: 10}
	if NectarFragValue(f, 10, 100, 50) != 0 || NectarPlusFragValue(f, 10, 100, 50) != 0 {
		t.Error("no-hit fragment should have zero Nectar value")
	}
}

func TestNectarFragValues(t *testing.T) {
	f := &FragStat{Iv: interval.New(0, 9), Size: 10}
	f.RecordHit(10)
	f.RecordHit(20)
	// perHit = (10/100)*50 = 5. dt = 10.
	// Plain: 50*5/(10*10) = 2.5. Plus: 50*10/(10*10) = 5.
	if got := NectarFragValue(f, 30, 100, 50); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("NectarFragValue = %g, want 2.5", got)
	}
	if got := NectarPlusFragValue(f, 30, 100, 50); math.Abs(got-5) > 1e-9 {
		t.Errorf("NectarPlusFragValue = %g, want 5", got)
	}
}

func TestNectarSameTimestampNoDivZero(t *testing.T) {
	v := &ViewStat{ID: "v", Size: 100, Cost: 50}
	v.RecordUse(30, 5)
	got := NectarValue(v, 30)
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("NectarValue at use time = %g", got)
	}
}

func TestPruneExpired(t *testing.T) {
	d := Decay{TMax: 100}
	p := NewPartitionStat("v", "a", interval.New(0, 1000))
	old := p.Frag(interval.New(0, 99))
	old.RecordHit(10) // expires once tnow-10 > 100
	fresh := p.Frag(interval.New(100, 199))
	fresh.RecordHit(500)
	protected := p.Frag(interval.New(200, 299))
	protected.RecordHit(10)
	never := p.Frag(interval.New(300, 399)) // no hits at all
	_ = never

	n := p.PruneExpired(600, d, func(iv interval.Interval) bool {
		return iv == interval.New(200, 299) // "materialized"
	})
	if n != 2 {
		t.Errorf("pruned %d, want 2 (the expired and the hitless)", n)
	}
	if _, ok := p.Lookup(interval.New(0, 99)); ok {
		t.Error("expired fragment survived")
	}
	if _, ok := p.Lookup(interval.New(100, 199)); !ok {
		t.Error("fresh fragment pruned")
	}
	if _, ok := p.Lookup(interval.New(200, 299)); !ok {
		t.Error("protected fragment pruned")
	}
}

func TestPruneExpiredNoTimeoutIsNoop(t *testing.T) {
	p := NewPartitionStat("v", "a", interval.New(0, 1000))
	p.Frag(interval.New(0, 99))
	if n := p.PruneExpired(1000, Decay{}, nil); n != 0 {
		t.Errorf("pruned %d without a timeout", n)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	// Hammer the registry from many goroutines over many view ids:
	// record identity must be stable (the same id always returns the
	// same *ViewStat/*PartitionStat) and enumeration must stay sorted.
	// Run under -race this checks the map locking.
	r := NewRegistry(Decay{TMax: 100})
	const goroutines, viewsN = 8, 50
	dom := interval.New(0, 999)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < viewsN; i++ {
				id := fmt.Sprintf("view-%d", i)
				v := r.View(id)
				if v2 := r.View(id); v2 != v {
					t.Errorf("View(%q) returned distinct records", id)
				}
				if lv, ok := r.LookupView(id); !ok || lv != v {
					t.Errorf("LookupView(%q) disagrees with View", id)
				}
				p := r.Partition(id, "a", dom)
				if p2, ok := r.LookupPartition(id, "a"); !ok || p2 != p {
					t.Errorf("LookupPartition(%q) disagrees with Partition", id)
				}
				if got := len(r.Partitions(id)); got != 1 {
					t.Errorf("Partitions(%q) = %d records, want 1", id, got)
				}
			}
		}(g)
	}
	wg.Wait()

	all := r.Views()
	if len(all) != viewsN {
		t.Fatalf("Views() = %d records, want %d", len(all), viewsN)
	}
	for i := 1; i < len(all); i++ {
		if !(all[i-1].ID < all[i].ID) {
			t.Fatalf("Views() not sorted: %q before %q", all[i-1].ID, all[i].ID)
		}
	}
}

// TestSpreadHitsMatchesAllPartsLoop: finding a fragment's parts by
// binary search performs the same additions in the same order as testing
// every part for overlap, so the hits agree bit for bit — for fragments
// inside the domain, across its edges, outside it and overlapping one
// another.
func TestSpreadHitsMatchesAllPartsLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 200; round++ {
		var got, want []fitPart
		for lo := int64(0); lo < 1000; {
			hi := lo + int64(rng.Intn(60))
			got = append(got, fitPart{iv: interval.New(lo, hi)})
			lo = hi + 1
		}
		want = append(want, got...)
		for k := 0; k < 30; k++ {
			lo := int64(rng.Intn(1300)) - 150
			frag := interval.New(lo, lo+int64(rng.Intn(400)))
			h := rng.Float64() * 10
			spreadHits(got, frag, h)
			for i := range want {
				if ov := want[i].iv.OverlapLen(frag); ov > 0 {
					want[i].hits += h * float64(ov) / float64(frag.Len())
				}
			}
		}
		for i := range want {
			if math.Float64bits(got[i].hits) != math.Float64bits(want[i].hits) {
				t.Fatalf("round %d part %s: %v hits, the all-parts loop gives %v", round, got[i].iv, got[i].hits, want[i].hits)
			}
		}
	}
}
