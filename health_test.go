package deepsea

import "testing"

// TestTemplateKey: queries differing only in range bounds share a
// template key; different shapes do not.
func TestTemplateKey(t *testing.T) {
	s := newSystem(t)
	a, err := s.TemplateKey(salesByCategory(0, 499))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.TemplateKey(salesByCategory(250, 750))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same template, different ranges: keys differ")
	}
	c, err := s.TemplateKey(Scan("sales").Where("item", 0, 499).
		GroupBy("item").Agg(Count("n")))
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different shapes share a template key")
	}
	if _, err := s.TemplateKey(Scan("missing")); err == nil {
		t.Error("unknown table produced a template key")
	}
}

// TestHealthSnapshot: the operational snapshot reflects traffic, pool
// occupancy and cache counters.
func TestHealthSnapshot(t *testing.T) {
	s := newSystem(t, WithResultCache(64<<20), WithPoolLimit(1<<30))
	if h := s.Health(); h.Queries != 0 || h.InFlight != 0 {
		t.Fatalf("fresh system health: %+v", h)
	}
	if _, err := s.Run(salesByCategory(0, 499)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(salesByCategory(0, 499)); err != nil {
		t.Fatal(err)
	}
	h := s.Health()
	if h.Queries != 2 {
		t.Errorf("Queries = %d, want 2", h.Queries)
	}
	if h.InFlight != 0 {
		t.Errorf("InFlight = %d, want 0", h.InFlight)
	}
	// The repeat is a cache hit and must not plan.
	if h.PlanAcquisitions != 1 {
		t.Errorf("PlanAcquisitions = %d, want 1", h.PlanAcquisitions)
	}
	if h.PoolBytes != s.PoolBytes() {
		t.Errorf("PoolBytes = %d, want %d", h.PoolBytes, s.PoolBytes())
	}
	if h.PoolLimit != 1<<30 {
		t.Errorf("PoolLimit = %d, want %d", h.PoolLimit, int64(1<<30))
	}
	if h.CacheCapacity != 64<<20 {
		t.Errorf("CacheCapacity = %d, want %d", h.CacheCapacity, int64(64<<20))
	}
	if h.CacheHits == 0 {
		t.Error("identical repeat query did not hit the cache")
	}
	if h.StatsViews == 0 {
		t.Error("stats registry empty")
	}

	// Degradation state surfaces: every stored read fails, so the second
	// query quarantines what the first materialized.
	f := newSystem(t, WithFaultInjection(FaultConfig{Seed: 7, StorageRead: 1}), WithFaultRetries(64))
	if _, err := f.Run(salesByCategory(0, 499)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(salesByCategory(0, 499)); err != nil {
		t.Fatal(err)
	}
	fh := f.Health()
	if len(fh.Quarantined) == 0 {
		t.Error("health reports no quarantined files after injected read faults")
	}
	if fh.FaultsInjected == 0 {
		t.Error("health reports no injected faults")
	}
}
