//go:build lockcheck

package core

import (
	"fmt"
	"sync"
	"testing"

	"deepsea/internal/lockcheck"
)

// TestCacheHitQueryAcquiresNoTrackedLocks pins the lock-free read path:
// a repeated query answered from the result cache must not touch the
// planning lock, any view stripe, or the pin registry — its reads go
// through the cache and the pool's lock-free generation counters
// alone. Only meaningful under -tags lockcheck, where every
// tracked acquisition reports to lockcheck.Acquire.
func TestCacheHitQueryAcquiresNoTrackedLocks(t *testing.T) {
	d := newTestSystem(t, func(c *Config) { c.CacheBytes = 64 << 20 })

	// Prime: the first run plans, executes, maintains, and caches.
	r1 := run(t, d, q30(1000, 1999))
	if r1.CacheHit {
		t.Fatal("first run was a cache hit; nothing was primed")
	}

	var mu sync.Mutex
	var acquired []string
	lockcheck.TestHook = func(rank, idx int, name string) {
		mu.Lock()
		acquired = append(acquired, fmt.Sprintf("%s(rank=%d,idx=%d)", name, rank, idx))
		mu.Unlock()
	}
	defer func() { lockcheck.TestHook = nil }()

	r2 := run(t, d, q30(1000, 1999))
	if !r2.CacheHit {
		t.Fatal("identical repeat was not a cache hit")
	}
	mu.Lock()
	hits := append([]string(nil), acquired...)
	acquired = acquired[:0]
	mu.Unlock()
	if len(hits) != 0 {
		t.Fatalf("cache-hit query acquired tracked locks: %v", hits)
	}

	// Control: a fresh query must report acquisitions, proving the hook
	// observes the locked path at all.
	run(t, d, q30(4000, 4999))
	mu.Lock()
	misses := len(acquired)
	mu.Unlock()
	if misses == 0 {
		t.Fatal("control query reported no acquisitions; the hook is not wired")
	}
}
