package core

import (
	"testing"
	"time"
)

// TestCacheHitTakesNoManagerLock pins the lock-free read path: with the
// manager lock and the pin lock both held by the test, a repeated query
// must still come back from the result cache — its key reads the
// engine's base row counts and its lookup the cache alone. The control
// proves the test would notice a hit that took the lock: a fresh range
// issued the same way stays blocked until the locks are released.
func TestCacheHitTakesNoManagerLock(t *testing.T) {
	d := newTestSystem(t, func(c *Config) { c.CacheBytes = 64 << 20 })

	// Prime: the first run plans, executes, maintains, and caches.
	if run(t, d, q30(1000, 1999)).CacheHit {
		t.Fatal("first run was a cache hit; nothing was primed")
	}

	type outcome struct {
		rep QueryReport
		err error
	}
	issue := func(lo, hi int64) <-chan outcome {
		ch := make(chan outcome, 1)
		go func() {
			rep, err := d.ProcessQuery(q30(lo, hi))
			ch <- outcome{rep, err}
		}()
		return ch
	}

	d.mu.Lock()
	d.pinMu.Lock()
	locked := true
	unlock := func() {
		if locked {
			d.pinMu.Unlock()
			d.mu.Unlock()
			locked = false
		}
	}
	defer unlock()

	// The fresh range first, and wait until it has entered its planning
	// section (planAcq moves right before the lock is taken), so "still
	// blocked" below means blocked on the lock, not late to start.
	before := d.planAcq.Load()
	fresh := issue(4000, 4999)
	for deadline := time.Now().Add(10 * time.Second); d.planAcq.Load() == before; {
		if time.Now().After(deadline) {
			t.Fatal("control query never reached its planning section")
		}
		time.Sleep(time.Millisecond)
	}

	select {
	case hit := <-issue(1000, 1999):
		if hit.err != nil {
			t.Fatal(hit.err)
		}
		if !hit.rep.CacheHit {
			t.Fatal("identical repeat was not a cache hit")
		}
	case <-time.After(time.Second):
		t.Fatal("cache hit did not return within 1s with the manager locks held")
	}

	select {
	case <-fresh:
		t.Fatal("control query completed with the manager locks held; the test observes nothing")
	default:
	}

	unlock()
	select {
	case out := <-fresh:
		if out.err != nil {
			t.Fatal(out.err)
		}
		if out.rep.CacheHit {
			t.Fatal("control query was a cache hit")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("control query did not complete after the locks were released")
	}
}
