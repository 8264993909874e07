package core

import (
	"sort"
	"sync"
)

// matMaxFailures is how many failed materialization attempts a view
// gets before further attempts are blacklisted. Materialization is a
// best-effort side effect of query execution (Section 2): a view that
// repeatedly fails to materialize must stop consuming write budget, not
// fail queries.
const matMaxFailures = 3

// matBackoff tracks per-view materialization failures. It is a leaf
// lock: its mutex is never held while acquiring any other lock. Appliers
// consult it under the manager lock, but a finishing query builds its
// task list (maintenanceTasks) with no manager lock held, hence the
// internal mutex.
type matBackoff struct {
	mu       sync.Mutex
	failures map[string]int
}

func newMatBackoff() *matBackoff {
	return &matBackoff{failures: make(map[string]int)}
}

// allowed reports whether the view may attempt materialization:
// true until the view accumulates matMaxFailures failures (or one
// permanent fault) without an intervening success.
func (b *matBackoff) allowed(id string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.failures[id] < matMaxFailures
}

// noteFailure records one failed attempt. A permanent fault (a corrupt
// target, a poisoned definition) blacklists the view immediately;
// transient ones count toward matMaxFailures.
func (b *matBackoff) noteFailure(id string, permanent bool) {
	b.mu.Lock()
	if permanent {
		b.failures[id] = matMaxFailures
	} else {
		b.failures[id]++
	}
	b.mu.Unlock()
}

// noteSuccess clears the view's failure count: a successful attempt
// ends the backoff.
func (b *matBackoff) noteSuccess(id string) {
	b.mu.Lock()
	delete(b.failures, id)
	b.mu.Unlock()
}

// snapshot returns the views currently in backoff (failed at least once
// but still allowed to retry) and the blacklisted ones, each sorted —
// the health surface's view of materialization trouble.
func (b *matBackoff) snapshot() (backoff, blacklisted []string) {
	b.mu.Lock()
	for id, n := range b.failures {
		if n >= matMaxFailures {
			blacklisted = append(blacklisted, id)
		} else if n > 0 {
			backoff = append(backoff, id)
		}
	}
	b.mu.Unlock()
	sort.Strings(backoff)
	sort.Strings(blacklisted)
	return backoff, blacklisted
}
