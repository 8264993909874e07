package core

import (
	"hash/fnv"
	"sort"
	"sync"

	"deepsea/internal/lockcheck"
)

// defaultLockStripes is the view-lock stripe count. Stripes bound memory
// (no per-view lock object churn) while keeping the collision
// probability of small lock sets low.
const defaultLockStripes = 64

// viewLocks is the per-view lock striping behind ProcessQuery's
// maintenance section: view ids hash onto a fixed array of RW stripes.
// Planning holds every stripe shared, so it sees a stable pool and can
// mutate any view's statistics records; a query's maintenance holds
// only its own views' stripes exclusive, so mutating queries over
// disjoint views (different stripes) proceed in parallel. Two views
// that collide on a stripe merely serialize — never a correctness
// problem, only lost parallelism.
//
// Deadlock freedom: every multi-stripe acquisition — the planning
// read-all and each maintenance lock set — takes stripes in ascending
// index order, so circular waits cannot form. The lockcheck build tag
// asserts this at runtime.
type viewLocks struct {
	stripes []sync.RWMutex
}

// newViewLocks returns a stripe set of defaultLockStripes stripes.
func newViewLocks() *viewLocks {
	return &viewLocks{stripes: make([]sync.RWMutex, defaultLockStripes)}
}

// stripeOf maps a view id to its stripe index.
func (l *viewLocks) stripeOf(id string) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(len(l.stripes)))
}

// stripeSet maps view ids (any order, duplicates allowed) to the sorted
// deduplicated stripe indices that cover them — the canonical
// acquisition order.
func (l *viewLocks) stripeSet(ids []string) []int {
	seen := make(map[int]bool, len(ids))
	out := make([]int, 0, len(ids))
	for _, id := range ids {
		s := l.stripeOf(id)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Ints(out)
	return out
}

// lockViews exclusively locks the stripes covering ids, in ascending
// stripe order, and returns the held stripe indices for unlockViews.
func (l *viewLocks) lockViews(ids []string) []int {
	set := l.stripeSet(ids)
	for _, s := range set {
		lockcheck.Acquire(lockcheck.RankView, s, "view stripe (write)")
		l.stripes[s].Lock()
	}
	return set
}

// unlockViews releases a lock set taken by lockViews.
func (l *viewLocks) unlockViews(set []int) {
	for i := len(set) - 1; i >= 0; i-- {
		l.stripes[set[i]].Unlock()
		lockcheck.Release(lockcheck.RankView, set[i], "view stripe (write)")
	}
}

// rlockAll takes every stripe shared, in ascending order — the planning
// phase's view of the world: no maintenance in flight anywhere, while
// other planners and executing queries proceed.
func (l *viewLocks) rlockAll() {
	for i := range l.stripes {
		lockcheck.Acquire(lockcheck.RankView, i, "view stripe (read)")
		l.stripes[i].RLock()
	}
}

// runlockAll releases rlockAll.
func (l *viewLocks) runlockAll() {
	for i := len(l.stripes) - 1; i >= 0; i-- {
		l.stripes[i].RUnlock()
		lockcheck.Release(lockcheck.RankView, i, "view stripe (read)")
	}
}
