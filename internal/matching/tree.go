// Package matching implements DeepSea's view and partition matching
// (Section 8): a filter-tree index over view signatures, enumeration of
// rewritings of a query using (partitioned) views, fragment-cover
// construction via Algorithm 2, and remainder-plan generation for
// partially covered selection ranges.
package matching

import (
	"slices"
	"sort"
	"sync"

	"deepsea/internal/relation"
	"deepsea/internal/signature"
)

// Entry is one indexed view: its identity, signature, and output schema.
type Entry struct {
	// ID is the view's signature key.
	ID string
	// Sig is the view's signature.
	Sig *signature.Signature
	// Schema is the view's output schema (with domain metadata).
	Schema relation.Schema
}

// FilterTree indexes view signatures for fast candidate pruning. The
// original filter tree of Goldstein and Larson is a multi-level trie
// keyed by signature parts (relations, then join predicates, ...); since
// our sufficient condition requires those parts to be *equal* between
// view and query, the trie collapses to a hash on the combined family key
// — same pruning power, simpler structure. Detailed range/residual/
// output checks run only within the matching family.
//
// Concurrency: one RWMutex guards both maps, which Add changes in place.
// core's callers (the planner's rewriter, candidate registration,
// Snapshot and recovery) already hold the view manager's lock, so the
// mutex is uncontended there; it keeps the index safe for any other
// caller. Entries are immutable once added.
type FilterTree struct {
	mu       sync.RWMutex
	families map[string][]*Entry // family key -> entries sorted by ID
	byID     map[string]*Entry
}

// NewFilterTree returns an empty index.
func NewFilterTree() *FilterTree {
	return &FilterTree{
		families: make(map[string][]*Entry),
		byID:     make(map[string]*Entry),
	}
}

// Add indexes a view entry, inserting it at its sorted place in its
// family. Adding an already-indexed ID is a no-op.
func (ft *FilterTree) Add(e *Entry) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if _, ok := ft.byID[e.ID]; ok {
		return
	}
	ft.byID[e.ID] = e
	famKey := e.Sig.FamilyKey()
	fam := ft.families[famKey]
	at := sort.Search(len(fam), func(i int) bool { return fam[i].ID > e.ID })
	ft.families[famKey] = slices.Insert(fam, at, e)
}

// Lookup returns the entry with the given ID.
func (ft *FilterTree) Lookup(id string) (*Entry, bool) {
	ft.mu.RLock()
	defer ft.mu.RUnlock()
	e, ok := ft.byID[id]
	return e, ok
}

// Len returns the number of indexed views.
func (ft *FilterTree) Len() int {
	ft.mu.RLock()
	defer ft.mu.RUnlock()
	return len(ft.byID)
}

// Entries returns every indexed entry, sorted by ID — the persistence
// boundary walks this to snapshot the index.
func (ft *FilterTree) Entries() []*Entry {
	ft.mu.RLock()
	out := make([]*Entry, 0, len(ft.byID))
	for _, e := range ft.byID {
		out = append(out, e)
	}
	ft.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Candidates returns the entries whose family matches the query
// signature — the survivors of the index's pruning, still subject to the
// detailed sufficient condition. The returned slice is a copy, so
// callers may reorder or extend it freely.
func (ft *FilterTree) Candidates(q *signature.Signature) []*Entry {
	key := q.FamilyKey()
	ft.mu.RLock()
	defer ft.mu.RUnlock()
	return append([]*Entry(nil), ft.families[key]...)
}
