// Package cache holds a byte-bounded LRU of query results keyed by plan
// fingerprint. Entries record the pool generation of every materialized
// view the cached plan read, so a pool mutation (materialize, evict,
// split, merge, refinement) invalidates exactly the entries over the
// touched views — unrelated entries keep hitting. The cache keeps its
// own copy of every result; the tables it returns are shared and
// immutable: callers must not mutate a returned *Table.
package cache

import (
	"container/list"
	"sync"

	"deepsea/internal/relation"
)

// Dep pins a cache entry to one materialized view's content generation.
// The entry is valid only while the pool still reports Gen for ViewID.
type Dep struct {
	ViewID string
	Gen    uint64
}

// Stats counts cache traffic. Invalidations are entries dropped on Get
// because a dependency's generation moved — distinct from capacity
// Evictions. AdmissionRejects counts Puts refused by the cost-aware
// admission guard (result larger than the per-entry limit); a disabled
// cache (capacity <= 0) counts its refused Puts separately in
// DisabledPuts so /statz distinguishes "configured off" from "results
// too large to admit".
type Stats struct {
	Hits             int64
	Misses           int64
	Insertions       int64
	Evictions        int64
	Invalidations    int64
	AdmissionRejects int64
	DisabledPuts     int64
}

type entry struct {
	key   string
	tbl   *relation.Table
	bytes int64
	deps  []Dep
	elem  *list.Element
}

// ResultCache is a size-bounded (bytes, not entries) LRU of query
// results. Safe for concurrent use.
type ResultCache struct {
	mu       sync.Mutex
	maxBytes int64
	// maxEntry is the cost-aware admission guard: results larger than
	// this are never cached, so one giant result cannot flush the whole
	// working set on its way through the LRU. Defaults to maxBytes (no
	// guard beyond the trivial whole-cache bound).
	maxEntry int64
	// disabled marks a cache constructed with maxBytes <= 0: Get and Put
	// short-circuit without touching the hit/miss/reject counters, so a
	// configured-off cache does not masquerade as one that is thrashing.
	disabled bool
	bytes    int64
	entries  map[string]*entry
	lru      *list.List // front = most recently used; values are *entry
	stats    Stats
}

// New returns a cache bounded to maxBytes of table payload. maxBytes <=
// 0 yields a cache that stores nothing (every Get misses).
func New(maxBytes int64) *ResultCache {
	return NewWithEntryLimit(maxBytes, maxBytes)
}

// NewWithEntryLimit is New with a cost-aware admission guard: results
// larger than maxEntry bytes are refused (counted in
// Stats.AdmissionRejects) instead of cached. maxEntry <= 0 or >
// maxBytes clamps to maxBytes. maxBytes <= 0 yields a disabled cache:
// every Get misses and every Put is dropped, without polluting the
// traffic counters (historically the zero capacity clamped maxEntry to
// 0 too, so every Put counted as an admission reject).
func NewWithEntryLimit(maxBytes, maxEntry int64) *ResultCache {
	if maxEntry <= 0 || maxEntry > maxBytes {
		maxEntry = maxBytes
	}
	return &ResultCache{
		maxBytes: maxBytes,
		maxEntry: maxEntry,
		disabled: maxBytes <= 0,
		entries:  make(map[string]*entry),
		lru:      list.New(),
	}
}

// Disabled reports whether the cache is configured off (capacity <= 0).
// A nil cache is disabled.
func (c *ResultCache) Disabled() bool {
	return c == nil || c.disabled
}

// Get returns the cached table for key if present and still valid. gen
// reports the pool's current generation for a view id; an entry whose
// recorded dependency generations disagree is stale — it is dropped and
// the Get misses. A hit refreshes the entry's LRU position.
func (c *ResultCache) Get(key string, gen func(viewID string) uint64) (*relation.Table, bool) {
	if c == nil || c.disabled {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	for _, d := range e.deps {
		if gen == nil || gen(d.ViewID) != d.Gen {
			c.drop(e)
			c.stats.Invalidations++
			c.stats.Misses++
			return nil, false
		}
	}
	c.lru.MoveToFront(e.elem)
	c.stats.Hits++
	return e.tbl, true
}

// Put stores a copy of tbl under key with the given view dependencies
// (deps may be nil for results over base tables only). A table larger
// than the admission limit (NewWithEntryLimit; at most the whole cache)
// is refused and counted as an admission reject. Storing under an
// existing key replaces the old entry.
//
// The copy is the cache's side of the engine's slab ownership rule: a
// result's rows are carved from allocations shared with rows the query
// filtered out or never returned, so keeping them would hold more
// memory than the bytes the entry is charged for.
func (c *ResultCache) Put(key string, tbl *relation.Table, deps []Dep) {
	if c == nil || tbl == nil {
		return
	}
	if c.disabled {
		c.mu.Lock()
		c.stats.DisabledPuts++
		c.mu.Unlock()
		return
	}
	bytes := tbl.Bytes()
	if bytes > c.maxEntry {
		c.mu.Lock()
		c.stats.AdmissionRejects++
		c.mu.Unlock()
		return
	}
	tbl = tbl.Clone()
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[key]; ok {
		c.drop(old)
	}
	for c.bytes+bytes > c.maxBytes {
		back := c.lru.Back()
		if back == nil {
			break
		}
		c.drop(back.Value.(*entry))
		c.stats.Evictions++
	}
	e := &entry{key: key, tbl: tbl, bytes: bytes, deps: append([]Dep(nil), deps...)}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.bytes += bytes
	c.stats.Insertions++
}

// drop removes an entry; the caller holds c.mu.
func (c *ResultCache) drop(e *entry) {
	c.lru.Remove(e.elem)
	delete(c.entries, e.key)
	c.bytes -= e.bytes
}

// Stats returns a snapshot of the traffic counters.
func (c *ResultCache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of cached entries.
func (c *ResultCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Capacity returns the cache's byte bound (0 = caching disabled).
func (c *ResultCache) Capacity() int64 {
	if c == nil {
		return 0
	}
	return c.maxBytes
}

// Bytes returns the cached payload size.
func (c *ResultCache) Bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
