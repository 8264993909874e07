// Package cache holds a byte-bounded LRU of query results. The key is
// the whole validity rule: the caller names in it everything a result
// depends on (for the view manager, the plan fingerprint, the base
// catalog version and every base table's row count), so an entry never
// goes stale and nothing invalidates it — a change that could alter the
// answer changes the key. The cache keeps its own copy of every result;
// the tables it returns are shared and immutable: callers must not
// mutate a returned *Table.
package cache

import (
	"container/list"
	"sync"

	"deepsea/internal/relation"
)

// Stats counts cache traffic. AdmissionRejects counts Puts refused by
// the cost-aware admission guard (result larger than the per-entry
// limit), distinct from capacity Evictions.
type Stats struct {
	Hits             int64
	Misses           int64
	Insertions       int64
	Evictions        int64
	AdmissionRejects int64
}

type entry struct {
	key   string
	tbl   *relation.Table
	bytes int64
	elem  *list.Element
}

// ResultCache is a size-bounded (bytes, not entries) LRU of query
// results. Safe for concurrent use; a nil *ResultCache is a cache that
// is off (every Get misses, every Put is dropped).
type ResultCache struct {
	mu       sync.Mutex
	maxBytes int64
	// maxEntry is the cost-aware admission guard: results larger than
	// this are never cached, so one giant result cannot flush the whole
	// working set on its way through the LRU.
	maxEntry int64
	bytes    int64
	entries  map[string]*entry
	lru      *list.List // front = most recently used; values are *entry
	stats    Stats
}

// New returns a cache bounded to maxBytes of table payload that admits
// results of at most maxEntry bytes (larger ones are refused and
// counted in Stats.AdmissionRejects). maxEntry <= 0 or > maxBytes
// clamps to maxBytes.
func New(maxBytes, maxEntry int64) *ResultCache {
	if maxEntry <= 0 || maxEntry > maxBytes {
		maxEntry = maxBytes
	}
	return &ResultCache{
		maxBytes: maxBytes,
		maxEntry: maxEntry,
		entries:  make(map[string]*entry),
		lru:      list.New(),
	}
}

// Get returns the cached table for key. A hit refreshes the entry's LRU
// position.
func (c *ResultCache) Get(key string) (*relation.Table, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.lru.MoveToFront(e.elem)
	c.stats.Hits++
	return e.tbl, true
}

// Put stores a copy of tbl under key. A table larger than the admission
// limit is refused and counted as an admission reject. Storing under an
// existing key replaces the old entry.
//
// The copy is the cache's side of the engine's slab ownership rule: a
// result's rows are carved from allocations shared with rows the query
// filtered out or never returned, so keeping them would hold more
// memory than the bytes the entry is charged for.
func (c *ResultCache) Put(key string, tbl *relation.Table) {
	if c == nil || tbl == nil {
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
	e := &entry{key: key, tbl: tbl, bytes: bytes}
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

// Capacity returns the cache's byte bound (0 for a nil cache).
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
