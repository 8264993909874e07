// Package pool maintains the materialized view pool: which views and
// partitions are currently stored, their total size against the limit
// Smax, and the greedy value-ranked selection of the next configuration
// (Section 7.3).
package pool

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"deepsea/internal/datastore"
	"deepsea/internal/interval"
	"deepsea/internal/partition"
	"deepsea/internal/relation"
)

// View is one materialized view in the pool. A view may be stored
// unpartitioned (Path non-empty), partitioned on one or more attributes,
// or both.
type View struct {
	// ID is the view's signature key.
	ID string
	// Schema is the view's output schema.
	Schema relation.Schema
	// Path is the unpartitioned file's location; empty if the view is
	// stored only as partitions. Mutate only through Pool.SetViewFile /
	// Pool.DropViewFile so the pool's size counter stays consistent.
	Path string
	// Size is the unpartitioned file's size in bytes (0 if none).
	Size int64
	// Parts maps a partition attribute to its partition. Mutate fragments
	// only through Pool.AddFragment / Pool.RemoveFragment.
	Parts map[string]*partition.Partition
}

// PartAttrs returns the view's partition attributes in sorted order,
// for deterministic iteration.
func (v *View) PartAttrs() []string {
	out := make([]string, 0, len(v.Parts))
	for a := range v.Parts {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// TotalSize returns the bytes this view occupies across its
// unpartitioned file and all partitions.
func (v *View) TotalSize() int64 {
	total := v.Size
	for _, p := range v.Parts {
		total += p.TotalSize()
	}
	return total
}

// Pool is the materialized view pool (the configuration C).
//
// Concurrency: the pool's mutex guards the view map and the incremental
// size counter, so size queries (TotalSize, Fits) and Views listings are
// safe from any goroutine. The *content* of a View — its partitions and
// fragment lists — is mutated only through the pool's mutation methods,
// and only under the view manager's own lock; readers that walk
// partitions (matching, selection) run under that same manager lock.
type Pool struct {
	// Smax is the pool size limit in bytes; 0 means unlimited.
	Smax int64

	mu    sync.RWMutex
	views map[string]*View
	// size is S(C), maintained incrementally by every mutation so Fits
	// is O(1) instead of a full walk per greedy-selection probe.
	size int64
	// gens counts content mutations per view id (materialize, evict,
	// fragment add/remove/split/merge, removal): view id -> *atomic.Uint64.
	// The result cache records the generation of every view a cached plan
	// read, so a mutation invalidates exactly the entries over the touched
	// views. A counter is created on its view's first mutation and is
	// never removed — a re-created view must not resurrect stale cached
	// results by restarting at zero — so the map only grows; a bump and a
	// read are each one lock-free lookup and one atomic operation, whatever
	// the number of ids the pool has ever seen.
	gens sync.Map
	// journal, when non-nil, receives one record per pool mutation while
	// p.mu is held, so the journal's order for pool ops is the mutation
	// order. Creation-only paths (Ensure, EnsurePartition) journal only
	// when they actually create.
	journal func(datastore.Record)
}

// New returns an empty pool with the given size limit.
func New(smax int64) *Pool {
	return &Pool{Smax: smax, views: make(map[string]*View)}
}

// genCounter returns the view's generation counter, creating it at zero
// on first use.
func (p *Pool) genCounter(id string) *atomic.Uint64 {
	c, ok := p.gens.Load(id)
	if !ok {
		c, _ = p.gens.LoadOrStore(id, new(atomic.Uint64))
	}
	return c.(*atomic.Uint64)
}

// bumpGen advances a view's generation. Caller holds p.mu, so bumps of
// one view are ordered with the mutations they announce.
func (p *Pool) bumpGen(id string) { p.genCounter(id).Add(1) }

// SetJournal attaches a mutation journal; nil detaches it. Every
// mutation method emits a record describing itself while holding the
// pool mutex. Replaying those records through the same mutation API
// reproduces the pool — contents, size counter and generation counters
// alike. Set before concurrent use (and detach during replay, or the
// recovery would journal its own echoes).
func (p *Pool) SetJournal(fn func(datastore.Record)) {
	p.mu.Lock()
	p.journal = fn
	p.mu.Unlock()
}

// emit journals one record; caller holds p.mu.
func (p *Pool) emit(rec datastore.Record) {
	if p.journal != nil {
		p.journal(rec)
	}
}

// Generations returns a copy of every view's content-mutation counter,
// for snapshots: the cache keys validity to these, so a warm restart
// must resume them rather than restart at zero.
func (p *Pool) Generations() map[string]uint64 {
	out := make(map[string]uint64)
	p.gens.Range(func(id, c any) bool {
		out[id.(string)] = c.(*atomic.Uint64).Load()
		return true
	})
	return out
}

// RestoreGenerations overwrites the generation counters from a snapshot.
// Recovery calls it after replaying the mutation tail, which bumped
// generations exactly as the original mutations did — so this only
// matters for counters the snapshot carries beyond the replayed state
// (views evicted before the snapshot, for example).
func (p *Pool) RestoreGenerations(gens map[string]uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for id, g := range gens {
		if c := p.genCounter(id); g > c.Load() {
			c.Store(g)
		}
	}
}

// Generation returns the view's content-mutation counter. It is zero for
// never-touched views and keeps counting across removal and re-creation.
// Lock-free: one map lookup and one atomic load.
//
// A validation that reads several views' generations (the result cache
// checking every view a cached plan read) does not see one instant of
// the pool, and does not need to: counters only grow, so a counter that
// equals its recorded value when read has equalled it ever since it was
// recorded. If every dependency matches when its turn comes, all of
// them matched at the moment the first was read — the entry was valid
// at a point inside the lookup, which is all a cache hit promises.
func (p *Pool) Generation(id string) uint64 {
	if c, ok := p.gens.Load(id); ok {
		return c.(*atomic.Uint64).Load()
	}
	return 0
}

// View returns the pool entry for id, or nil.
func (p *Pool) View(id string) *View {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.views[id]
}

// Has reports whether a view with any materialized content exists.
func (p *Pool) Has(id string) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	_, ok := p.views[id]
	return ok
}

// Ensure returns the view entry for id, creating an empty one on first
// use.
func (p *Pool) Ensure(id string, schema relation.Schema) *View {
	p.mu.Lock()
	defer p.mu.Unlock()
	v, ok := p.views[id]
	if !ok {
		v = &View{ID: id, Schema: schema, Parts: make(map[string]*partition.Partition)}
		p.views[id] = v
		sch := schema
		p.emit(datastore.Record{Op: "ensure_view", View: id, Schema: &sch})
	}
	return v
}

// Remove deletes a view and all its partitions from the pool metadata.
func (p *Pool) Remove(id string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if v, ok := p.views[id]; ok {
		p.size -= v.TotalSize()
		delete(p.views, id)
		p.bumpGen(id)
		p.emit(datastore.Record{Op: "remove_view", View: id})
	}
}

// SetViewFile records that the view's unpartitioned file now lives at
// path with the given size, replacing any previous file's contribution
// to the pool size. The view must already exist (Ensure).
func (p *Pool) SetViewFile(id, path string, size int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	v, ok := p.views[id]
	if !ok {
		panic(fmt.Sprintf("pool: SetViewFile on unknown view %s", id))
	}
	p.size += size - v.Size
	v.Path = path
	v.Size = size
	p.bumpGen(id)
	p.emit(datastore.Record{Op: "set_view_file", View: id, Path: path, Size: size})
}

// DropViewFile removes the view's unpartitioned file from the metadata
// (eviction keeps any partitions).
func (p *Pool) DropViewFile(id string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	v, ok := p.views[id]
	if !ok {
		return
	}
	p.size -= v.Size
	v.Path = ""
	v.Size = 0
	p.bumpGen(id)
	p.emit(datastore.Record{Op: "drop_view_file", View: id})
}

// Invalidate bumps a view's generation without touching its contents —
// the staleness signal of the ingest path. A base-table append leaves
// the view's files in place (they still answer exactly for the
// pre-append prefix) but must unreach every cached result that read
// them, which the generation bump does through the result cache's
// dependency validation.
func (p *Pool) Invalidate(id string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.views[id]; !ok {
		return
	}
	p.bumpGen(id)
	p.emit(datastore.Record{Op: "inval_view", View: id})
}

// EnsurePartition returns the view's partition on attr, creating an
// empty one on first use. The view must already exist (Ensure).
func (p *Pool) EnsurePartition(id, attr string, dom interval.Interval, overlapping bool) *partition.Partition {
	p.mu.Lock()
	defer p.mu.Unlock()
	v, ok := p.views[id]
	if !ok {
		panic(fmt.Sprintf("pool: EnsurePartition on unknown view %s", id))
	}
	part, ok := v.Parts[attr]
	if !ok {
		part = partition.New(id, attr, dom, overlapping)
		v.Parts[attr] = part
		p.emit(datastore.Record{Op: "ensure_part", View: id, Attr: attr, Dom: dom, Overlapping: overlapping})
	}
	return part
}

// AddFragment registers a stored fragment with the view's partition on
// attr (which must exist; see EnsurePartition), accounting for the
// replacement of any same-interval predecessor.
func (p *Pool) AddFragment(id, attr string, f partition.Fragment) {
	p.mu.Lock()
	defer p.mu.Unlock()
	v, ok := p.views[id]
	if !ok {
		panic(fmt.Sprintf("pool: AddFragment on unknown view %s", id))
	}
	part, ok := v.Parts[attr]
	if !ok {
		panic(fmt.Sprintf("pool: AddFragment on missing partition %s.%s", id, attr))
	}
	if old, had := part.Lookup(f.Iv); had {
		p.size -= old.Size
	}
	p.size += f.Size
	part.Add(f)
	p.bumpGen(id)
	p.emit(datastore.Record{Op: "add_frag", View: id, Attr: attr, Iv: f.Iv, Path: f.Path, Size: f.Size})
}

// RemoveFragment deletes the fragment stored for iv from the view's
// partition on attr; it reports whether a fragment was present.
func (p *Pool) RemoveFragment(id, attr string, iv interval.Interval) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	v, ok := p.views[id]
	if !ok {
		return false
	}
	part, ok := v.Parts[attr]
	if !ok {
		return false
	}
	f, ok := part.Lookup(iv)
	if !ok {
		return false
	}
	p.size -= f.Size
	part.Remove(iv)
	p.bumpGen(id)
	p.emit(datastore.Record{Op: "remove_frag", View: id, Attr: attr, Iv: iv})
	return true
}

// Views returns the pool's views sorted by id.
func (p *Pool) Views() []*View {
	p.mu.RLock()
	out := make([]*View, 0, len(p.views))
	for _, v := range p.views {
		out = append(out, v)
	}
	p.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TotalSize returns S(C), the bytes occupied by all views and fragments,
// from the incrementally maintained counter (O(1)).
func (p *Pool) TotalSize() int64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.size
}

// Occupancy summarises the pool for the health surface.
type Occupancy struct {
	// Bytes is S(C); Limit is Smax (0 = unlimited).
	Bytes, Limit int64
	// Views counts pool entries with any materialized content; ViewFiles
	// counts unpartitioned view files; Fragments counts stored fragments
	// across all partitions.
	Views, ViewFiles, Fragments int
}

// Occupancy returns a consistent snapshot of the pool's size and entry
// counts. Every mutation of view contents goes through the pool's
// methods under p.mu, so the walk is safe from any goroutine.
func (p *Pool) Occupancy() Occupancy {
	p.mu.RLock()
	defer p.mu.RUnlock()
	oc := Occupancy{Bytes: p.size, Limit: p.Smax, Views: len(p.views)}
	for _, v := range p.views {
		if v.Path != "" {
			oc.ViewFiles++
		}
		for _, part := range v.Parts {
			oc.Fragments += part.NumFragments()
		}
	}
	return oc
}

// WalkSize recomputes S(C) by walking every view and fragment — the
// quantity TotalSize tracks incrementally. Exported for integrity
// checks; see VerifySize.
func (p *Pool) WalkSize() int64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var total int64
	for _, v := range p.views {
		total += v.TotalSize()
	}
	return total
}

// VerifySize checks the incremental size counter against a full walk and
// returns an error describing any divergence (a mutation bypassed the
// pool API).
func (p *Pool) VerifySize() error {
	counter := p.TotalSize()
	walk := p.WalkSize()
	if counter != walk {
		return fmt.Errorf("pool: size counter %d != walked size %d", counter, walk)
	}
	return nil
}

// Fits reports whether adding extra bytes keeps the pool within Smax.
func (p *Pool) Fits(extra int64) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.Smax <= 0 || p.size+extra <= p.Smax
}

// GC removes view entries that hold no materialized content.
func (p *Pool) GC() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for id, v := range p.views {
		p.gcView(id, v)
	}
}

// GCViews removes the named views' entries when they hold no
// materialized content, leaving every other view alone. Under per-view
// lock striping the manager calls this with exactly the views its
// maintenance locked: a full GC would race a concurrent query that
// Ensured a still-empty view it is about to fill.
func (p *Pool) GCViews(ids ...string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, id := range ids {
		if v, ok := p.views[id]; ok {
			p.gcView(id, v)
		}
	}
}

// gcView drops one view entry if it is empty. Caller holds p.mu.
func (p *Pool) gcView(id string, v *View) {
	empty := v.Path == ""
	for _, part := range v.Parts {
		if part.NumFragments() > 0 {
			empty = false
		}
	}
	if empty {
		p.size -= v.TotalSize() // only a stray Size could remain; keep the counter exact
		delete(p.views, id)
		p.bumpGen(id)
		p.emit(datastore.Record{Op: "remove_view", View: id})
	}
}

// CandidateKind distinguishes selection candidates.
type CandidateKind int

// Selection candidate kinds.
const (
	// WholeView is an unpartitioned view (a candidate to create, or a
	// pool resident treated as a single evictable unit).
	WholeView CandidateKind = iota
	// Frag is a fragment of a partitioned view.
	Frag
)

// Candidate is one element of ALLCAND: a view or fragment ranked by its
// value Φ during selection.
type Candidate struct {
	Kind   CandidateKind
	ViewID string
	// Attr and Iv identify a fragment candidate (Kind == Frag).
	Attr string
	Iv   interval.Interval
	// Size is the (estimated or actual) storage size.
	Size int64
	// Value is the selection measure (Φ for DeepSea, N/N+ for the
	// Nectar baselines).
	Value float64
	// InPool reports whether the candidate is already materialized.
	InPool bool
}

// Key returns a stable identity for the candidate.
func (c Candidate) Key() string {
	if c.Kind == WholeView {
		return "view:" + c.ViewID
	}
	return fmt.Sprintf("frag:%s:%s:%s", c.ViewID, c.Attr, c.Iv)
}

// SelectGreedy implements Section 7.3: rank ALLCAND by value in
// decreasing order and greedily keep elements while they fit within smax
// (0 = unlimited). The paper's formula reads as a strict prefix
// (n = argmax_j Σ_{i<=j} S(ALLCAND[i]) <= Smax), but taken literally a
// single top-ranked element larger than the pool would block everything
// behind it — fragment values Φ(I) are size-independent (the S(I) terms
// cancel), so this happens routinely under tight pools. We therefore
// skip elements that do not fit and continue (first-fit decreasing), the
// operational reading of the greedy. Ties prefer candidates already in
// the pool (avoiding pointless churn), then lower keys for determinism.
// The returned slices partition cands into kept and rejected.
func SelectGreedy(cands []Candidate, smax int64) (keep, reject []Candidate) {
	// Ties are the common case — cold fragments share Φ = 0 — and Key
	// formats a string, so each candidate's key is made at most once, the
	// first time a tie needs it.
	type rankedCand struct {
		Candidate
		key string
	}
	ranked := make([]rankedCand, len(cands))
	for i, c := range cands {
		ranked[i].Candidate = c
	}
	key := func(r *rankedCand) string {
		if r.key == "" {
			r.key = r.Key()
		}
		return r.key
	}
	sort.Slice(ranked, func(i, j int) bool {
		a, b := &ranked[i], &ranked[j]
		if a.Value != b.Value {
			return a.Value > b.Value
		}
		if a.InPool != b.InPool {
			return a.InPool
		}
		return key(a) < key(b)
	})
	var used int64
	for _, r := range ranked {
		c := r.Candidate
		if smax > 0 && used+c.Size > smax {
			reject = append(reject, c)
			continue
		}
		used += c.Size
		keep = append(keep, c)
	}
	return keep, reject
}
