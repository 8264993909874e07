package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"deepsea/internal/cache"
	"deepsea/internal/datastore"
	"deepsea/internal/engine"
	"deepsea/internal/faults"
	"deepsea/internal/interval"
	"deepsea/internal/maintain"
	"deepsea/internal/matching"
	"deepsea/internal/pool"
	"deepsea/internal/query"
	"deepsea/internal/relation"
	"deepsea/internal/stats"
)

// DeepSea is one instance of the system: an engine plus the pool,
// statistics, signature index and configuration that drive Algorithm 1.
//
// ProcessQuery may be called from multiple goroutines. Queries answered
// from the result cache take no manager lock at all. The manager steps
// of Algorithm 1 — planning (steps 1–7) and maintenance (steps 9+:
// materialize, evict, split, merge, refresh) — run one at a time under
// mu, the one manager lock. Step 8 — the row execution itself, where the
// time goes — runs outside it, so concurrent queries overlap on the data
// path. Lock order: mu before pinMu before the leaf locks. See
// DESIGN.md, "Concurrency model".
type DeepSea struct {
	Cfg   Config
	Eng   *engine.Engine
	Pool  *pool.Pool
	Stats *stats.Registry
	Tree  *matching.FilterTree

	// Cache is the fingerprint-keyed result cache; nil unless
	// Config.CacheBytes is positive.
	Cache *cache.ResultCache

	// OnPlanned, when set, observes the end of the planning section: it
	// is called with the query's sorted maintenance views right after mu
	// is released, before execution. The caller holds no manager lock at
	// that point, so the hook may block without stalling other queries'
	// planning. Test and benchmark observability only — set it before
	// any concurrent use and never call back into the manager from it.
	OnPlanned func(viewIDs []string)

	// OnMaintain, when set, observes the maintenance section of a
	// finishing inline query or a worker's drain cycle: it is called with
	// the section's sorted views right after mu is acquired (enter=true)
	// and right before it is released (enter=false). The hook runs
	// holding mu — planning and every other section stall for as long as
	// it blocks. Test and benchmark observability only — set it before
	// any concurrent use and never call back into the manager from it.
	OnMaintain func(viewIDs []string, enter bool)

	rewriter *matching.Rewriter

	// wholeCaptures makes every row capture ask for the whole node, as
	// if no view were ever admitted partially. It is the reference the
	// differential test holds ranged captures to; nothing else sets it.
	wholeCaptures bool

	// faults is the configured injector (nil when fault-free); the same
	// instance is attached to the engine and its file system.
	faults *faults.Injector

	// backoff tracks per-view materialization failures: failed
	// materializations never fail queries, they count toward the view's
	// blacklist instead.
	backoff *matBackoff

	// mu is the manager lock. Pool content (fragment lists, view files),
	// statistics records, the filter tree, the ingest metas and mleCache
	// change only under it. Its sections exclude one another: a query's
	// planning, Snapshot, a finishing inline query's task list, each task
	// of applyEach, a worker's drain cycle, quarantine, and each drop of
	// the recovery reconcile. It is never held across execution and is
	// not reentrant — no section calls into another.
	mu sync.Mutex

	// pinned counts, per storage path, the in-flight executions whose
	// plan reads the path. Eviction, merging and horizontal-split drops
	// skip pinned paths so a concurrent query never loses a file it was
	// planned against. Guarded by pinMu, which nests inside mu but is
	// also taken alone: pins are dropped with no manager lock held.
	pinMu  sync.Mutex
	pinned map[string]int

	// mleCache memoizes MLE fits within one selection pass. Guarded by
	// mu.
	mleCache     map[string]stats.NormalModel
	mleCacheTime float64

	// planAcq counts planning sections entered by queries (one per
	// planned attempt; a cache hit takes none); inflight and queries
	// count in-flight and started queries.
	planAcq  atomic.Uint64
	inflight atomic.Int64
	queries  atomic.Uint64

	// quarMu guards quarLog, the quarLogCap most recently quarantined
	// storage paths, and quarTotal, the count of paths ever quarantined
	// (leaf lock: never held while acquiring another).
	quarMu    sync.Mutex
	quarLog   []string
	quarTotal uint64

	// store is the persistence boundary (nil without a datastore): every
	// pool/engine/stats mutation journals through it, and Snapshot
	// checkpoints into it. recovered reports what recovery did when the
	// instance was built.
	store     datastore.Store
	recovered RecoveryInfo

	// maint is the maintenance pool: Config.MaintWorkers workers in
	// background mode; none in inline mode, where it only holds refresh
	// retries for the next caller (see maintain.go).
	maint *maintain.Pool

	// ownedRange is the partition-key range this instance owns when it
	// serves as one shard of a scatter-gather cluster (nil when
	// standalone). Set at most once; published atomically so Health and
	// the serving layer read it without a lock.
	ownedRange atomic.Pointer[OwnedRange]

	// ingest is the append-path registry: which views depend on which
	// base tables, each view's refresh consistency point, and the
	// accumulated append log for snapshots (see ingest.go).
	ingest *ingestState

	// recoveredAppends buffers appends found during recovery (snapshot
	// payload + append_rows journal tail) until the host re-adds the
	// base catalog and calls ApplyRecoveredAppends; the order slice
	// keeps replay deterministic.
	recoveredAppends     map[string]*relation.Table
	recoveredAppendOrder []string
}

// OwnedRange is the contiguous partition-key range a sharded instance
// is responsible for.
type OwnedRange struct {
	Lo, Hi int64
}

// New assembles a DeepSea instance (or a baseline, depending on cfg).
// With a datastore configured it first recovers the previous life's
// state (snapshot load + journal tail replay), then attaches the
// journal hooks so new mutations are durable. A fatal recovery failure
// (corrupt snapshot, a recovered pool that fails its consistency walk)
// never fails construction: the instance starts cold, the failure is
// reported via Recovery()/Health, and a cold snapshot overwrites the
// stored state so the bad history cannot replay again.
func New(cfg Config) *DeepSea {
	d := build(cfg)
	if cfg.Datastore != nil {
		d.store = cfg.Datastore
		if err := d.recoverFromStore(); err != nil {
			info := d.recovered
			info.Err = err.Error()
			d.CloseMaintenance()
			d = build(cfg)
			d.store = cfg.Datastore
			d.recovered = info
			_ = d.Snapshot()
		}
		d.Pool.SetJournal(d.appendRecord)
		d.Eng.SetJournal(d.appendRecord)
		d.Stats.SetJournal(d.appendRecord)
		if d.faults != nil {
			d.store.SetFaults(d.faults)
		}
	}
	return d
}

// build assembles the in-memory components; recovery and journaling are
// layered on by New.
func build(cfg Config) *DeepSea {
	cm := engine.DefaultCostModel()
	if cfg.CostModel != nil {
		cm = *cfg.CostModel
	}
	eng := engine.New(cm)
	if cfg.Parallelism > 0 {
		eng.Parallelism = cfg.Parallelism
	}
	var inj *faults.Injector
	if cfg.Faults != nil {
		inj = faults.New(*cfg.Faults)
		eng.SetFaults(inj)
	}
	p := pool.New(cfg.Smax)
	st := stats.NewRegistry(stats.Decay{TMax: cfg.DecayTMax})
	tree := matching.NewFilterTree()
	var rc *cache.ResultCache
	if cfg.CacheBytes > 0 {
		rc = cache.New(cfg.CacheBytes, int64(cacheMaxEntryFraction*float64(cfg.CacheBytes)))
	}
	d := &DeepSea{
		Cache:   rc,
		Cfg:     cfg,
		Eng:     eng,
		Pool:    p,
		Stats:   st,
		Tree:    tree,
		pinned:  make(map[string]int),
		faults:  inj,
		backoff: newMatBackoff(),
		rewriter: &matching.Rewriter{
			Eng:          eng,
			Pool:         p,
			Stats:        st,
			Tree:         tree,
			PhysicalOnly: cfg.PhysicalMatch,
		},
		ingest:           newIngestState(),
		recoveredAppends: make(map[string]*relation.Table),
	}
	d.rewriter.Stale = d.staleView
	d.maint = maintain.NewPool(cfg.MaintWorkers, cfg.maintQueue(), maintBatchMax, d.applyMaintBatch)
	return d
}

// AddBaseTable registers a base table with the engine.
func (d *DeepSea) AddBaseTable(t *relation.Table) { d.Eng.AddBaseTable(t) }

// Now returns the simulated clock.
func (d *DeepSea) Now() float64 { return d.Eng.Now() }

// cacheKey builds the result-cache key for a user query: the canonical
// plan fingerprint qualified by the base-catalog version and by the row
// count of every base table the plan reads. A catalog change orphans
// every earlier entry; an append moves the counts (they are monotone),
// so a result cached before the append is unreachable by any lookup
// planned after it — the cache needs no explicit invalidation on
// ingest.
func (d *DeepSea) cacheKey(q query.Node) string {
	var b strings.Builder
	b.WriteString(query.Fingerprint(q))
	b.WriteByte('@')
	b.WriteString(strconv.FormatUint(d.Eng.BaseVersion(), 10))
	tables := append([]string(nil), query.BaseTables(q)...)
	sort.Strings(tables)
	counts := d.Eng.BaseCounts(tables)
	for _, t := range tables {
		b.WriteByte('|')
		b.WriteString(t)
		b.WriteByte('=')
		b.WriteString(strconv.FormatInt(counts[t], 10))
	}
	return b.String()
}

// maintenanceViews computes the scope of the query's maintenance: every
// view its plan may read or mutate — ViewScans of the executed plan
// (merge sources), view candidates (step 9 measures their sizes;
// selected ones materialize), fragment candidates (refinement targets),
// eviction victims, and the merge target. Returned sorted by id and
// deduplicated; it is what the query's Pool.GCViews walks and what
// OnPlanned / OnMaintain report.
func maintenanceViews(qbest query.Node, vcands []viewCandidate, selFrags []fragCandidate, evict []pool.Candidate, bestRW *matching.Rewriting) []string {
	seen := make(map[string]bool)
	var ids []string
	add := func(id string) {
		if id == "" || seen[id] {
			return
		}
		seen[id] = true
		ids = append(ids, id)
	}
	query.Walk(qbest, func(n query.Node) {
		if vs, ok := n.(*query.ViewScan); ok {
			add(vs.ViewID)
		}
	})
	for _, vc := range vcands {
		add(vc.id)
	}
	for _, fc := range selFrags {
		add(fc.viewID)
	}
	for _, c := range evict {
		add(c.ViewID)
	}
	if bestRW != nil {
		add(bestRW.ViewID)
	}
	sort.Strings(ids)
	return ids
}

// Faults exposes the configured fault injector (nil when fault-free) —
// chaos-test and bench observability.
func (d *DeepSea) Faults() *faults.Injector { return d.faults }

// ProcessQuery implements Algorithm 1 for one query and returns a report
// of how it was answered and what the pool did in response.
func (d *DeepSea) ProcessQuery(q query.Node) (QueryReport, error) {
	return d.ProcessQueryContext(context.Background(), q)
}

// ProcessQueryContext is ProcessQuery with cancellation and graceful
// degradation. A cancelled or expired ctx makes the call return
// promptly with ctx.Err(), with no manager lock held, all pins
// dropped and the pool consistent. Recoverable faults degrade instead
// of failing the query: a failed fragment or view-file read quarantines
// that file (pool removal) and the query is re-planned against the
// shrunken pool — falling back to base tables when nothing usable
// remains; a transient worker fault re-executes the query. Both are
// bounded by Config.FaultRetries. Failed materializations never
// fail the query (see processOnce).
func (d *DeepSea) ProcessQueryContext(ctx context.Context, q query.Node) (QueryReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return QueryReport{}, err
	}
	d.queries.Add(1)
	d.inflight.Add(1)
	defer d.inflight.Add(-1)

	// Result-cache lookup — before planning and off every manager lock.
	// The key is the whole validity check (see cacheKey): a rewriting
	// answers exactly what the base plan answers, so a hit is right
	// whatever the pool has done since the entry was stored.
	var key string
	if d.Cache != nil {
		key = d.cacheKey(q)
		if tbl, ok := d.Cache.Get(key); ok {
			return QueryReport{Result: tbl, CacheHit: true}, nil
		}
	}

	return d.processWithRetries(ctx, q, key)
}

// processWithRetries is the retry loop of ProcessQueryContext.
//
// Every attempt plans around the paths this query has quarantined so
// far, not just around what is missing from the live pool: fragment
// paths are a pure function of (view, attribute, interval), so a
// concurrent query's maintenance may re-create a quarantined path
// between attempts, and a query that re-planned onto it would fault on
// it again until its retries ran out. With the exclusion each
// storage-read retry has strictly fewer files to fault on.
func (d *DeepSea) processWithRetries(ctx context.Context, q query.Node, key string) (QueryReport, error) {
	maxRetries := d.Cfg.faultRetries()
	var quarantined []string
	for attempt := 0; ; attempt++ {
		var exclude map[string]bool
		if len(quarantined) > 0 {
			exclude = make(map[string]bool, len(quarantined))
			for _, p := range quarantined {
				exclude[p] = true
			}
		}
		rep, quar, err := d.processOnce(ctx, q, key, exclude)
		quarantined = append(quarantined, quar...)
		if err == nil {
			rep.Quarantined = quarantined
			rep.Retries = attempt
			return rep, nil
		}
		// Cancellation always wins: do not spend retries on a dead query.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return QueryReport{}, ctxErr
		}
		f, ok := faults.AsFault(err)
		if !ok || attempt >= maxRetries {
			return QueryReport{}, err
		}
		switch {
		case f.Site == faults.StorageRead:
			// The unreadable file was quarantined above (or is pinned by
			// a concurrent query and left in place); re-plan — without the
			// file the new plan answers the lost range from base tables.
		case f.Site == faults.Worker && !f.Permanent:
			// Transient worker fault (lost container, timeout): the plan
			// is fine, re-execute it.
		default:
			return QueryReport{}, err
		}
	}
}

// processOnce runs one attempt of Algorithm 1. It returns the paths it
// quarantined while handling an execution failure (the caller
// accumulates them across retries and passes them back as exclude).
func (d *DeepSea) processOnce(ctx context.Context, q query.Node, key string, exclude map[string]bool) (QueryReport, []string, error) {
	if !d.Cfg.Materialize {
		// Vanilla engine: the optimizer pushes selections down to the
		// scans (DeepSea deliberately does not, Section 10.2); execute
		// and account time, nothing else.
		res, err := d.Eng.RunContext(ctx, query.PushDownRanges(q), nil)
		if err != nil {
			return QueryReport{}, nil, err
		}
		d.Eng.Advance(res.Cost.Seconds)
		d.Cache.Put(key, res.Table)
		return QueryReport{
			Result:       res.Table,
			ExecCost:     res.Cost,
			TotalSeconds: res.Cost.Seconds,
		}, nil, nil
	}

	// Planning section: Algorithm 1 steps 1-7 under mu, so no other
	// planner and no maintenance runs while this query plans — the pool
	// it matches against is stable, and its statistics writes (use
	// records, candidate refinement) cannot race a maintainer. Pinning
	// before release guarantees no concurrent query evicts a path
	// between planning and execution.
	d.planAcq.Add(1)
	d.mu.Lock()
	pq, err := d.planLocked(q, key, exclude)
	d.mu.Unlock()
	if err != nil {
		return QueryReport{}, nil, err
	}
	if d.OnPlanned != nil {
		d.OnPlanned(pq.maintViews)
	}
	return d.finishPlanned(ctx, pq)
}

// plannedQuery carries one query's planning output (Algorithm 1 steps
// 1–7) from the planning section to execution and maintenance. Pins on
// every materialized path the plan reads are already taken; finishPlanned
// drops them on every path.
type plannedQuery struct {
	key      string
	qbest    query.Node
	bestRW   *matching.Rewriting
	vcands   []viewCandidate
	selViews []selectedView
	selFrags []fragCandidate
	evict    []pool.Candidate
	capture  map[query.Node]engine.Capture
	// maintViews is maintenanceViews of the plan: the views this query's
	// maintenance may touch, sorted.
	maintViews []string
	pins       []string
	// baseCounts is the per-table row count of every base table the
	// query reads, captured at planning time. Materialization uses it as
	// the proposed view's ingest consistency point: if the counts still
	// match when the captured rows register, no append raced the
	// execution (counts are monotone), so the content is exact at these
	// counts.
	baseCounts map[string]int64
}

// planLocked runs Algorithm 1 steps 1–7 for one query and pins the
// materialized paths its chosen plan reads. The caller holds mu. exclude
// lists stored paths the plan must not read.
func (d *DeepSea) planLocked(q query.Node, key string, exclude map[string]bool) (*plannedQuery, error) {
	// Step 1-2: compute rewritings and update statistics (Section 8.4).
	rewritings, origCost, err := d.rewriter.ComputeRewritingsExcluding(q, exclude)
	if err != nil {
		return nil, err
	}
	d.updateUseStats(rewritings, origCost)

	// Step 3: SELECTREWRITING — cheapest executable plan.
	qbest := q
	var bestRW *matching.Rewriting
	bestSeconds := origCost.Seconds
	for i := range rewritings {
		rw := &rewritings[i]
		if rw.UsesPool && rw.EstCost.Seconds < bestSeconds {
			bestSeconds = rw.EstCost.Seconds
			qbest = rw.Plan
			bestRW = rw
		}
	}

	// Steps 4-5: candidate generation (Definitions 6 and 7) and
	// registration (ADDCANDIDATES).
	vcands := d.viewCandidates(q, qbest)
	fcands := d.fragCandidates(q, bestRW)

	// Step 6: VIEWSELECTION — filter (7.2) and greedy selection (7.3).
	selViews, selFrags, evict := d.selectConfiguration(vcands, fcands)

	// Step 7: INSTRUMENTQUERY — capture candidate intermediates. Only
	// what this query will materialize needs its rows, and of a partially
	// admitted view only the rows inside the admitted pieces; every other
	// candidate needs its measured size (step 9), which leaves the engine
	// free to never build it.
	capture := make(map[query.Node]engine.Capture)
	for _, vc := range vcands {
		capture[vc.node] = engine.Capture{Level: engine.CaptureSize}
	}
	for _, sv := range selViews {
		c := engine.Capture{Level: engine.CaptureRows}
		// One node selected on two attributes in one round is captured
		// whole: a request carries one range.
		if capture[sv.vc.node].Level != engine.CaptureRows {
			c.Col, c.Ivs = d.captureRange(sv)
		}
		capture[sv.vc.node] = c
	}
	for _, fc := range selFrags {
		if fc.fromGap {
			capture[fc.gapNode] = engine.Capture{Level: engine.CaptureRows}
		}
	}

	// The maintenance scope: every view the plan reads or the maintenance
	// below may touch.
	mergeRW := bestRW
	if !d.Cfg.MergeFragments {
		mergeRW = nil
	}
	maintViews := maintenanceViews(qbest, vcands, selFrags, evict, mergeRW)

	// Pin every materialized path the plan reads; the caller then
	// releases mu for the long step: concurrent queries may plan and
	// execute while this one runs, but cannot evict what it reads.
	pins := planPins(qbest)
	d.pin(pins)
	tables := append([]string(nil), query.BaseTables(q)...)
	sort.Strings(tables)
	return &plannedQuery{
		key:        key,
		qbest:      qbest,
		bestRW:     bestRW,
		vcands:     vcands,
		selViews:   selViews,
		selFrags:   selFrags,
		evict:      evict,
		capture:    capture,
		maintViews: maintViews,
		pins:       pins,
		baseCounts: d.Eng.BaseCounts(tables),
	}, nil
}

// captureRange returns the range of sv's row capture: the admitted
// pieces of a partially admitted view, or none — every row — otherwise.
func (d *DeepSea) captureRange(sv selectedView) (col string, ivs []interval.Interval) {
	within, partial := sv.admitted(&d.Cfg)
	if !partial || d.wholeCaptures {
		return "", nil
	}
	return sv.attr, within
}

// finishPlanned runs Algorithm 1 steps 8+ for a planned query: execution
// outside every manager lock, then maintenance — the query's decisions
// as a task list (maintenanceTasks), handed to the worker pool in
// background mode or applied here under mu in inline mode (see
// maintain.go). It returns the paths it quarantined
// while handling an execution failure.
func (d *DeepSea) finishPlanned(ctx context.Context, pq *plannedQuery) (QueryReport, []string, error) {
	// Step 8: EXECUTEQUERY — outside every manager lock.
	res, runErr := d.Eng.RunContext(ctx, pq.qbest, pq.capture)
	if runErr != nil {
		// Failed executions skip maintenance entirely: drop the pins,
		// quarantine the unreadable file if the failure was an injected
		// storage-read fault, and let the caller decide whether to
		// re-plan. mu is not held on this path.
		d.unpin(pq.pins)
		quarantined := d.quarantineFromError(pq.qbest, runErr)
		d.advancePending()
		return QueryReport{}, quarantined, runErr
	}

	report := QueryReport{
		Result:   res.Table,
		ExecCost: res.Cost,
	}
	if pq.bestRW != nil {
		report.Rewritten = true
		report.UsedView = pq.bestRW.ViewID
		report.FragmentsRead = len(pq.bestRW.CoverFrags)
		report.RemainderGaps = len(pq.bestRW.Gaps)
	}
	tasks := d.maintenanceTasks(pq, &res)

	// Background mode: the query is done — steps 9+ go to the worker
	// pool as Φ-ranked per-unit tasks and the query returns without
	// taking mu again. It pays execution cost only; the deferred
	// mutations re-validate against the live pool when a drain cycle
	// applies them.
	if n, ok := d.enqueueTasks(tasks, pq.pins); ok {
		report.TotalSeconds = res.Cost.Seconds
		report.DeferredMaintenance = true
		report.MaintTasksEnqueued = n
		d.Eng.Advance(res.Cost.Seconds)
		d.Cache.Put(pq.key, res.Table)
		return report, nil, nil
	}

	// Inline mode: steps 9+ under mu. The selection was computed against
	// a possibly older pool, so every task re-validates against the live
	// pool (pins, cover checks) exactly as a stale selection requires.
	d.mu.Lock()
	if d.OnMaintain != nil {
		d.OnMaintain(pq.maintViews, true)
	}
	d.unpin(pq.pins)
	var out maintOutcome
	err := d.applyQueryTasks(pq, tasks, &out)
	if err == nil {
		report.MaterializedViews = out.matViews
		report.MaterializedFrags = out.matFrags
		report.MergedFrags = out.merged
		report.Evicted = out.evicted
		report.MatFailed = out.matFailed
		report.MatCost = out.cost
		report.TotalSeconds = res.Cost.Seconds + out.cost.Seconds
		d.Eng.Advance(report.TotalSeconds)
		d.Cache.Put(pq.key, res.Table)
	}
	if d.OnMaintain != nil {
		d.OnMaintain(pq.maintViews, false)
	}
	d.mu.Unlock()
	d.advancePending()
	if err != nil {
		return QueryReport{}, nil, err
	}
	return report, nil, nil
}

// advancePending is a leaving query's applyPending: its pins are
// dropped and mu released, so a stale view whose drop those pins blocked
// — or one this query registered stale because an append raced its
// materialization — can settle now instead of sitting unreadable until
// some later append happens by. The work is charged to the clock on its
// own.
func (d *DeepSea) advancePending() {
	var out maintOutcome
	d.applyPending(&out)
	if out.cost.Seconds > 0 {
		d.Eng.Advance(out.cost.Seconds)
	}
}

// quarLogCap bounds the quarantine log Health reports: a long-lived
// server keeps the most recent paths, not every path it ever lost.
const quarLogCap = 256

// quarantineFromError quarantines the stored file named by an injected
// storage-read fault in runErr: the file is removed from the engine and
// the pool, so the retry's planning cannot choose it again. Returns the
// quarantined paths (nil when runErr is not a read fault, the path is
// not in the executed plan, or the file is pinned by a concurrent query
// — which keeps it alive until that query drains).
func (d *DeepSea) quarantineFromError(plan query.Node, runErr error) []string {
	f, ok := faults.AsFault(runErr)
	if !ok || f.Site != faults.StorageRead || f.Key == "" {
		return nil
	}
	// Resolve the owning view from the failing attempt's own plan — the
	// fault's key is a path the plan read, so one of its ViewScans names
	// it.
	viewID := ""
	query.Walk(plan, func(n query.Node) {
		vs, ok := n.(*query.ViewScan)
		if !ok || viewID != "" {
			return
		}
		if vs.ViewPath == f.Key {
			viewID = vs.ViewID
			return
		}
		for _, p := range vs.FragIDs {
			if p == f.Key {
				viewID = vs.ViewID
				return
			}
		}
	})
	if viewID == "" {
		return nil
	}
	if d.quarantine(viewID, f.Key) {
		d.quarMu.Lock()
		d.quarTotal++
		if len(d.quarLog) == quarLogCap {
			d.quarLog = append(d.quarLog[:0], d.quarLog[1:]...)
		}
		d.quarLog = append(d.quarLog, f.Key)
		d.quarMu.Unlock()
		return []string{f.Key}
	}
	return nil
}

// quarantine removes one stored file of a view from the engine and the
// pool, under mu, through evict: files still pinned by a concurrent
// execution are left alone, since that query planned against them and
// dropping them now would turn its read into a missing-file logic error.
// Reports whether the file was removed. Nothing restores it: a later
// query that needs the range again re-derives it, like any other
// materialization.
func (d *DeepSea) quarantine(viewID, path string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	item, ok := d.poolItemAt(viewID, path)
	if !ok || !d.evict(item) {
		return false
	}
	d.Pool.GCViews(viewID)
	return true
}

// poolItemAt finds the pool item of a view stored at path: the whole
// view file, or one fragment. The caller holds mu.
func (d *DeepSea) poolItemAt(viewID, path string) (pool.Candidate, bool) {
	pv := d.Pool.View(viewID)
	if pv == nil {
		return pool.Candidate{}, false
	}
	if pv.Path == path {
		return pool.Candidate{Kind: pool.WholeView, ViewID: viewID}, true
	}
	for attr, part := range pv.Parts {
		for _, fr := range part.Fragments() {
			if fr.Path == path {
				return pool.Candidate{Kind: pool.Frag, ViewID: viewID, Attr: attr, Iv: fr.Iv}, true
			}
		}
	}
	return pool.Candidate{}, false
}

// evict removes one pool item and its storage. It reports whether the
// item was actually removed: items missing from the pool or pinned by a
// concurrent execution are left alone. The caller holds mu.
func (d *DeepSea) evict(item pool.Candidate) bool {
	pv := d.Pool.View(item.ViewID)
	if pv == nil {
		return false
	}
	switch item.Kind {
	case pool.WholeView:
		if pv.Path == "" || d.isPinned(pv.Path) {
			return false
		}
		d.Eng.DeleteMaterialized(pv.Path)
		d.Pool.DropViewFile(item.ViewID)
		return true
	case pool.Frag:
		part := pv.Parts[item.Attr]
		if part == nil {
			return false
		}
		f, ok := part.Lookup(item.Iv)
		if !ok || d.isPinned(f.Path) {
			return false
		}
		d.Eng.DeleteMaterialized(f.Path)
		d.Pool.RemoveFragment(item.ViewID, item.Attr, item.Iv)
		return true
	}
	return false
}

// planPins collects the materialized paths a plan reads: every
// ViewScan's fragment files, or its whole-view file when unpartitioned.
// Walk descends into remainder subplans, so nested ViewScans are
// covered.
func planPins(plan query.Node) []string {
	var paths []string
	query.Walk(plan, func(n query.Node) {
		vs, ok := n.(*query.ViewScan)
		if !ok {
			return
		}
		if len(vs.FragIDs) > 0 {
			paths = append(paths, vs.FragIDs...)
		} else if vs.ViewPath != "" {
			paths = append(paths, vs.ViewPath)
		}
	})
	return paths
}

// pin increments the in-flight read count of each path. Called only
// from the planning section (under mu).
func (d *DeepSea) pin(paths []string) {
	d.pinMu.Lock()
	for _, p := range paths {
		d.pinned[p]++
	}
	d.pinMu.Unlock()
}

// unpin reverses pin.
func (d *DeepSea) unpin(paths []string) {
	d.pinMu.Lock()
	for _, p := range paths {
		if d.pinned[p] <= 1 {
			delete(d.pinned, p)
		} else {
			d.pinned[p]--
		}
	}
	d.pinMu.Unlock()
}

// isPinned reports whether a concurrent execution still reads path.
// Mutators call it before dropping a file; they hold mu, so a pin
// observed as zero cannot reappear for a path the mutator is about to
// drop: new pins are taken only during planning, which mu excludes while
// the mutator runs.
func (d *DeepSea) isPinned(path string) bool {
	d.pinMu.Lock()
	p := d.pinned[path] > 0
	d.pinMu.Unlock()
	return p
}

// shortID returns a compact stable hash of a view id for paths and logs.
func shortID(id string) string {
	h := fnv.New32a()
	h.Write([]byte(id))
	return fmt.Sprintf("v%08x", h.Sum32())
}

func (d *DeepSea) viewPath(id string) string {
	return "views/" + shortID(id) + "/full"
}

func (d *DeepSea) fragPath(id, attr string, iv interval.Interval) string {
	return fmt.Sprintf("views/%s/%s/%s", shortID(id), attr, iv)
}
