package core

// Health is a consistent operational snapshot of one DeepSea instance —
// the data behind a serving frontend's /healthz and /statz endpoints.
// It is self-contained (plain counters and id lists, no internal types)
// so callers outside internal/ can consume it directly.
//
// Each group is internally consistent (taken under the owning
// component's lock); groups are collected in sequence, so counters from
// different groups may be offset by queries that complete during the
// snapshot. That is the usual contract for health surfaces.
type Health struct {
	// InFlight is the number of queries currently executing; Queries is
	// the cumulative count started; PlanAcquisitions counts planned
	// attempts — one planning-lock acquisition each. A result-cache hit
	// plans nothing and a fault retry plans again, so on a fault-free run
	// Queries − PlanAcquisitions is the number of cache hits.
	InFlight         int64
	Queries          uint64
	PlanAcquisitions uint64

	// Pool occupancy: bytes stored vs the Smax limit (0 = unlimited) and
	// entry counts.
	PoolBytes     int64
	PoolLimit     int64
	PoolViews     int
	PoolViewFiles int
	PoolFragments int

	// Degradation state: the most recent storage paths quarantined after
	// a failed read (at most 256; quarantined files stay
	// interesting after removal) with QuarantinedTotal counting every
	// path ever quarantined, views currently under materialization
	// backoff, and views blacklisted after repeated materialization
	// failures.
	Quarantined      []string
	QuarantinedTotal uint64
	Backoff          []string
	Blacklisted      []string

	// Result-cache traffic and occupancy; all zero when caching is off.
	// CacheEnabled distinguishes a configured-off cache from an enabled
	// one that happens to be idle.
	CacheEnabled    bool
	CacheHits       int64
	CacheMisses     int64
	CacheInsertions int64
	CacheEvictions  int64
	// CacheInvalidations is always 0: the cache key is the whole
	// validity rule, so nothing invalidates an entry. It stays because
	// the benchmark harness reads it.
	CacheInvalidations    int64
	CacheAdmissionRejects int64
	CacheBytes            int64
	CacheCapacity         int64
	CacheEntries          int

	// Statistics-registry sizes, read from one epoch-published snapshot
	// (views, partitions and fragments are mutually consistent — they
	// describe the same epoch). StatsEpoch is the snapshot's mutation
	// count.
	StatsViews      int
	StatsPartitions int
	StatsFragments  int
	StatsEpoch      uint64

	// The maintenance pool. MaintEnabled reports background mode
	// (workers apply maintenance); in inline mode MaintWorkers is zero
	// and only refresh retries pass through the queue, so the counters
	// stay zero unless a refresh came out still-stale. MaintSaturated is
	// the degraded signal: the queue is at capacity and new candidates
	// are being dropped. The counters obey
	// Enqueued == Completed + Failed + Deduped + Dropped + Depth + InFlight.
	MaintEnabled    bool
	MaintWorkers    int
	MaintQueueDepth int
	MaintQueueCap   int
	MaintInFlight   int
	MaintEnqueued   uint64
	MaintCompleted  uint64
	MaintFailed     uint64
	MaintDeduped    uint64
	MaintDropped    uint64
	MaintSaturated  bool
	// MaintKinds breaks completed tasks down by task type with mean
	// queue-wait and apply latencies (wall-clock seconds).
	MaintKinds []MaintKindHealth

	// Ingest path: batched appends and the incremental refresh of
	// dependent views. IngestStaleViews counts views currently
	// unreadable while their refresh is pending (transient in background
	// mode). IngestRetryBacklog is the degraded signal: views stuck
	// still-stale in inline mode, their retry queued until the next
	// query finishes or append lands.
	IngestAppends        uint64
	IngestAppendedRows   uint64
	IngestTrackedViews   int
	IngestStaleViews     int
	IngestRetryBacklog   int
	IngestRefreshes      uint64
	IngestEmptyRefreshes uint64
	IngestPrimes         uint64
	IngestDrops          uint64
	IngestRefreshSeconds float64

	// FaultsInjected is the cumulative injected-fault count (zero when
	// fault injection is off).
	FaultsInjected uint64

	// Journal health: all zero without a datastore. JournalAppendErrors
	// and JournalSnapshotErrors are the degraded-durability signals a
	// serving frontend should alarm on.
	JournalEnabled        bool
	JournalRecords        uint64
	JournalBytes          int64
	JournalAppendErrors   uint64
	JournalSnapshots      uint64
	JournalSnapshotErrors uint64
	JournalTornRepairs    uint64
	JournalLastSeq        uint64
	JournalSnapshotSeq    uint64

	// Range ownership, for instances serving as one shard of a
	// scatter-gather cluster. RangeOwned false means standalone (the
	// other two fields are zero).
	RangeOwned bool
	OwnedLo    int64
	OwnedHi    int64

	// Recovery outcome of this instance's construction (see
	// core.RecoveryInfo). RecoveryError non-empty means the stored state
	// was unusable and the instance started cold.
	Recovered         bool
	RecoveredSnapshot bool
	RecoveredRecords  int
	RecoverySkipped   int
	RecoveryError     string
}

// MaintKindHealth is one task type's completion and latency summary,
// self-contained for consumers outside internal/.
type MaintKindHealth struct {
	// Kind is the task type ("refresh", "materialize", "split", "merge",
	// "sweep").
	Kind string
	// Completed counts applied tasks of this kind (failed ones
	// included).
	Completed uint64
	// AvgWaitSeconds is the mean enqueue-to-pop latency;
	// AvgRunSeconds the mean apply latency. Both wall-clock.
	AvgWaitSeconds float64
	AvgRunSeconds  float64
}

// Health assembles the snapshot. Safe to call concurrently with query
// processing from any goroutine: every group is read under its owning
// component's own lock (pool mutex, cache mutex, backoff mutex, the
// quarantine-log mutex) or from atomics, and no manager lock is taken.
func (d *DeepSea) Health() Health {
	h := Health{
		InFlight:         d.inflight.Load(),
		Queries:          d.queries.Load(),
		PlanAcquisitions: d.planAcq.Load(),
	}

	oc := d.Pool.Occupancy()
	h.PoolBytes = oc.Bytes
	h.PoolLimit = oc.Limit
	h.PoolViews = oc.Views
	h.PoolViewFiles = oc.ViewFiles
	h.PoolFragments = oc.Fragments

	d.quarMu.Lock()
	h.Quarantined = append([]string(nil), d.quarLog...)
	h.QuarantinedTotal = d.quarTotal
	d.quarMu.Unlock()
	h.Backoff, h.Blacklisted = d.backoff.snapshot()

	cs := d.Cache.Stats()
	h.CacheEnabled = d.Cache != nil
	h.CacheHits = cs.Hits
	h.CacheMisses = cs.Misses
	h.CacheInsertions = cs.Insertions
	h.CacheEvictions = cs.Evictions
	h.CacheAdmissionRejects = cs.AdmissionRejects
	h.CacheBytes = d.Cache.Bytes()
	h.CacheCapacity = d.Cache.Capacity()
	h.CacheEntries = d.Cache.Len()

	sc := d.Stats.Counters()
	h.StatsViews = sc.Views
	h.StatsPartitions = sc.Partitions
	h.StatsFragments = sc.Fragments
	h.StatsEpoch = sc.Epoch

	ms := d.maint.Stats()
	h.MaintEnabled = d.Cfg.background()
	h.MaintWorkers = ms.Workers
	h.MaintQueueDepth = ms.Depth
	h.MaintQueueCap = ms.Capacity
	h.MaintInFlight = ms.InFlight
	h.MaintEnqueued = ms.Enqueued
	h.MaintCompleted = ms.Completed
	h.MaintFailed = ms.Failed
	h.MaintDeduped = ms.Deduped
	h.MaintDropped = ms.Dropped
	h.MaintSaturated = ms.Depth >= ms.Capacity
	for _, ks := range ms.Kinds {
		k := MaintKindHealth{Kind: ks.Kind, Completed: ks.Completed}
		if ks.Completed > 0 {
			k.AvgWaitSeconds = ks.WaitSeconds / float64(ks.Completed)
			k.AvgRunSeconds = ks.RunSeconds / float64(ks.Completed)
		}
		h.MaintKinds = append(h.MaintKinds, k)
	}

	is := d.IngestStats()
	h.IngestAppends = is.Appends
	h.IngestAppendedRows = is.AppendedRows
	h.IngestTrackedViews = is.TrackedViews
	h.IngestStaleViews = is.StaleViews
	h.IngestRetryBacklog = is.RetryBacklog
	h.IngestRefreshes = is.Refreshes
	h.IngestEmptyRefreshes = is.EmptyRefreshes
	h.IngestPrimes = is.Primes
	h.IngestDrops = is.Drops
	h.IngestRefreshSeconds = is.RefreshSeconds

	if d.faults != nil {
		h.FaultsInjected = d.faults.TotalInjected()
	}

	if d.store != nil {
		ss := d.store.Stats()
		h.JournalEnabled = true
		h.JournalRecords = ss.Records
		h.JournalBytes = ss.Bytes
		h.JournalAppendErrors = ss.AppendErrors
		h.JournalSnapshots = ss.Snapshots
		h.JournalSnapshotErrors = ss.SnapshotErrors
		h.JournalTornRepairs = ss.TornTailRepairs
		h.JournalLastSeq = ss.LastSeq
		h.JournalSnapshotSeq = ss.SnapshotSeq
	}
	if or := d.ownedRange.Load(); or != nil {
		h.RangeOwned = true
		h.OwnedLo = or.Lo
		h.OwnedHi = or.Hi
	}

	h.Recovered = d.recovered.Ran
	h.RecoveredSnapshot = d.recovered.FromSnapshot
	h.RecoveredRecords = d.recovered.Replayed
	h.RecoverySkipped = d.recovered.Skipped
	h.RecoveryError = d.recovered.Err
	return h
}

// InFlight returns the number of queries currently executing.
func (d *DeepSea) InFlight() int64 { return d.inflight.Load() }

// SetOwnedRange publishes [lo, hi] as the partition-key range this
// instance owns as a shard, unless it already owns a range: ownership
// is set once. It returns the range owned after the call, and whether
// that range is [lo, hi]. The serving layer rejects requests outside the
// owned range.
func (d *DeepSea) SetOwnedRange(lo, hi int64) (OwnedRange, bool) {
	want := OwnedRange{Lo: lo, Hi: hi}
	d.ownedRange.CompareAndSwap(nil, &want)
	got := *d.ownedRange.Load()
	return got, got == want
}

// OwnedRange returns the published shard range, or ok=false when the
// instance is standalone.
func (d *DeepSea) OwnedRange() (r OwnedRange, ok bool) {
	p := d.ownedRange.Load()
	if p == nil {
		return OwnedRange{}, false
	}
	return *p, true
}
