package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"deepsea/internal/datastore"
	"deepsea/internal/engine"
	"deepsea/internal/maintain"
	"deepsea/internal/partition"
	"deepsea/internal/query"
	"deepsea/internal/relation"
)

// This file is the ingest path: batched base-table appends that leave
// dependent materialized views stale and bring them fresh again by
// incremental delta propagation (internal/engine's DeltaApply) instead
// of rematerialization. A refresh is a maintenance task like any other
// (refreshTask): Append builds one per dependent view and the dataflow
// of maintain.go applies them — the Append itself in inline mode, the
// workers in background mode — through applyRefreshLocked either way.
// A refresh that cannot finish re-enqueues itself, whichever mode it
// runs in.
//
// A view has one consistency point, its marks: the per-table row counts
// its stored content is exact at. It is stale exactly when it has no
// marks or they differ from its base tables' current counts; nothing
// else records staleness, so an append journals only its rows.
//
// The invariants the path maintains:
//
//   - A query reads one state, its snapshot's: a tracked view serves it
//     only when the view's marks equal the snapshot's base counts (other
//     views get virtual rewritings, which still accumulate statistics),
//     and result-cache keys embed per-table base row counts, so a
//     pre-append cached result is unreachable by any post-append lookup.
//   - A refreshed view is byte-identical to rematerializing it from the
//     grown base tables: refresh drops the view whenever delta
//     propagation cannot guarantee that (join build-side growth,
//     orientation flips, a plan recovered without its node identity).
//   - Appends are durable: the appended rows journal as append_rows
//     records and ride along in snapshots, and every refresh journals
//     its new consistency point (ingest_marks) so a warm restart keeps
//     exactly the views whose stored content matches the recovered base
//     counts.
//
// Lock discipline: ingestMu (d.ingest.mu) is a leaf lock — it guards
// the registry maps and every meta's marks, and nothing acquires the
// manager lock while holding it (the engine's base-count reads nest
// inside it). Everything about a meta mutates only under the manager
// lock too, which serializes refresh, registration and drop; the marks
// change under both, so a reader holding either sees them whole.

// ingestMeta is one registered view's refresh state.
type ingestMeta struct {
	// plan is the view's defining plan over base tables; nil after a
	// warm restart (plans are not journaled), which makes the view
	// unrefreshable — the first refresh drops it instead.
	plan query.Node
	// tables lists the base tables the plan reads, sorted.
	tables []string
	// marks is the consistency point: per-table row counts at which the
	// stored content is exact. nil means unknown (a recovered record that
	// carried none) — the refresh drops the view.
	marks map[string]int64
	// rp is the primed refresh state (per-node sizes, retained aggregate
	// states); nil until the first refresh primes it lazily.
	rp *engine.RefreshPlan
}

// staleAt reports whether the view's content lags base tables at
// counts: it has no marks, or they differ on a table it reads.
func (m *ingestMeta) staleAt(counts map[string]int64) bool {
	return m.marks == nil || !countsEqual(m.marks, counts, m.tables)
}

// staleNow is staleAt the base tables' current counts. Caller holds
// ingestMu.
func (d *DeepSea) staleNow(m *ingestMeta) bool {
	return m.staleAt(d.Eng.BaseCounts(m.tables))
}

// ingestState is the instance-wide ingest registry.
type ingestState struct {
	// appendMu serializes one append's base-table apply and its
	// append_rows journal record as a single atomic step: concurrent
	// Appends to the same table would otherwise journal in a different
	// order than they applied in memory, and a warm restart — which
	// replays in journal order — would rebuild the table with a
	// different row order than the live instance, breaking the
	// byte-identical-to-remat invariant of surviving views. Snapshot
	// holds it too, so a snapshot's appended rows are exactly the
	// journaled ones. Acquired before the manager lock, mu and the
	// engine/datastore locks; nothing acquires it while holding any
	// other lock.
	appendMu sync.Mutex

	mu    sync.Mutex
	views map[string]*ingestMeta
	// loaded is each appended base table's row count before its first
	// append (live or recovered): the rows the host loads itself. The
	// base table's rows past it are the snapshot payload that lets a
	// warm restart rebuild the grown table from the re-added original.
	// Load-time inserts are refused once a System has started, so the
	// count never moves after it is set.
	loaded map[string]int64

	appends        uint64
	appendRows     uint64
	refreshes      uint64
	emptyRefreshes uint64
	primes         uint64
	drops          uint64
	refreshCost    engine.Cost
}

func newIngestState() *ingestState {
	return &ingestState{
		views:  make(map[string]*ingestMeta),
		loaded: make(map[string]int64),
	}
}

// IngestStats is the ingest surface of the health endpoints.
type IngestStats struct {
	// Appends counts Append calls that landed rows; AppendedRows the
	// rows they carried.
	Appends      uint64 `json:"appends"`
	AppendedRows uint64 `json:"appended_rows"`
	// TrackedViews is the number of views with refresh metadata;
	// StaleViews how many of them currently lag their base tables.
	TrackedViews int `json:"tracked_views"`
	StaleViews   int `json:"stale_views"`
	// RetryBacklog is the number of views stuck still-stale in inline
	// mode: their refresh retries wait in the worker-less maintenance
	// queue, one per view, and they stay unreadable until the next
	// finishing query or append applies them, so a persistently nonzero
	// value is an operator signal. Zero in background mode, where
	// workers retry at once.
	RetryBacklog int `json:"retry_backlog"`
	// Refreshes counts applied refreshes (incremental, including
	// empty-delta fast paths, counted separately in EmptyRefreshes);
	// Primes counts lazy refresh-state builds (each linear in the base,
	// paid once per view per life); Drops counts views dropped because
	// the delta could not be applied incrementally.
	Refreshes      uint64 `json:"refreshes"`
	EmptyRefreshes uint64 `json:"empty_refreshes"`
	Primes         uint64 `json:"primes"`
	Drops          uint64 `json:"drops"`
	// RefreshSeconds/ReadBytes/WriteBytes accumulate the simulated cost
	// of all refresh work (priming included) — the numerator of the
	// sublinearity check (TestSteadyStateRefreshSublinearInBase).
	RefreshSeconds    float64 `json:"refresh_seconds"`
	RefreshReadBytes  int64   `json:"refresh_read_bytes"`
	RefreshWriteBytes int64   `json:"refresh_write_bytes"`
}

// IngestStats returns a consistent snapshot of the ingest counters.
func (d *DeepSea) IngestStats() IngestStats {
	backlog := 0
	if !d.Cfg.background() {
		// Inline mode queues nothing but refresh retries, one per view.
		backlog = d.maint.Stats().Depth
	}
	s := d.ingest
	s.mu.Lock()
	defer s.mu.Unlock()
	st := IngestStats{
		Appends:           s.appends,
		AppendedRows:      s.appendRows,
		TrackedViews:      len(s.views),
		RetryBacklog:      backlog,
		Refreshes:         s.refreshes,
		EmptyRefreshes:    s.emptyRefreshes,
		Primes:            s.primes,
		Drops:             s.drops,
		RefreshSeconds:    s.refreshCost.Seconds,
		RefreshReadBytes:  s.refreshCost.ReadBytes,
		RefreshWriteBytes: s.refreshCost.WriteBytes,
	}
	for _, m := range s.views {
		if d.staleNow(m) {
			st.StaleViews++
		}
	}
	return st
}

// servesAt returns the rewriter's test of which pool views may answer a
// query whose snapshot has the given base counts: an untracked view
// always, a tracked one only when its marks equal the counts on every
// table it reads — its stored content is then exactly what the
// snapshot's base tables define.
func (d *DeepSea) servesAt(counts map[string]int64) func(string) bool {
	return func(id string) bool {
		d.ingest.mu.Lock()
		defer d.ingest.mu.Unlock()
		m := d.ingest.views[id]
		return m == nil || !m.staleAt(counts)
	}
}

// AppendReport summarises how one batched append was processed.
type AppendReport struct {
	// Table is the grown base table; NewCount its post-append row count.
	Table    string
	NewCount int64
	// StaleViews lists the dependent views the append left stale.
	StaleViews []string
	// Refreshed and Dropped list the views brought fresh incrementally /
	// dropped during the synchronous (inline-mode) refresh: this
	// append's dependents, plus any pending retries earlier inline
	// rounds left still-stale. Both empty when Deferred.
	Refreshed []string
	Dropped   []string
	// Deferred reports the refreshes were enqueued to the background
	// maintenance pool (Config.MaintWorkers > 0) instead of applied
	// inline.
	Deferred bool
	// RefreshCost is the simulated cost of the inline refresh work.
	RefreshCost engine.Cost
}

// Append journals a batch of new rows for a base table, which leaves
// every dependent materialized view stale, and brings them fresh —
// synchronously in inline mode, via the maintenance pool's refresh band
// in background mode.
func (d *DeepSea) Append(table string, rows []relation.Row) (AppendReport, error) {
	if len(rows) == 0 {
		counts := d.Eng.BaseCounts([]string{table})
		return AppendReport{Table: table, NewCount: counts[table]}, nil
	}
	// appendMu makes apply + journal one atomic step, so journal replay
	// order always matches in-memory apply order (see the field comment).
	d.ingest.appendMu.Lock()
	newCount, err := d.Eng.AppendBase(table, rows)
	if err != nil {
		d.ingest.appendMu.Unlock()
		return AppendReport{}, err
	}
	schema := d.Eng.BaseTable(table).Schema
	deltaTbl := &relation.Table{Schema: schema, Rows: rows}
	d.appendRecord(datastore.Record{Op: "append_rows", Rows: deltaTbl, Size: newCount})

	ids := d.tallyAppend(table, len(rows), newCount)
	d.ingest.appendMu.Unlock()
	rep := AppendReport{Table: table, NewCount: newCount, StaleViews: ids}
	tasks := make([]*maintain.Task, len(ids))
	for i, id := range ids {
		tasks[i] = refreshTaskFor(id)
	}
	if _, ok := d.enqueueTasks(tasks); ok {
		rep.Deferred = len(ids) > 0
		return rep, nil
	}
	// Inline mode: the pending retries, then this append's dependents,
	// one manager-lock acquisition per view; one clock advance for the
	// work.
	var out maintOutcome
	d.applyPending(&out)
	d.applyEach(tasks, &out)
	rep.Refreshed, rep.Dropped, rep.RefreshCost = out.refreshed, out.dropped, out.cost
	if out.cost.Seconds > 0 {
		d.Eng.Advance(out.cost.Seconds)
	}
	return rep, nil
}

// tallyAppend counts an append of n rows that grew table to newCount and
// returns the views that read table — the append's dependents, sorted
// by id. Takes only the ingest leaf lock.
func (d *DeepSea) tallyAppend(table string, n int, newCount int64) []string {
	s := d.ingest
	s.mu.Lock()
	defer s.mu.Unlock()
	s.appends++
	s.appendRows += uint64(n)
	s.noteAppended(table, newCount-int64(n))
	var ids []string
	for id, m := range s.views {
		if slices.Contains(m.tables, table) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// noteAppended records before as table's loaded row count unless an
// earlier append already did. Caller holds s.mu.
func (s *ingestState) noteAppended(table string, before int64) {
	if _, ok := s.loaded[table]; !ok {
		s.loaded[table] = before
	}
}

// refreshTask is the maintenance payload of one view's refresh.
type refreshTask struct{ viewID string }

// refreshTaskFor builds the refresh task of one stale view. The key is
// the view id alone: applyRefreshLocked reads live state, so one pending
// task covers every append that lands before it is popped, and a popped
// task no longer blocks a new push — N appends ahead of one drain cycle
// queue one task per dependent view, not N.
func refreshTaskFor(id string) *maintain.Task {
	return &maintain.Task{
		Key:     "refresh:" + id,
		Kind:    maintain.KindRefresh,
		Payload: &refreshTask{viewID: id},
	}
}

// enqueueRefresh queues a refresh of one stale view outside any
// caller's own task list: a retry of a refresh that came out still
// stale, or the first refresh of a view registered stale. Workers pick
// it up in background mode; in inline mode it waits for the next
// finishing query or Append (applyPending).
func (d *DeepSea) enqueueRefresh(id string) {
	d.maint.Push(refreshTaskFor(id))
}

// refreshOutcome classifies one applyRefreshLocked call.
type refreshOutcome int

const (
	// refreshNoop: the view was not registered or its marks equal the
	// counts (already fresh).
	refreshNoop refreshOutcome = iota
	// refreshApplied: the view is fresh again (incrementally, or the
	// delta produced no content change).
	refreshApplied
	// refreshDropped: the view (files and metadata) was dropped.
	refreshDropped
	// refreshStillStale: the view is still stale (a write fault
	// interrupted a replace, or appends kept racing past the retry bound)
	// and a retry is enqueued.
	refreshStillStale
)

// maxRefreshRounds bounds how many times one refresh call chases
// concurrent appends before handing back (still stale, retried later).
const maxRefreshRounds = 8

// applyRefreshLocked brings one view fresh if it is stale. Caller holds
// the manager lock. The returned cost covers delta computation,
// priming and the writes that applied the result; the caller advances
// the clock.
func (d *DeepSea) applyRefreshLocked(id string) (engine.Cost, refreshOutcome) {
	var total engine.Cost
	defer func() {
		if total.Seconds > 0 || total.ReadBytes > 0 || total.WriteBytes > 0 {
			d.ingest.mu.Lock()
			d.ingest.refreshCost.Add(total)
			d.ingest.mu.Unlock()
		}
	}()
	for round := 0; ; round++ {
		d.ingest.mu.Lock()
		m := d.ingest.views[id]
		stale := m != nil && d.staleNow(m)
		d.ingest.mu.Unlock()
		if !stale {
			return total, refreshNoop
		}
		if m.plan == nil || m.marks == nil {
			d.dropStaleView(id)
			return total, refreshDropped
		}
		snaps, err := d.Eng.BaseSnapshots(m.tables)
		if err != nil {
			// A table left the catalog: the plan is unanswerable.
			d.dropStaleView(id)
			return total, refreshDropped
		}
		counts := make(map[string]int64, len(snaps))
		prefixes := make(map[string]*relation.Table, len(snaps))
		deltas := make(map[string]*relation.Table)
		valid := true
		for t, snap := range snaps {
			n := int64(len(snap.Rows))
			counts[t] = n
			mark := m.marks[t]
			if mark > n {
				valid = false
				break
			}
			prefixes[t] = &relation.Table{Schema: snap.Schema, Rows: snap.Rows[:mark]}
			if mark < n {
				deltas[t] = &relation.Table{Schema: snap.Schema, Rows: snap.Rows[mark:]}
			}
		}
		if !valid {
			d.dropStaleView(id)
			return total, refreshDropped
		}
		if m.rp == nil {
			// Lazy priming: evaluate the plan once over the old base
			// prefixes to learn per-node sizes (and retained aggregate
			// states). Linear in the base, paid once per view per life;
			// steady-state refreshes after it are delta-sized.
			rp, pc, perr := d.Eng.PrimeRefresh(m.plan, prefixes)
			total.Add(pc)
			if perr != nil {
				d.dropStaleView(id)
				return total, refreshDropped
			}
			m.rp = rp
			d.ingest.mu.Lock()
			d.ingest.primes++
			d.ingest.mu.Unlock()
		}
		res, derr := d.Eng.DeltaApply(m.rp, snaps, deltas)
		if derr != nil {
			d.dropStaleView(id)
			return total, refreshDropped
		}
		total.Add(res.Cost)
		empty := false
		switch res.Kind {
		case engine.DeltaRemat:
			d.dropStaleView(id)
			return total, refreshDropped
		case engine.DeltaEmpty:
			empty = true
		case engine.DeltaAppend:
			c, aerr := d.writeBack(id, res.Rows, true)
			total.Add(c)
			if aerr != nil {
				// A write fault mid-apply is not retryable: each
				// AppendMaterialized is atomic per file, but the
				// multi-file apply is not — files extended before the
				// fault already hold the delta, and re-running the apply
				// (marks unchanged, same delta) would append it to them a
				// second time. The only safe completion is dropping the
				// view. (Crash recovery is safe the same way: the view's
				// journaled marks trail the journaled append, and recovery
				// drops views whose marks miss the recovered counts.)
				d.dropStaleView(id)
				return total, refreshDropped
			}
		case engine.DeltaAgg:
			c, aerr := d.writeBack(id, res.Rows, false)
			total.Add(c)
			if aerr != nil {
				// Unlike the append path, a partial replace IS retryable:
				// WriteMaterialized rewrites whole files, the retained
				// states only advance on success (MergeAggStates copies),
				// so a retry recomputes the same content and overwrites
				// every file idempotently.
				return total, d.refreshRetry(id)
			}
			m.rp.States = res.States
		}
		if res.Sizes != nil {
			if _, ok := res.Sizes[m.rp.Plan]; !ok {
				// The aggregate root's size is absent from an empty-delta
				// result; carry the old value forward.
				if old, ok := m.rp.Sizes[m.rp.Plan]; ok {
					res.Sizes[m.rp.Plan] = old
				}
			}
			m.rp.Sizes = res.Sizes
		}
		if d.finalizeRefresh(id, m, counts, empty) {
			return total, refreshApplied
		}
		if round >= maxRefreshRounds {
			return total, d.refreshRetry(id)
		}
	}
}

// refreshRetry re-enqueues a still-stale view. The caller holds the
// manager lock (see applyPending for why that matters).
func (d *DeepSea) refreshRetry(id string) refreshOutcome {
	d.enqueueRefresh(id)
	return refreshStillStale
}

// finalizeRefresh publishes a refresh's new consistency point: marks
// move to the refreshed counts (journaled). Reports whether the view
// came out fresh — no append grew a table past counts meanwhile — and
// counts the refresh if so.
func (d *DeepSea) finalizeRefresh(id string, m *ingestMeta, counts map[string]int64, empty bool) bool {
	s := d.ingest
	s.mu.Lock()
	defer s.mu.Unlock()
	m.marks = counts
	d.appendRecord(datastore.Record{Op: "ingest_marks", View: id, Tables: m.tables, Marks: counts})
	if d.staleNow(m) {
		return false
	}
	s.refreshes++
	if empty {
		s.emptyRefreshes++
	}
	return true
}

// countsEqual reports whether two per-table count maps agree on every
// listed table.
func countsEqual(a, b map[string]int64, tables []string) bool {
	for _, t := range tables {
		if a[t] != b[t] {
			return false
		}
	}
	return true
}

// writeBack puts a refresh's rows into every stored file of a view: the
// whole-view file takes all of rows, each fragment the rows in its
// interval. extend appends them to what each file holds (a DeltaAppend's
// delta; a fragment with no new rows is left alone); otherwise they
// replace it (a DeltaAgg's merged content). Each file's new size is
// read back from the store and set on the pool and the statistics, and
// journaled. It stops at the first failed write. Caller holds the
// manager lock.
func (d *DeepSea) writeBack(id string, rows *relation.Table, extend bool) (engine.Cost, error) {
	var cost engine.Cost
	pv := d.Pool.View(id)
	if pv == nil || rows == nil || (extend && len(rows.Rows) == 0) {
		return cost, nil
	}
	write := func(path string, t *relation.Table) (int64, error) {
		var c engine.Cost
		var err error
		if extend {
			c, err = d.Eng.AppendMaterialized(path, t.Rows)
		} else {
			c, err = d.Eng.WriteMaterialized(path, t)
		}
		cost.Add(c)
		return d.Eng.MaterializedBytes(path), err
	}
	if pv.Path != "" {
		size, err := write(pv.Path, rows)
		if err != nil {
			return cost, err
		}
		d.Pool.SetViewFile(id, pv.Path, size)
		vs := d.Stats.View(id)
		vs.Size, vs.Measured = size, true
		d.journalVStat(vs)
	}
	for _, attr := range pv.PartAttrs() {
		part := pv.Parts[attr]
		ai := rows.Schema.ColIndex(attr)
		if ai < 0 {
			continue
		}
		pstat := d.Stats.Partition(id, attr, part.Dom)
		for _, fr := range part.Fragments() {
			sub := relation.NewTable(rows.Schema)
			for _, row := range rows.Rows {
				if fr.Iv.Contains(row[ai].Int()) {
					sub.Rows = append(sub.Rows, row)
				}
			}
			if extend && len(sub.Rows) == 0 {
				continue
			}
			size, err := write(fr.Path, sub)
			if err != nil {
				return cost, err
			}
			d.Pool.AddFragment(id, attr, partition.Fragment{Iv: fr.Iv, Path: fr.Path, Size: size})
			fs := pstat.Frag(fr.Iv)
			fs.Size, fs.Measured = size, true
			d.journalFStat(id, attr, fs)
		}
	}
	return cost, nil
}

// dropStaleView removes a view the refresh cannot maintain: files, pool
// entries and ingest metadata. A query already running over its files
// keeps reading its snapshot. Caller holds the manager lock.
func (d *DeepSea) dropStaleView(id string) {
	if pv := d.Pool.View(id); pv != nil {
		if pv.Path != "" {
			d.Eng.DeleteMaterialized(pv.Path)
			d.Pool.DropViewFile(id)
		}
		for _, attr := range pv.PartAttrs() {
			// A copy: RemoveFragment shifts the partition's own slice.
			for _, fr := range slices.Clone(pv.Parts[attr].Fragments()) {
				d.Eng.DeleteMaterialized(fr.Path)
				d.Pool.RemoveFragment(id, attr, fr.Iv)
			}
		}
		d.Pool.GCViews(id)
	}
	s := d.ingest
	s.mu.Lock()
	delete(s.views, id)
	s.drops++
	s.mu.Unlock()
}

// registerIngestView records refresh metadata for a freshly
// materialized view. planCounts are the base counts of the proposing
// query's snapshot, which its captured rows are exact at: they become
// the view's marks. If an append has moved a table past them since, the
// view registers stale too, and its first refresh applies the delta.
// fromFiles marks content rebuilt from the view's own stored files
// (re-partitioning), whose consistency point is whatever the existing
// metadata says. Caller holds the manager lock.
func (d *DeepSea) registerIngestView(id string, plan query.Node, planCounts map[string]int64, fromFiles bool) {
	if plan == nil {
		return
	}
	tables := append([]string(nil), query.BaseTables(plan)...)
	sort.Strings(tables)
	if len(tables) == 0 {
		return
	}
	s := d.ingest
	s.mu.Lock()
	defer s.mu.Unlock()
	if m := s.views[id]; m != nil && fromFiles {
		// Content rebuilt from this view's own files: same rows, same
		// consistency point; the plan (absent after recovery) is now
		// known again.
		m.plan = plan
		m.rp = nil
		return
	}
	marks := make(map[string]int64, len(tables))
	for _, t := range tables {
		marks[t] = planCounts[t]
	}
	m := &ingestMeta{plan: plan, tables: tables, marks: marks}
	d.appendRecord(datastore.Record{Op: "ingest_marks", View: id, Tables: tables, Marks: marks})
	s.views[id] = m
	if d.staleNow(m) {
		// In inline mode the registering query runs the refresh as it
		// leaves.
		d.enqueueRefresh(id)
	}
}

// ingestFragGuard reports whether storing rows a query captured — a gap
// fragment, or a view materialization that may extend an existing
// partition — is consistent with what the view already stores: the view
// is untracked, or it is fresh and its marks equal the proposing query's
// planning-time counts (so the captured rows describe exactly the
// content the marks certify). Without it a view whose stored fragments
// lag an append would be re-registered fresh at the new counts, and the
// lagging fragments served as if they held the appended rows.
// File-sourced writes (refinement splits, merges) need no guard — they
// rearrange content already at the marks.
func (d *DeepSea) ingestFragGuard(id string, planCounts map[string]int64) bool {
	d.ingest.mu.Lock()
	defer d.ingest.mu.Unlock()
	m := d.ingest.views[id]
	return m == nil || (!d.staleNow(m) && countsEqual(m.marks, planCounts, m.tables))
}

// ingestSnap is a view's refresh metadata in a snapshot (plans and
// primed state are rebuilt lazily, not persisted). Snapshots of older
// builds also carry a "stale" flag; decoding ignores it, since the
// marks alone say whether the view is stale.
type ingestSnap struct {
	View   string           `json:"view"`
	Tables []string         `json:"tables,omitempty"`
	Marks  map[string]int64 `json:"marks,omitempty"`
}

// appendSnap is one base table's appended rows in a snapshot: every
// row past its loaded count, in apply order.
type appendSnap struct {
	Table string          `json:"table"`
	Rows  *relation.Table `json:"rows"`
}

// ingestSnapshot captures the registry for a snapshot. Caller quiesced
// the instance (Snapshot's locks, appendMu among them, so no append is
// between its apply and its journal record). The appended rows are read
// from the base tables themselves: each table's suffix past its loaded
// count.
func (d *DeepSea) ingestSnapshot() (appends []appendSnap, metas []ingestSnap) {
	s := d.ingest
	s.mu.Lock()
	loaded := make(map[string]int64, len(s.loaded))
	for t, n := range s.loaded {
		loaded[t] = n
	}
	s.mu.Unlock()
	tables := make([]string, 0, len(loaded))
	for t := range loaded {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		base := d.Eng.BaseTable(t)
		appends = append(appends, appendSnap{Table: t,
			Rows: &relation.Table{Schema: base.Schema, Rows: base.Rows[loaded[t]:]}})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.views))
	for id := range s.views {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		m := s.views[id]
		metas = append(metas, ingestSnap{View: id, Tables: m.tables, Marks: m.marks})
	}
	return appends, metas
}

// restoreIngestMeta rebuilds one view's refresh metadata during
// recovery. Recovered metas are plan-less: a view whose tables grow
// after the restart cannot be refreshed and is dropped instead, which
// is the self-healing contract of the journal-only refresh state.
func (d *DeepSea) restoreIngestMeta(id string, tables []string, marks map[string]int64) {
	s := d.ingest
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.views[id]
	if m == nil {
		m = &ingestMeta{}
		s.views[id] = m
	}
	if len(tables) > 0 {
		m.tables = append([]string(nil), tables...)
	}
	m.marks = marks
	m.plan, m.rp = nil, nil
}

// bufferRecoveredAppend stashes a recovered append (snapshot payload or
// append_rows journal record) until the host re-adds the base catalog;
// ApplyRecoveredAppends replays the stash.
func (d *DeepSea) bufferRecoveredAppend(table string, rows *relation.Table) {
	if rows == nil || len(rows.Rows) == 0 {
		return
	}
	if cur := d.recoveredAppends[table]; cur == nil {
		cp := &relation.Table{Schema: rows.Schema}
		cp.Rows = append([]relation.Row(nil), rows.Rows...)
		d.recoveredAppends[table] = cp
		d.recoveredAppendOrder = append(d.recoveredAppendOrder, table)
	} else {
		cur.Rows = append(cur.Rows, rows.Rows...)
	}
}

// RecoveredIngest reports what ApplyRecoveredAppends did.
type RecoveredIngest struct {
	// Tables and Rows count the base tables grown and rows re-appended
	// from recovered state.
	Tables int
	Rows   int
	// Dropped lists views removed because their stored content could not
	// be proven consistent with the recovered base counts (marks missing
	// or mismatching, or untracked while appends exist).
	Dropped []string
}

// ApplyRecoveredAppends replays the appends recovered from the
// datastore onto the host-re-added base tables and reconciles the view
// pool against the result: a view survives only if its journaled marks
// match the recovered counts exactly — anything stale or untracked is
// dropped (recovered metas carry no plan, so incremental
// refresh is impossible and dropping is the only safe completion).
// Call after every AddBaseTable and before serving traffic; recovered
// rows are already durable, so the replay journals nothing.
func (d *DeepSea) ApplyRecoveredAppends() (RecoveredIngest, error) {
	var info RecoveredIngest
	hadAppends := len(d.recoveredAppendOrder) > 0
	for _, table := range d.recoveredAppendOrder {
		rows := d.recoveredAppends[table]
		newCount, err := d.Eng.AppendBase(table, rows.Rows)
		if err != nil {
			return info, fmt.Errorf("core: replay recovered append for %s: %w", table, err)
		}
		info.Tables++
		info.Rows += len(rows.Rows)
		// The replayed rows count as appended, so the next snapshot
		// carries them with every later append.
		d.ingest.mu.Lock()
		d.ingest.noteAppended(table, newCount-int64(len(rows.Rows)))
		d.ingest.mu.Unlock()
	}
	d.recoveredAppends = make(map[string]*relation.Table)
	d.recoveredAppendOrder = nil

	// Reconcile: collect the verdicts under the ingest lock, then drop
	// each view under the manager lock.
	s := d.ingest
	s.mu.Lock()
	var drop []string
	for id, m := range s.views {
		if len(m.tables) == 0 || d.staleNow(m) {
			drop = append(drop, id)
		}
	}
	s.mu.Unlock()
	if hadAppends {
		// Pool views with no refresh metadata at all: their base tables
		// are unknown, so with any recovered appends in play their
		// content cannot be trusted.
		for _, pv := range d.Pool.Views() {
			d.ingest.mu.Lock()
			_, tracked := d.ingest.views[pv.ID]
			d.ingest.mu.Unlock()
			if !tracked {
				drop = append(drop, pv.ID)
			}
		}
	}
	sort.Strings(drop)
	for _, id := range drop {
		d.mu.Lock()
		d.dropStaleView(id)
		d.mu.Unlock()
	}
	info.Dropped = drop
	return info, nil
}
