package core

import (
	"fmt"
	"sort"
	"sync"

	"deepsea/internal/datastore"
	"deepsea/internal/engine"
	"deepsea/internal/maintain"
	"deepsea/internal/partition"
	"deepsea/internal/query"
	"deepsea/internal/relation"
)

// This file is the ingest path: batched base-table appends that mark
// dependent materialized views stale and bring them fresh again by
// incremental delta propagation (internal/engine's DeltaApply) instead
// of rematerialization. A refresh is a maintenance task like any other
// (refreshTask): Append builds one per dependent view and the dataflow
// of maintain.go applies them — the Append itself in inline mode, the
// workers in background mode — through applyRefreshLocked either way.
// A refresh that cannot finish re-enqueues itself, whichever mode it
// runs in.
//
// The invariants the path maintains:
//
//   - A query planned after Append returns never reads stale view
//     content: Append flips every dependent view's stale flag before
//     returning, the rewriter skips stale views (their virtual
//     rewritings still accumulate statistics), and result-cache keys
//     embed per-table base row counts, so a pre-append cached result is
//     unreachable by any post-append lookup.
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
// only the registry maps and the stale flags, and nothing acquires the
// manager lock or pinMu while holding it. Everything else
// about a meta (plan, marks, refresh plan, retained states) mutates only
// under the manager lock, which serializes refresh, registration and
// drop.

// ingestMeta is one registered view's refresh state.
type ingestMeta struct {
	// plan is the view's defining plan over base tables; nil after a
	// warm restart (plans are not journaled), which makes the view
	// unrefreshable — the first refresh drops it instead.
	plan query.Node
	// tables lists the base tables the plan reads, sorted.
	tables []string
	// marks is the consistency point: per-table row counts at which the
	// stored content is exact. nil means unknown (content captured while
	// an append raced the materialization) — the refresh drops the view.
	marks map[string]int64
	// rp is the primed refresh state (per-node sizes, retained aggregate
	// states); nil until the first refresh primes it lazily.
	rp *engine.RefreshPlan
	// stale marks content lagging its base tables. Guarded by ingestMu;
	// every other field is guarded by the manager lock.
	stale bool
}

// ingestState is the instance-wide ingest registry.
type ingestState struct {
	// appendMu serializes one append's base-table apply, its append_rows
	// journal record, and its append-log entry as a single atomic step:
	// concurrent Appends to the same table would otherwise journal (and
	// snapshot) in a different order than they applied in memory, and a
	// warm restart — which replays in journal order — would rebuild the
	// table with a different row order than the live instance, breaking
	// the byte-identical-to-remat invariant of surviving views. Acquired
	// before mu and before the engine/datastore locks; nothing acquires
	// it while holding any other lock.
	appendMu sync.Mutex

	mu      sync.Mutex
	views   map[string]*ingestMeta
	byTable map[string]map[string]bool
	// appLog accumulates the rows appended to each base table since the
	// original catalog load — the snapshot payload that lets a warm
	// restart rebuild the grown tables from the host's re-added
	// originals.
	appLog map[string]*relation.Table

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
		views:   make(map[string]*ingestMeta),
		byTable: make(map[string]map[string]bool),
		appLog:  make(map[string]*relation.Table),
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
		if m.stale {
			st.StaleViews++
		}
	}
	return st
}

// staleView is the rewriter's staleness hook: stale view content must
// not serve queries.
func (d *DeepSea) staleView(id string) bool {
	d.ingest.mu.Lock()
	defer d.ingest.mu.Unlock()
	m := d.ingest.views[id]
	return m != nil && m.stale
}

// AppendReport summarises how one batched append was processed.
type AppendReport struct {
	// Table is the grown base table; NewCount its post-append row count.
	Table    string
	NewCount int64
	// StaleViews lists the dependent views marked stale.
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

// Append journals a batch of new rows for a base table, marks every
// dependent materialized view stale and brings them fresh —
// synchronously in inline mode, via the maintenance pool's refresh band
// in background mode.
func (d *DeepSea) Append(table string, rows []relation.Row) (AppendReport, error) {
	if len(rows) == 0 {
		counts := d.Eng.BaseCounts([]string{table})
		return AppendReport{Table: table, NewCount: counts[table]}, nil
	}
	// appendMu makes apply + journal + append-log one atomic step, so
	// journal replay order always matches in-memory apply order (see the
	// field comment).
	d.ingest.appendMu.Lock()
	newCount, err := d.Eng.AppendBase(table, rows)
	if err != nil {
		d.ingest.appendMu.Unlock()
		return AppendReport{}, err
	}
	schema := d.Eng.BaseTable(table).Schema
	deltaTbl := &relation.Table{Schema: schema, Rows: rows}
	d.appendRecord(datastore.Record{Op: "append_rows", Rows: deltaTbl, Size: newCount})

	ids := d.markDependentsStale(table, deltaTbl)
	d.ingest.appendMu.Unlock()
	rep := AppendReport{Table: table, NewCount: newCount, StaleViews: ids}
	tasks := make([]*maintain.Task, len(ids))
	for i, id := range ids {
		tasks[i] = refreshTaskFor(id)
	}
	if _, ok := d.enqueueTasks(tasks, nil); ok {
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

// markDependentsStale records the append in the ingest log and flips the
// stale flag of every dependent view, journaling each transition.
// Returns the dependents sorted by id. Takes only the ingest leaf lock.
func (d *DeepSea) markDependentsStale(table string, delta *relation.Table) []string {
	s := d.ingest
	s.mu.Lock()
	defer s.mu.Unlock()
	s.appends++
	s.appendRows += uint64(len(delta.Rows))
	if cur := s.appLog[table]; cur == nil {
		cp := &relation.Table{Schema: delta.Schema}
		cp.Rows = append([]relation.Row(nil), delta.Rows...)
		s.appLog[table] = cp
	} else {
		cur.Rows = append(cur.Rows, delta.Rows...)
	}
	var ids []string
	for id := range s.byTable[table] {
		ids = append(ids, id)
		m := s.views[id]
		if m != nil && !m.stale {
			m.stale = true
			d.appendRecord(datastore.Record{Op: "ingest_stale", View: id})
		}
	}
	sort.Strings(ids)
	return ids
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
	// refreshNoop: the view was not registered or already fresh.
	refreshNoop refreshOutcome = iota
	// refreshApplied: the view is fresh again (incrementally, or the
	// delta produced no content change).
	refreshApplied
	// refreshDropped: the view (files and metadata) was dropped.
	refreshDropped
	// refreshStillStale: the view is still stale (pinned files blocked a
	// drop, a write fault interrupted the apply, or appends kept racing
	// past the retry bound) and a retry is enqueued.
	refreshStillStale
)

// maxRefreshRounds bounds how many times one refresh call chases
// concurrent appends before handing back (still stale, retried later).
const maxRefreshRounds = 8

// applyRefreshLocked brings one stale view fresh. Caller holds the
// manager lock. The returned cost covers delta computation,
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
		stale := m != nil && m.stale
		d.ingest.mu.Unlock()
		if !stale {
			return total, refreshNoop
		}
		if m.plan == nil || m.marks == nil {
			if d.dropStaleView(id) {
				return total, refreshDropped
			}
			return total, d.refreshRetry(id)
		}
		snaps, err := d.Eng.BaseSnapshots(m.tables)
		if err != nil {
			// A table left the catalog: the plan is unanswerable.
			if d.dropStaleView(id) {
				return total, refreshDropped
			}
			return total, d.refreshRetry(id)
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
			if d.dropStaleView(id) {
				return total, refreshDropped
			}
			return total, d.refreshRetry(id)
		}
		if len(deltas) == 0 {
			// Marked stale but nothing actually grew past the marks (a
			// raced refresh already consumed the delta).
			if d.finalizeRefresh(id, m, counts, true) {
				return total, refreshApplied
			}
			if round >= maxRefreshRounds {
				return total, d.refreshRetry(id)
			}
			continue
		}
		if m.rp == nil {
			// Lazy priming: evaluate the plan once over the old base
			// prefixes to learn per-node sizes (and retained aggregate
			// states). Linear in the base, paid once per view per life;
			// steady-state refreshes after it are delta-sized.
			rp, pc, perr := d.Eng.PrimeRefresh(m.plan, prefixes)
			total.Add(pc)
			if perr != nil {
				if d.dropStaleView(id) {
					return total, refreshDropped
				}
				return total, d.refreshRetry(id)
			}
			m.rp = rp
			d.ingest.mu.Lock()
			d.ingest.primes++
			d.ingest.mu.Unlock()
		}
		res, derr := d.Eng.DeltaApply(m.rp, snaps, deltas)
		if derr != nil {
			if d.dropStaleView(id) {
				return total, refreshDropped
			}
			return total, d.refreshRetry(id)
		}
		total.Add(res.Cost)
		empty := false
		switch res.Kind {
		case engine.DeltaRemat:
			if d.dropStaleView(id) {
				return total, refreshDropped
			}
			return total, d.refreshRetry(id)
		case engine.DeltaEmpty:
			empty = true
		case engine.DeltaAppend:
			c, aerr := d.applyViewAppend(id, res.Rows)
			total.Add(c)
			if aerr != nil {
				// A write fault mid-apply is not retryable: each
				// AppendMaterialized is atomic per file, but the
				// multi-file apply is not — files extended before the
				// fault already hold the delta, and re-running the apply
				// (marks unchanged, same delta) would append it to them a
				// second time. The only safe completion is dropping the
				// view. Poison the marks first so that if pinned files
				// block the drop, every later attempt drops instead of
				// re-applying. (Crash recovery is safe the same way: the
				// view was journaled stale, and recovery drops stale
				// views.)
				m.marks = nil
				m.rp = nil
				if d.dropStaleView(id) {
					return total, refreshDropped
				}
				return total, d.refreshRetry(id)
			}
		case engine.DeltaAgg:
			c, aerr := d.applyViewReplace(id, res.Rows)
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
// move to the refreshed counts (journaled), and the stale flag clears
// only if no further append landed meanwhile — the count re-read and the
// flag write share the ingest lock with Append's stale-marking, so a
// racing append either moves the counts first (the flag stays set) or
// marks stale after (overwriting the clear). Reports whether the view
// came out fresh. Counts the refresh.
func (d *DeepSea) finalizeRefresh(id string, m *ingestMeta, counts map[string]int64, empty bool) bool {
	s := d.ingest
	s.mu.Lock()
	defer s.mu.Unlock()
	m.marks = counts
	d.appendRecord(datastore.Record{Op: "ingest_marks", View: id, Tables: m.tables, Marks: counts})
	cur := d.Eng.BaseCounts(m.tables)
	fresh := countsEqual(cur, counts, m.tables)
	if fresh {
		m.stale = false
		s.refreshes++
		if empty {
			s.emptyRefreshes++
		}
	}
	return fresh
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

// applyViewAppend extends the view's stored files with the delta output
// rows: the whole-view file gains all of them, each fragment gains the
// rows falling in its interval. Caller holds the manager lock.
func (d *DeepSea) applyViewAppend(id string, delta *relation.Table) (engine.Cost, error) {
	var cost engine.Cost
	pv := d.Pool.View(id)
	if pv == nil || delta == nil || len(delta.Rows) == 0 {
		return cost, nil
	}
	if pv.Path != "" {
		c, err := d.Eng.AppendMaterialized(pv.Path, delta.Rows)
		cost.Add(c)
		if err != nil {
			return cost, err
		}
		newBytes := pv.Size + delta.Bytes()
		d.Pool.SetViewFile(id, pv.Path, newBytes)
		vs := d.Stats.View(id)
		vs.Size = newBytes
		vs.Measured = true
		d.journalVStat(vs)
	}
	for _, attr := range pv.PartAttrs() {
		part := pv.Parts[attr]
		ai := delta.Schema.ColIndex(attr)
		if ai < 0 {
			continue
		}
		pstat := d.Stats.Partition(id, attr, part.Dom)
		for _, fr := range part.Fragments() {
			var sub []relation.Row
			for _, row := range delta.Rows {
				if fr.Iv.Contains(row[ai].Int()) {
					sub = append(sub, row)
				}
			}
			if len(sub) == 0 {
				continue
			}
			c, err := d.Eng.AppendMaterialized(fr.Path, sub)
			cost.Add(c)
			if err != nil {
				return cost, err
			}
			newBytes := fr.Size + (&relation.Table{Schema: delta.Schema, Rows: sub}).Bytes()
			d.Pool.AddFragment(id, attr, partition.Fragment{Iv: fr.Iv, Path: fr.Path, Size: newBytes})
			fs := pstat.Frag(fr.Iv)
			fs.Size = newBytes
			fs.Measured = true
			d.journalFStat(id, attr, fs)
		}
	}
	return cost, nil
}

// applyViewReplace rewrites the view's stored files with the merged
// content (aggregate roots: group states changed in place, so the files
// cannot be extended). Caller holds the manager lock.
func (d *DeepSea) applyViewReplace(id string, content *relation.Table) (engine.Cost, error) {
	var cost engine.Cost
	pv := d.Pool.View(id)
	if pv == nil || content == nil {
		return cost, nil
	}
	if pv.Path != "" {
		c, err := d.Eng.WriteMaterialized(pv.Path, content)
		cost.Add(c)
		if err != nil {
			return cost, err
		}
		d.Pool.SetViewFile(id, pv.Path, content.Bytes())
		vs := d.Stats.View(id)
		vs.Size = content.Bytes()
		vs.Measured = true
		d.journalVStat(vs)
	}
	for _, attr := range pv.PartAttrs() {
		part := pv.Parts[attr]
		ai := content.Schema.ColIndex(attr)
		if ai < 0 {
			continue
		}
		pstat := d.Stats.Partition(id, attr, part.Dom)
		for _, fr := range part.Fragments() {
			sub := relation.NewTable(content.Schema)
			for _, row := range content.Rows {
				if fr.Iv.Contains(row[ai].Int()) {
					sub.Append(row)
				}
			}
			c, err := d.Eng.WriteMaterialized(fr.Path, sub)
			cost.Add(c)
			if err != nil {
				return cost, err
			}
			d.Pool.AddFragment(id, attr, partition.Fragment{Iv: fr.Iv, Path: fr.Path, Size: sub.Bytes()})
			fs := pstat.Frag(fr.Iv)
			fs.Size = sub.Bytes()
			fs.Measured = true
			d.journalFStat(id, attr, fs)
		}
	}
	return cost, nil
}

// dropStaleView removes a view the refresh cannot maintain: files, pool
// entries and ingest metadata. Files pinned by an in-flight execution
// block the drop (that query planned against them); the view then stays
// stale — unreadable by new queries — until a retry finds the pins
// released. Caller holds the manager lock. Reports whether the drop
// completed.
func (d *DeepSea) dropStaleView(id string) bool {
	pv := d.Pool.View(id)
	if pv != nil {
		if pv.Path != "" && d.isPinned(pv.Path) {
			return false
		}
		for _, attr := range pv.PartAttrs() {
			for _, fr := range pv.Parts[attr].Fragments() {
				if d.isPinned(fr.Path) {
					return false
				}
			}
		}
		if pv.Path != "" {
			d.Eng.DeleteMaterialized(pv.Path)
			d.Pool.DropViewFile(id)
		}
		for _, attr := range pv.PartAttrs() {
			for _, fr := range pv.Parts[attr].Fragments() {
				d.Eng.DeleteMaterialized(fr.Path)
				d.Pool.RemoveFragment(id, attr, fr.Iv)
			}
		}
		d.Pool.GCViews(id)
	}
	s := d.ingest
	s.mu.Lock()
	if m := s.views[id]; m != nil {
		for _, t := range m.tables {
			delete(s.byTable[t], id)
		}
		delete(s.views, id)
	}
	s.drops++
	s.mu.Unlock()
	return true
}

// registerIngestView records refresh metadata for a freshly
// materialized view. planCounts are the base-table row counts captured
// during the proposing query's planning; if they still match the
// current counts, no append landed between planning and now (counts are
// monotone), so the captured content is exactly consistent at
// planCounts. Otherwise an append raced the materialization and the
// content's consistency point is unknowable — the view registers stale
// with invalid marks, and its first refresh drops it. fromFiles marks
// content rebuilt from the view's own stored files (re-partitioning),
// whose consistency point is whatever the existing metadata says.
// Caller holds the manager lock.
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
		for _, t := range tables {
			if s.byTable[t] == nil {
				s.byTable[t] = make(map[string]bool)
			}
			s.byTable[t][id] = true
		}
		return
	}
	m := &ingestMeta{plan: plan, tables: tables}
	cur := d.Eng.BaseCounts(tables)
	if countsEqual(cur, planCounts, tables) {
		marks := make(map[string]int64, len(tables))
		for _, t := range tables {
			marks[t] = planCounts[t]
		}
		m.marks = marks
		d.appendRecord(datastore.Record{Op: "ingest_marks", View: id, Tables: tables, Marks: marks})
	} else {
		m.stale = true
		d.appendRecord(datastore.Record{Op: "ingest_stale", View: id})
	}
	s.views[id] = m
	for _, t := range tables {
		if s.byTable[t] == nil {
			s.byTable[t] = make(map[string]bool)
		}
		s.byTable[t][id] = true
	}
	if m.stale {
		// The view's first refresh will drop it (no valid marks). In
		// inline mode the registering query runs it as it leaves.
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
	if m == nil {
		return true
	}
	if m.stale || m.marks == nil {
		return false
	}
	return countsEqual(m.marks, planCounts, m.tables)
}

// ingestSnap is a view's refresh metadata in a snapshot (plans and
// primed state are rebuilt lazily, not persisted).
type ingestSnap struct {
	View   string           `json:"view"`
	Tables []string         `json:"tables,omitempty"`
	Marks  map[string]int64 `json:"marks,omitempty"`
	Stale  bool             `json:"stale,omitempty"`
}

// appendSnap is one base table's accumulated appended rows in a
// snapshot.
type appendSnap struct {
	Table string          `json:"table"`
	Rows  *relation.Table `json:"rows"`
}

// ingestSnapshot captures the registry for a snapshot. Caller quiesced
// the instance (Snapshot's locks).
func (d *DeepSea) ingestSnapshot() (appends []appendSnap, metas []ingestSnap) {
	s := d.ingest
	s.mu.Lock()
	defer s.mu.Unlock()
	tables := make([]string, 0, len(s.appLog))
	for t := range s.appLog {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		appends = append(appends, appendSnap{Table: t, Rows: s.appLog[t]})
	}
	ids := make([]string, 0, len(s.views))
	for id := range s.views {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		m := s.views[id]
		metas = append(metas, ingestSnap{View: id, Tables: m.tables, Marks: m.marks, Stale: m.stale})
	}
	return appends, metas
}

// restoreIngestMeta rebuilds one view's refresh metadata during
// recovery. Recovered metas are plan-less: a view whose tables grow
// after the restart cannot be refreshed and is dropped instead, which
// is the self-healing contract of the journal-only refresh state.
func (d *DeepSea) restoreIngestMeta(id string, tables []string, marks map[string]int64, stale bool) {
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
		for _, t := range m.tables {
			if s.byTable[t] == nil {
				s.byTable[t] = make(map[string]bool)
			}
			s.byTable[t][id] = true
		}
	}
	m.marks = marks
	m.stale = stale
	m.plan, m.rp = nil, nil
}

// markIngestStale flips a recovered view's stale flag (journal replay
// of an ingest_stale record).
func (d *DeepSea) markIngestStale(id string) {
	s := d.ingest
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.views[id]
	if m == nil {
		m = &ingestMeta{}
		s.views[id] = m
	}
	m.stale = true
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
	// be proven consistent with the recovered base counts (stale at
	// crash time, marks mismatching, or untracked while appends exist).
	Dropped []string
}

// ApplyRecoveredAppends replays the appends recovered from the
// datastore onto the host-re-added base tables and reconciles the view
// pool against the result: a view survives only if its journaled marks
// match the recovered counts exactly — anything stale, mismatched or
// untracked is dropped (recovered metas carry no plan, so incremental
// refresh is impossible and dropping is the only safe completion).
// Call after every AddBaseTable and before serving traffic; recovered
// rows are already durable, so the replay journals nothing.
func (d *DeepSea) ApplyRecoveredAppends() (RecoveredIngest, error) {
	var info RecoveredIngest
	hadAppends := len(d.recoveredAppendOrder) > 0
	for _, table := range d.recoveredAppendOrder {
		rows := d.recoveredAppends[table]
		if _, err := d.Eng.AppendBase(table, rows.Rows); err != nil {
			return info, fmt.Errorf("core: replay recovered append for %s: %w", table, err)
		}
		info.Tables++
		info.Rows += len(rows.Rows)
		// The replayed rows flow into the append log so the next snapshot
		// carries the full accumulated suffix.
		s := d.ingest
		s.mu.Lock()
		if cur := s.appLog[table]; cur == nil {
			s.appLog[table] = rows
		} else {
			cur.Rows = append(cur.Rows, rows.Rows...)
		}
		s.mu.Unlock()
	}
	d.recoveredAppends = make(map[string]*relation.Table)
	d.recoveredAppendOrder = nil

	// Reconcile: collect the verdicts under the ingest lock, then drop
	// each view under the manager lock.
	s := d.ingest
	s.mu.Lock()
	var drop []string
	for id, m := range s.views {
		counts := d.Eng.BaseCounts(m.tables)
		if m.stale || m.marks == nil || len(m.tables) == 0 || !countsEqual(counts, m.marks, m.tables) {
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
		if d.dropStaleView(id) {
			info.Dropped = append(info.Dropped, id)
		}
		d.mu.Unlock()
	}
	return info, nil
}
