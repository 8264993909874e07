package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"deepsea/internal/engine"
	"deepsea/internal/faults"
	"deepsea/internal/maintain"
	"deepsea/internal/matching"
	"deepsea/internal/pool"
	"deepsea/internal/relation"
)

// This file is the maintenance dataflow: Algorithm 1's steps 9+ as one
// task vocabulary with one apply function per task kind, reached by two
// thin drivers.
//
// A finishing query turns its decisions into a task list
// (maintenanceTasks); an Append turns its stale dependents into refresh
// tasks (refreshTaskFor). Who applies the list is the only thing
// Config.MaintWorkers changes:
//
//   - Worker driver (MaintWorkers > 0): the tasks are pushed to the
//     pool (internal/maintain) and the caller returns at once — it never
//     pays for materialization, splits, merges, eviction or refresh. A
//     worker drains the queue in Φ-ranked batches; one drain cycle
//     (applyMaintBatch) commits all its mutations under a single
//     acquisition of the manager lock. It applies exactly the tasks a
//     caller would have applied and journals them the same way, record
//     by record.
//   - Synchronous driver (MaintWorkers == 0): the caller applies the
//     list itself, in the order it was built. A query does so under one
//     acquisition of the manager lock (applyQueryTasks) and is charged
//     execution plus maintenance in one clock advance; an Append takes
//     the lock once per refreshed view (applyEach), so planners never
//     wait behind a whole batch. The pool still exists, with no workers,
//     and holds what a synchronous apply could not finish — refreshes
//     left still-stale — until the next finishing query or Append takes
//     them (applyPending).
//
// Correctness rests on two properties. Every maintenance mutation
// re-validates against the live pool (cover checks, stale guards,
// idempotent writes), so a task applied against a pool newer than the
// one it was planned on either does the same work or skips as stale.
// And no mutation reaches a running query, which reads only the snapshot
// its planning bound. Results are unaffected either way — rewrites are
// exact, so query output is byte-identical whether maintenance ran at
// once, later, or not at all.

// maintBatchMax bounds how many tasks one drain cycle commits under a
// single acquisition of the manager lock.
const maintBatchMax = 64

// matViewTask materializes a selected view (whole or its admitted
// initial fragments). captured carries the rows computed as a
// by-product of the proposing query's execution — of a partially
// admitted view, the rows inside the admitted pieces only — and is nil
// when the rows must be reconstructed from an existing partition at
// apply time. capturedBytes is the measured size of the whole view,
// whatever part of it captured holds.
type matViewTask struct {
	sv            selectedView
	captured      *relation.Table
	capturedBytes int64
	// baseCounts is the proposing query's planning-time base-table row
	// counts — the ingest consistency point the captured rows register
	// under (see registerIngestView).
	baseCounts map[string]int64
	// usedByQuery marks a view whose fragments the proposing query's
	// plan just read, applied by that query itself: rebuilding the view
	// from them costs no further reads. Only the synchronous driver sets
	// it — a worker re-reads the fragments and is charged for them.
	usedByQuery bool
}

// matFragTask materializes one selected fragment candidate: a gap
// recovery (fromGap, rows captured from the remainder execution) or a
// refinement split over existing fragments.
type matFragTask struct {
	fc         fragCandidate
	captured   *relation.Table
	baseCounts map[string]int64
}

// mergeTask merges co-accessed adjacent fragments of the rewriting the
// proposing query executed (Section 11 extension).
type mergeTask struct {
	rw *matching.Rewriting
}

// measuredSize carries a step-9 size measurement: the candidate's
// captured output size, applied to its ViewStat under the manager lock.
type measuredSize struct {
	id    string
	bytes int64
}

// sweepTask applies the bookkeeping of one query's maintenance round:
// precise size measurements for captured candidates, or the eviction of
// selection-rejected pool items. A query proposes them as two tasks —
// the measurements open its list, the evictions close it.
type sweepTask struct {
	measure []measuredSize
	evict   []pool.Candidate
}

// maintOutcome accumulates what applying a run of tasks did. Workers
// use only the cost (charged to the clock per drain cycle); the
// synchronous driver copies the rest into its caller's QueryReport or
// AppendReport.
type maintOutcome struct {
	cost engine.Cost
	// matViews, matFrags and merged name what was created; evicted the
	// pool items removed; matFailed the views whose attempt hit an
	// injected fault (now under backoff).
	matViews, matFrags, merged, evicted, matFailed []string
	// refreshed and dropped name the stale views a refresh brought fresh
	// or dropped.
	refreshed, dropped []string
}

// maintTaskViews lists the views a task's apply may touch — the scope
// of the drain cycle's Pool.GCViews.
func maintTaskViews(t *maintain.Task) []string {
	switch p := t.Payload.(type) {
	case *matViewTask:
		return []string{p.sv.vc.id}
	case *matFragTask:
		return []string{p.fc.viewID}
	case *mergeTask:
		return []string{p.rw.ViewID}
	case *sweepTask:
		ids := make([]string, 0, len(p.measure)+len(p.evict))
		for _, m := range p.measure {
			ids = append(ids, m.id)
		}
		for _, c := range p.evict {
			ids = append(ids, c.ViewID)
		}
		return ids
	case *refreshTask:
		return []string{p.viewID}
	}
	return nil
}

// maintenanceTasks converts one planned query's maintenance decisions
// into per-unit tasks, in the order the synchronous driver applies them:
// measured sizes, selected views, selected fragments, the merge, the
// evictions. (The worker pool re-orders by band and Φ.) The tasks carry
// no dedup key: a candidate two queries both propose queues twice, and
// the apply-side re-validation against the live pool makes the second
// application a no-op.
func (d *DeepSea) maintenanceTasks(pq *plannedQuery, res *engine.Result) []*maintain.Task {
	var tasks []*maintain.Task
	var measure []measuredSize
	for _, vc := range pq.vcands {
		if bytes, ok := res.CapturedBytes[vc.node]; ok {
			measure = append(measure, measuredSize{id: vc.id, bytes: bytes})
		}
	}
	if len(measure) > 0 {
		tasks = append(tasks, &maintain.Task{Kind: maintain.KindSweep, Payload: &sweepTask{measure: measure}})
	}
	captured := res.Captured
	for _, sv := range pq.selViews {
		if !d.backoff.allowed(sv.vc.id) {
			continue
		}
		tasks = append(tasks, &maintain.Task{
			Kind:     maintain.KindMaterialize,
			Priority: sv.value,
			Payload: &matViewTask{
				sv: sv, captured: captured[sv.vc.node], capturedBytes: res.CapturedBytes[sv.vc.node],
				baseCounts: pq.baseCounts,
			},
		})
	}
	for _, fc := range pq.selFrags {
		if !d.backoff.allowed(fc.viewID) {
			continue
		}
		kind := maintain.KindSplit
		var rows *relation.Table
		if fc.fromGap {
			// Gap recoveries are materializations of fresh ranges, not
			// rewrites of existing fragments: they carry their captured
			// rows and rank in the materialize band.
			kind = maintain.KindMaterialize
			rows = captured[fc.gapNode]
		}
		tasks = append(tasks, &maintain.Task{
			Kind:     kind,
			Priority: fc.value,
			Payload:  &matFragTask{fc: fc, captured: rows, baseCounts: pq.baseCounts},
		})
	}
	if d.Cfg.MergeFragments && pq.bestRW != nil && pq.bestRW.PartAttr != "" {
		tasks = append(tasks, &maintain.Task{
			Kind:    maintain.KindMerge,
			Payload: &mergeTask{rw: pq.bestRW},
		})
	}
	if len(pq.evict) > 0 {
		tasks = append(tasks, &maintain.Task{Kind: maintain.KindSweep, Payload: &sweepTask{evict: pq.evict}})
	}
	return tasks
}

// enqueueTasks is the driver choice. In background mode it pushes the
// tasks to the worker pool and reports how many were accepted (a
// duplicate key or a full queue rejects). In inline mode it does nothing
// and reports ok=false: the caller applies the tasks itself.
func (d *DeepSea) enqueueTasks(tasks []*maintain.Task) (accepted int, ok bool) {
	if !d.Cfg.background() {
		return 0, false
	}
	for _, t := range tasks {
		if d.maint.Push(t) {
			accepted++
		}
	}
	return accepted, true
}

// applyMaintBatch is the worker driver: it commits one drain cycle. All
// pool mutations of the batch happen under a single acquisition of mu,
// followed by one GC of the batch's views and one clock advance.
func (d *DeepSea) applyMaintBatch(batch []*maintain.Task) {
	seen := make(map[string]bool)
	var ids []string
	for _, t := range batch {
		for _, id := range maintTaskViews(t) {
			if id == "" || seen[id] {
				continue
			}
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)

	d.mu.Lock()
	if d.OnMaintain != nil {
		d.OnMaintain(ids, true)
	}
	var out maintOutcome
	for _, t := range batch {
		t.Err = d.applyMaintTask(t, &out)
	}
	d.Pool.GCViews(ids...)
	if out.cost.Seconds > 0 {
		// Charge the cycle's work to the clock while mu is held.
		d.Eng.Advance(out.cost.Seconds)
	}
	if d.OnMaintain != nil {
		d.OnMaintain(ids, false)
	}
	d.mu.Unlock()
}

// applyQueryTasks is the synchronous driver for a finishing query: it
// applies the query's own task list in order (the caller holds mu).
// Materialization is a best-effort side effect: an
// injected fault was charged, recorded against the view's backoff and
// listed in out.matFailed by the apply — the query itself never fails
// because of it. Non-fault errors are logic bugs and propagate.
func (d *DeepSea) applyQueryTasks(pq *plannedQuery, tasks []*maintain.Task, out *maintOutcome) error {
	for _, t := range tasks {
		if mv, ok := t.Payload.(*matViewTask); ok {
			mv.usedByQuery = pq.bestRW != nil && pq.bestRW.ViewID == mv.sv.vc.id
		}
		if err := d.applyMaintTask(t, out); err != nil {
			if _, injected := faults.AsFault(err); !injected {
				return err
			}
		}
	}
	// GC only the views this query touched: emptying a view requires
	// mutating it, and every mutation above stayed inside maintViews.
	d.Pool.GCViews(pq.maintViews...)
	return nil
}

// applyEach is the synchronous driver for tasks no finishing query
// owns (an Append's refreshes, the pending retries): one acquisition of
// mu per task, so a planner never waits behind the whole list. Caller
// does not hold mu.
func (d *DeepSea) applyEach(tasks []*maintain.Task, out *maintOutcome) {
	for _, t := range tasks {
		d.mu.Lock()
		t.Err = d.applyMaintTask(t, out)
		d.mu.Unlock()
	}
}

// applyPending is inline mode's retry step: the caller takes what the
// worker-less pool holds right now — refreshes an earlier synchronous
// apply left still-stale — and applies it. Tasks re-enqueued during the
// apply (a refresh that comes out still-stale again) wait for the next
// caller, so nothing spins. Every finishing query and every Append calls
// it with mu released. In background mode the workers own the queue and
// this takes nothing.
func (d *DeepSea) applyPending(out *maintOutcome) {
	batch := d.maint.Take()
	if len(batch) == 0 {
		return
	}
	start := time.Now()
	d.applyEach(batch, out)
	d.maint.Done(batch, time.Since(start))
}

// applyMaintTask applies one task; the driver holds mu. It is the one
// apply site of every task kind. A stale task — its view or partition
// left the pool since it was built — is skipped silently; injected
// faults feed the owning view's backoff and come back as the task's
// error without affecting any query. What the task did, and what it
// cost, accumulates in out.
func (d *DeepSea) applyMaintTask(t *maintain.Task, out *maintOutcome) error {
	switch p := t.Payload.(type) {
	case *matViewTask:
		return d.applyMatView(p, out)
	case *matFragTask:
		return d.applyMatFrag(p, out)
	case *mergeTask:
		cost, merged, err := d.maybeMergeFragments(p.rw)
		out.cost.Add(cost)
		out.merged = append(out.merged, merged...)
		return d.noteMatFault(p.rw.ViewID, err, out)
	case *sweepTask:
		for _, m := range p.measure {
			vs := d.Stats.View(m.id)
			if !vs.Measured {
				vs.Size = m.bytes
				d.journalVStat(vs)
			}
		}
		// Items already gone are skipped.
		for _, item := range p.evict {
			if d.evict(item) {
				out.evicted = append(out.evicted, item.Key())
			}
		}
		return nil
	case *refreshTask:
		// A still-stale outcome re-enqueued a retry inside
		// applyRefreshLocked.
		cost, outcome := d.applyRefreshLocked(p.viewID)
		out.cost.Add(cost)
		switch outcome {
		case refreshApplied:
			out.refreshed = append(out.refreshed, p.viewID)
		case refreshDropped:
			out.dropped = append(out.dropped, p.viewID)
		}
		return nil
	}
	return fmt.Errorf("core: unknown maintenance payload %T", t.Payload)
}

// noteMatFault records an injected fault in a materialization attempt
// against the view's backoff (bounded retries, then blacklist) and in
// out.matFailed. It returns err unchanged.
func (d *DeepSea) noteMatFault(viewID string, err error, out *maintOutcome) error {
	if f, ok := faults.AsFault(err); ok {
		d.backoff.noteFailure(viewID, f.Permanent)
		out.matFailed = append(out.matFailed, viewID)
	}
	return err
}

func (d *DeepSea) applyMatView(p *matViewTask, out *maintOutcome) error {
	id := p.sv.vc.id
	if !d.backoff.allowed(id) {
		return nil
	}
	cost, created, err := d.materializeView(p)
	out.cost.Add(cost)
	if err != nil {
		return d.noteMatFault(id, err, out)
	}
	if created {
		d.backoff.noteSuccess(id)
		out.matViews = append(out.matViews, id)
	}
	return nil
}

func (d *DeepSea) applyMatFrag(p *matFragTask, out *maintOutcome) error {
	fc := p.fc
	if !d.backoff.allowed(fc.viewID) {
		return nil
	}
	// Stale guard: the candidate was selected against the pool as it
	// stood at planning; its view or partition may have left since (an
	// eviction or a drop between enqueue and drain).
	pv := d.Pool.View(fc.viewID)
	if pv == nil || pv.Parts[fc.attr] == nil {
		return nil
	}
	cost, created, err := d.materializeFrag(fc, p.captured, p.baseCounts)
	out.cost.Add(cost)
	if err != nil {
		return d.noteMatFault(fc.viewID, err, out)
	}
	if len(created) > 0 {
		d.backoff.noteSuccess(fc.viewID)
	}
	for _, iv := range created {
		out.matFrags = append(out.matFrags, fmt.Sprintf("%s.%s%s", shortID(fc.viewID), fc.attr, iv))
	}
	return nil
}

// DrainMaintenance blocks until every queued background maintenance
// task (including tasks re-enqueued while draining) has been applied.
// Returns at once in inline mode, where callers apply their own
// maintenance. Returns ctx.Err() if the context expires first.
func (d *DeepSea) DrainMaintenance(ctx context.Context) error {
	return d.maint.Drain(ctx)
}

// CloseMaintenance stops the background workers after the queue
// empties. Idempotent. Call before Snapshot on shutdown so the
// checkpoint includes every applied task.
func (d *DeepSea) CloseMaintenance() { d.maint.Close() }

// MaintStats returns the maintenance pool's counter snapshot. In inline
// mode only refresh retries pass through the pool.
func (d *DeepSea) MaintStats() maintain.Stats { return d.maint.Stats() }
