package core

import (
	"context"
	"sync"

	"deepsea/internal/faults"
	"deepsea/internal/lockcheck"
	"deepsea/internal/query"
)

// BatchItem is one query of a batch, with its own context: items keep
// independent deadlines and cancellation even when planned together.
type BatchItem struct {
	Ctx   context.Context // nil means context.Background()
	Query query.Node
}

// ProcessBatchContext processes the items as one planning batch: every
// live item runs Algorithm 1 steps 1–7 back-to-back under a single
// acquisition of the planning lock, then all items execute and maintain
// concurrently exactly as independent ProcessQueryContext calls would.
// The result and error slices are index-aligned with items.
//
// Correctness is inherited from the concurrent schedule it imitates: a
// batch is indistinguishable from n queries whose planning sections
// happened to run back-to-back before any of them executed — a legal
// interleaving of the existing model. Later items plan against the pool
// state left by earlier items' planning (not their maintenance), and
// the maintenance section's re-validation (pins, cover checks,
// idempotent pool mutations) already handles plans built against an
// older pool. Results are byte-identical to serial processing because
// view rewrites are exact.
//
// What batching buys is the serving layer's plan amortization: a burst
// of same-template queries pays one planning-lock acquisition instead
// of one per query (observable via PlanAcquisitions).
//
// Cache hits and already-cancelled items are settled before planning.
// An item whose execution hits a recoverable fault falls back to the
// standard per-query retry loop, which re-plans it from scratch.
func (d *DeepSea) ProcessBatchContext(items []BatchItem) ([]QueryReport, []error) {
	reports := make([]QueryReport, len(items))
	errs := make([]error, len(items))

	type liveItem struct {
		idx int
		ctx context.Context
		key string
		pq  *plannedQuery
	}
	var live []*liveItem
	for i, it := range items {
		ctx := it.Ctx
		if ctx == nil {
			ctx = context.Background()
		}
		if err := ctx.Err(); err != nil {
			errs[i] = err
			continue
		}
		d.queries.Add(1)
		var key string
		if d.Cache != nil && d.Cfg.ExecuteRows {
			key = d.cacheKey(it.Query)
			if tbl, ok := d.Cache.Get(key, d.Pool.GenFn()); ok {
				reports[i] = QueryReport{Result: tbl, CacheHit: true}
				continue
			}
		}
		live = append(live, &liveItem{idx: i, ctx: ctx, key: key})
	}
	if len(live) == 0 {
		return reports, errs
	}
	d.inflight.Add(int64(len(live)))

	// settle finishes one live item on its own goroutine: execution,
	// maintenance, and the recoverable-fault fallback.
	var wg sync.WaitGroup
	settle := func(l *liveItem) {
		defer wg.Done()
		defer d.inflight.Add(-1)
		q := items[l.idx].Query
		if l.pq == nil {
			// Not planned as part of the batch (the vanilla-engine
			// configuration has no planning section): full per-query path.
			reports[l.idx], errs[l.idx] = d.processWithRetries(l.ctx, q, l.key, nil)
			return
		}
		rep, quar, err := d.finishPlanned(l.ctx, l.pq)
		if err == nil {
			rep.Quarantined = quar
			reports[l.idx] = rep
			return
		}
		if ctxErr := l.ctx.Err(); ctxErr != nil {
			errs[l.idx] = ctxErr
			return
		}
		if f, ok := faults.AsFault(err); ok &&
			(f.Site == faults.StorageRead || (f.Site == faults.Worker && !f.Permanent)) {
			// Same recoverable faults ProcessQueryContext retries; the
			// fallback re-plans from scratch (its own lock acquisition) and
			// carries the batch attempt's quarantines and retry count.
			rep, rerr := d.processWithRetries(l.ctx, q, l.key, quar)
			if rerr == nil {
				rep.Retries++
				reports[l.idx] = rep
				return
			}
			errs[l.idx] = rerr
			return
		}
		errs[l.idx] = err
	}

	if !d.Cfg.Materialize {
		for _, l := range live {
			wg.Add(1)
			go settle(l)
		}
		wg.Wait()
		return reports, errs
	}

	// One planning-lock acquisition for the whole batch: steps 1–7 for
	// every live item, back-to-back, under planMu with all view stripes
	// shared. Each item pins the paths its plan reads before the locks
	// drop, exactly like the single-query path.
	lockcheck.Acquire(lockcheck.RankPlan, 0, "planMu")
	d.planAcq.Add(1)
	d.planMu.Lock()
	d.views.rlockAll()
	for _, l := range live {
		pq, err := d.planLocked(items[l.idx].Query, l.key, nil)
		if err != nil {
			errs[l.idx] = err
			continue
		}
		l.pq = pq
	}
	d.views.runlockAll()
	d.planMu.Unlock()
	lockcheck.Release(lockcheck.RankPlan, 0, "planMu")

	for _, l := range live {
		if l.pq != nil && d.OnPlanned != nil {
			d.OnPlanned(l.pq.lockIDs)
		}
	}
	for _, l := range live {
		if errs[l.idx] != nil {
			// Planning failed; nothing to execute.
			d.inflight.Add(-1)
			continue
		}
		wg.Add(1)
		go settle(l)
	}
	wg.Wait()
	return reports, errs
}
