package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"deepsea/internal/core"
	"deepsea/internal/interval"
	"deepsea/internal/matching"
	"deepsea/internal/query"
	"deepsea/internal/relation"
	"deepsea/internal/workload"
)

const (
	// The core replay times ComputeRewritings before about matchSamples
	// of its reads and runs the bare plan of about engineSamples of them
	// over base tables, evenly spread; more would make the replay of a
	// long, cheap trace mostly probes.
	matchSamples  = 256
	engineSamples = 64
)

// coreHooks turns core.DeepSea's OnPlanned/OnMaintain callbacks into
// per-query stage boundaries. Inline maintenance runs on the calling
// goroutine; background maintenance on a worker, hence the lock.
type coreHooks struct {
	mu       sync.Mutex
	planned  time.Time // end of the current query's planning; zero on a cache hit
	entered  time.Time // start of the maintenance section in progress
	execEnd  time.Time // inline mode: when the query's execution ended
	maintain hist
}

func (h *coreHooks) onPlanned([]string) {
	h.mu.Lock()
	h.planned = time.Now()
	h.mu.Unlock()
}

func (h *coreHooks) onMaintain(_ []string, enter bool) {
	now := time.Now()
	h.mu.Lock()
	if enter {
		h.entered, h.execEnd = now, now
	} else {
		h.maintain.add(now.Sub(h.entered))
	}
	h.mu.Unlock()
}

func toRows(rows [][]any) ([]relation.Row, error) {
	out := make([]relation.Row, len(rows))
	for i, r := range rows {
		row := make(relation.Row, len(r))
		for j, v := range r {
			switch x := v.(type) {
			case int64:
				row[j] = relation.IntVal(x)
			case float64:
				row[j] = relation.FloatVal(x)
			case string:
				row[j] = relation.StringVal(x)
			default:
				return nil, fmt.Errorf("append row %d col %d: unsupported %T", i, j, v)
			}
		}
		out[i] = row
	}
	return out, nil
}

// replayCore replays the traced pass's plans (workload.Data.Query)
// against a core.DeepSea built from the workload's own options, with no
// server, cache-key or HTTP work around it, and reports where a query's
// time goes inside the view manager, what the matcher and the bare
// engine cost on the pool that results, and the paper's own metric —
// simulated seconds per query. After each query the background
// maintenance queue, if any, is drained, so every counter here repeats
// exactly for a seed.
func replayCore(ctx context.Context, res *result, d *workloadDef, seed int64, nReads, nAppends int) error {
	data := workload.Generate(d.gb, seed, nil)
	cfg := core.DefaultConfig()
	for _, opt := range d.systemOptions(data, nil) {
		opt(&cfg)
	}
	ds := core.New(cfg)
	defer ds.CloseMaintenance()
	hooks := &coreHooks{}
	ds.OnPlanned, ds.OnMaintain = hooks.onPlanned, hooks.onMaintain
	names := make([]string, 0, len(data.Tables))
	for name := range data.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ds.AddBaseTable(data.Tables[name])
	}
	rw := &matching.Rewriter{Eng: ds.Eng, Pool: ds.Pool, Stats: ds.Stats, Tree: ds.Tree}

	reads := d.reads(seed, d.warmup+nReads)
	warm := append(distinctPairs(reads), reads[:d.warmup]...) // as setUp warms
	var appends []*op
	if d.appendRate > 0 {
		appends = appendOps(data, d.tables, seed, warmAppends+nAppends)
		warm = append(warm, take(&appends, warmAppends)...)
	}
	script := traceScript(d, reads[d.warmup:], appends)

	matchEvery, engineEvery := max(1, nReads/matchSamples), max(1, nReads/engineSamples)
	var run, plan, exec, appendLat, rewrite, baseExec hist
	var nQueries, rewritten, frags, gaps, materialized, evicted int
	var rewritings, usable, matchCalls int
	var simSeconds, baseRows, baseSeconds float64
	var baseAllocs, baseBytes uint64
	var m0, m1 runtime.MemStats

	step := func(o *op, measured bool, i int) error {
		if o.path == "/append" {
			rows, err := toRows(o.rows)
			if err != nil {
				return err
			}
			t0 := time.Now()
			if _, err := ds.Append(o.table, rows); err != nil {
				return fmt.Errorf("core replay: append: %w", err)
			}
			if measured {
				appendLat.add(time.Since(t0))
			}
			return ds.DrainMaintenance(ctx)
		}
		node := data.Query(o.tpl, interval.New(o.lo, o.hi))
		if measured && i%matchEvery == 0 {
			t0 := time.Now()
			rws, _, err := rw.ComputeRewritings(node)
			if err != nil {
				return fmt.Errorf("core replay: rewritings: %w", err)
			}
			rewrite.add(time.Since(t0))
			matchCalls++
			rewritings += len(rws)
			for _, r := range rws {
				if r.UsesPool {
					usable++
				}
			}
		}
		if measured && i%engineEvery == 0 {
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			if _, err := ds.Eng.RunContext(ctx, node, nil); err != nil {
				return fmt.Errorf("core replay: base execution: %w", err)
			}
			el := time.Since(t0)
			runtime.ReadMemStats(&m1)
			baseExec.add(el)
			baseSeconds += el.Seconds()
			baseAllocs += m1.Mallocs - m0.Mallocs
			baseBytes += m1.TotalAlloc - m0.TotalAlloc
			for _, n := range ds.Eng.BaseCounts(query.BaseTables(node)) {
				baseRows += float64(n)
			}
		}
		hooks.mu.Lock()
		hooks.planned, hooks.execEnd = time.Time{}, time.Time{}
		hooks.mu.Unlock()
		t0 := time.Now()
		rep, err := ds.ProcessQueryContext(ctx, node)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("core replay: %s [%d,%d]: %w", o.tpl, o.lo, o.hi, err)
		}
		if measured {
			hooks.mu.Lock()
			planned, execEnd := hooks.planned, hooks.execEnd
			hooks.mu.Unlock()
			run.add(t1.Sub(t0))
			if !planned.IsZero() {
				if execEnd.IsZero() {
					execEnd = t1 // background mode: the query returns when execution ends
				}
				plan.add(planned.Sub(t0))
				exec.add(execEnd.Sub(planned))
			}
			nQueries++
			simSeconds += rep.TotalSeconds
			if rep.Rewritten {
				rewritten++
			}
			frags += rep.FragmentsRead
			gaps += rep.RemainderGaps
			materialized += len(rep.MaterializedViews) + len(rep.MaterializedFrags)
			evicted += len(rep.Evicted)
		}
		return ds.DrainMaintenance(ctx)
	}
	for i, o := range warm {
		if err := step(o, false, i); err != nil {
			return err
		}
	}
	hooks.mu.Lock()
	hooks.maintain = hist{}
	hooks.mu.Unlock()
	before := ds.IngestStats()
	nMeasuredAppends := 0
	for i, o := range script {
		if ctx.Err() != nil {
			return errInterrupted
		}
		if err := step(o, true, i); err != nil {
			return err
		}
		if o.path == "/append" {
			nMeasuredAppends++
		}
	}
	after := ds.IngestStats()
	h := ds.Health()

	nq, na := float64(nQueries), float64(nMeasuredAppends)
	hooks.mu.Lock()
	maintain := hooks.maintain
	hooks.mu.Unlock()
	res.set("core.run_ms_p50", run.at(0.50, perMS), "ms")
	res.set("core.run_ms_p95", run.at(0.95, perMS), "ms")
	res.set("core.plan_ms_p50", plan.at(0.50, perMS), "ms")
	res.set("core.plan_ms_p95", plan.at(0.95, perMS), "ms")
	res.set("core.exec_ms_p50", exec.at(0.50, perMS), "ms")
	res.set("core.exec_ms_p95", exec.at(0.95, perMS), "ms")
	res.set("core.maintain_ms_p50", maintain.at(0.50, perMS), "ms")
	res.set("core.maintain_ms_p95", maintain.at(0.95, perMS), "ms")
	res.set("core.exec_maintain_share", ratio(exec.sum+maintain.sum, run.sum), "ratio")
	res.set("core.rewritten_ratio", ratio(float64(rewritten), nq), "ratio")
	res.set("core.fragments_read_per_query", ratio(float64(frags), nq), "count")
	res.set("core.remainder_gaps_per_query", ratio(float64(gaps), nq), "count")
	res.set("core.materialized_per_query", ratio(float64(materialized), nq), "count")
	res.set("core.evicted_per_materialized", ratio(float64(evicted), float64(materialized)), "ratio")
	res.set("core.pool_fragments", float64(h.PoolFragments), "count")
	res.set("core.pool_bytes_ratio", ratio(float64(h.PoolBytes), float64(data.TotalBytes())), "ratio")
	res.set("core.sim_s_per_query", ratio(simSeconds, nq), "s")
	res.set("core.append_ms_p50", appendLat.at(0.50, perMS), "ms")
	refreshes := float64(after.Refreshes - before.Refreshes)
	res.set("core.refreshes_per_append", ratio(refreshes, na), "count")
	res.set("core.refresh_drop_ratio", ratio(float64(after.Drops-before.Drops), refreshes+float64(after.Drops-before.Drops)), "ratio")
	res.set("core.refresh_sim_s_per_append", ratio(after.RefreshSeconds-before.RefreshSeconds, na), "s")
	res.set("matching.rewritings_us_p50", rewrite.at(0.50, perUS), "us")
	res.set("matching.rewritings_us_p95", rewrite.at(0.95, perUS), "us")
	res.set("matching.rewritings_per_call", ratio(float64(rewritings), float64(matchCalls)), "count")
	res.set("matching.usable_ratio", ratio(float64(usable), float64(rewritings)), "ratio")
	res.set("matching.tree_entries", float64(ds.Tree.Len()), "count")
	res.set("engine.base_exec_ms_p50", baseExec.at(0.50, perMS), "ms")
	res.set("engine.base_exec_ms_p95", baseExec.at(0.95, perMS), "ms")
	res.set("engine.rows_per_s", ratio(baseRows, baseSeconds), "rows/s")
	res.set("engine.allocs_per_query", ratio(float64(baseAllocs), float64(baseExec.n)), "count")
	res.set("engine.alloc_kb_per_query", ratio(float64(baseBytes)/1024, float64(baseExec.n)), "KB")
	return nil
}
