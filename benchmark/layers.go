package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"deepsea/internal/core"
	"deepsea/internal/engine"
	"deepsea/internal/ingest"
	"deepsea/internal/server"
	"deepsea/internal/shard"
)

const (
	probeRounds = 200 // timed repetitions of each direct-call probe
	spinRounds  = 5
)

// runTraced is the --trace 1 run: every per-layer metric. One caller
// replays a fixed number of ops (so counters repeat exactly for a seed)
// twice — tracing off, then on; their ratio is the tracing overhead —
// and the same plans replay once more directly against core.New with
// its planning and maintenance hooks set. All spans come from this
// package's wrappers around public calls; see README.md for the list.
func runTraced(ctx context.Context, d *workloadDef, seed int64, secs float64, outDir string) (*result, error) {
	dir, err := os.MkdirTemp(outDir, "trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res := &result{Metrics: map[string]metric{}}

	nReads := int(d.tracedOps * secs)
	nAppends := int(float64(nReads) * d.appendRate / d.readRate)
	nLate := int(d.readRate * secs * 0.1)
	script := func(p *prepared) []*op {
		return traceScript(d, take(&p.reads, nReads), take(&p.appends, nAppends))
	}

	// Untraced pass. A short open loop precedes it, to see how late the
	// generator sends at this workload's rate; the traced pass replays
	// the same reads in its place so both passes meet the same pool.
	p, err := setUp(ctx, d, seed, dir, nil, nLate+nReads+quietReads, nAppends)
	if err != nil {
		return nil, err
	}
	lateOps := take(&p.reads, nLate)
	late := runOpen(ctx, p.client, pace(lateOps, d.readRate), callers, p.ids(nLate), 0)
	ops := script(p)
	plain := runClosed(ctx, p.client, ops, 1, 0, p.ids(len(ops)), 0)
	p.close()
	if ctx.Err() != nil {
		return nil, errInterrupted
	}
	res.count(late, plain)
	logf("untraced pass: %d ops in %.2fs", len(ops), plain.elapsed.Seconds())

	// Traced pass.
	tr := newTracer()
	if p, err = setUp(ctx, d, seed, dir, tr, nLate+nReads+quietReads, nAppends); err != nil {
		return nil, err
	}
	defer p.close()
	lateOps = take(&p.reads, nLate)
	res.count(runOpen(ctx, p.client, pace(lateOps, d.readRate), callers, p.ids(nLate), 0))
	ops = script(p)
	before, err := readCounters(p.env)
	if err != nil {
		return nil, err
	}
	firstID := p.ids(len(ops))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	traced := runClosed(ctx, p.client, ops, 1, 0, firstID, sampleEvery)
	runtime.ReadMemStats(&m1)
	if ctx.Err() != nil {
		return nil, errInterrupted
	}
	after, err := readCounters(p.env)
	if err != nil {
		return nil, err
	}
	res.count(traced)
	logf("traced pass: %d ops in %.2fs", len(ops), traced.elapsed.Seconds())
	tr.mu.Lock()
	spans := tr.spans
	tr.spans = nil
	tr.mu.Unlock()
	link(spans)
	if err := writeSpans(filepath.Join(outDir, "trace-"+d.name+".jsonl"), spans); err != nil {
		return nil, err
	}

	var kept []answer
	if nAppends == 0 {
		kept = traced.answers // among appends an answer has no one expected value
	}
	o, err := verify(ctx, p, d, res, traced.acked, kept)
	if err != nil {
		return nil, err
	}
	var rec restarted
	if d.journal {
		if rec, err = restart(ctx, p, d, o, res, append(p.warmed, traced.acked...)); err != nil {
			return nil, err
		}
	}

	spanMetrics(res, spans, firstID, traced.elapsed)
	counterMetrics(res, before, after, rec)
	if err := probeMetrics(ctx, res, p.env, ops, traced.answers, tr); err != nil {
		return nil, err
	}
	logf("verified and probed")
	if err := replayCore(ctx, res, d, seed, nLate+nReads, nAppends); err != nil {
		return nil, err
	}
	logf("core replay done")

	nOps := float64(len(ops))
	res.set("runtime.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/nOps, "count")
	res.set("runtime.alloc_kb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/nOps, "KB")
	res.set("runtime.gc_cpu_fraction", m1.GCCPUFraction, "ratio")
	res.set("runtime.host_spin_ms", hostSpinMS(), "ms")
	res.set("runtime.open_late_ms_p95", late.late.ms(0.95), "ms")
	// The open loop's read latency from the due time, untraced, at the
	// workload's frozen rate. It has no bound: over repeated runs its
	// spread exceeds any bound a metric may have (README.md, "Unresolved
	// metrics"), so it is kept here, where a change can still be seen.
	res.set("open.read_ms_p50", late.reads.ms(0.50), "ms")
	res.set("open.read_ms_p95", late.reads.ms(0.95), "ms")
	res.set("trace.overhead_ratio", traced.elapsed.Seconds()/plain.elapsed.Seconds(), "ratio")
	res.Correct = res.Failed == 0
	return res, nil
}

// traceScript is the single caller's op sequence: the open loop's
// timetable, in due order.
func traceScript(d *workloadDef, reads, appends []*op) []*op {
	sched := schedule(d, reads, appends)
	ops := make([]*op, len(sched))
	for i := range sched {
		ops[i] = sched[i].op
	}
	return ops
}

// hostSpinMS times a fixed CPU-bound loop (the median of a few runs),
// so numbers from different hosts can be put side by side.
func hostSpinMS() float64 {
	times := make([]float64, spinRounds)
	for i := range times {
		t0 := time.Now()
		x := uint64(1)
		for j := 0; j < 20_000_000; j++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		spinSink = x
		times[i] = float64(time.Since(t0)) / 1e6
	}
	sort.Float64s(times)
	return times[len(times)/2]
}

var spinSink uint64

// spanMetrics derives the layers' timings from the traced pass's spans
// (warm-up spans, with ids below firstID, are left out).
func spanMetrics(res *result, spans []span, firstID int64, elapsed time.Duration) {
	self := selfTimes(spans)
	byName := make(map[string]*hist)
	selfByName := make(map[string]*hist)
	clientDur := make(map[int64]int64)
	rootDur := make(map[int64]int64)
	var storeBusy int64
	for i, s := range spans {
		if s.Op < firstID {
			continue
		}
		h, hs := byName[s.Name], selfByName[s.Name]
		if h == nil {
			h, hs = &hist{}, &hist{}
			byName[s.Name], selfByName[s.Name] = h, hs
		}
		h.add(time.Duration(s.End - s.Start))
		hs.add(time.Duration(self[i]))
		switch {
		case s.Name == "client/query":
			clientDur[s.Op] = s.End - s.Start
		case s.Parent >= 0 && spans[s.Parent].Name == "client/query":
			rootDur[s.Op] += s.End - s.Start
		case s.Name == "datastore.append":
			storeBusy += s.End - s.Start
		}
	}
	var transport hist
	for op, c := range clientDur {
		if r, ok := rootDur[op]; ok && c >= r {
			transport.add(time.Duration(c - r))
		}
	}
	res.set("server.handler_ms_p50", byName["server.handler/query"].at(0.50, perMS), "ms")
	res.set("server.handler_ms_p95", byName["server.handler/query"].at(0.95, perMS), "ms")
	res.set("server.append_handler_ms_p50", byName["server.handler/append"].at(0.50, perMS), "ms")
	res.set("server.transport_ms_p50", transport.at(0.50, perMS), "ms")
	res.set("shard.handler_ms_p50", byName["shard.handler/query"].at(0.50, perMS), "ms")
	res.set("shard.handler_ms_p95", byName["shard.handler/query"].at(0.95, perMS), "ms")
	res.set("shard.self_ms_p50", selfByName["shard.handler/query"].at(0.50, perMS), "ms")
	res.set("shard.subquery_ms_p50", byName["shard.subquery/query"].at(0.50, perMS), "ms")
	res.set("shard.subquery_ms_p95", byName["shard.subquery/query"].at(0.95, perMS), "ms")
	res.set("shard.append_route_ms_p50", byName["shard.handler/append"].at(0.50, perMS), "ms")
	res.set("datastore.append_us_p50", byName["datastore.append"].at(0.50, perUS), "us")
	res.set("datastore.append_us_p95", byName["datastore.append"].at(0.95, perUS), "us")
	res.set("datastore.busy_ratio", float64(storeBusy)/float64(elapsed), "ratio")
}

// counters is what the system's own health surfaces count: core.Health
// summed over every node, each server's /statz, and the coordinator's.
type counters struct {
	h     core.Health
	serve server.ServingStats
	coord struct {
		Queries   float64 `json:"queries"`
		Scattered float64 `json:"scattered"`
		Failovers float64 `json:"failovers"`
		Hedges    float64 `json:"hedges"`
		HedgeWins float64 `json:"hedge_wins"`
		Shards    []struct {
			HeatShare float64 `json:"heat_share"`
		} `json:"shards"`
	}
	maintWait, maintRun float64 // seconds, summed over completed tasks
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func readCounters(e *env) (*counters, error) {
	c := &counters{}
	for _, n := range e.nodes {
		h := n.sys.Health()
		c.h.Queries += h.Queries
		c.h.PlanAcquisitions += h.PlanAcquisitions
		c.h.PoolBytes += h.PoolBytes
		c.h.PoolFragments += h.PoolFragments
		c.h.CacheHits += h.CacheHits
		c.h.CacheMisses += h.CacheMisses
		c.h.CacheEvictions += h.CacheEvictions
		c.h.CacheInvalidations += h.CacheInvalidations
		c.h.CacheAdmissionRejects += h.CacheAdmissionRejects
		c.h.CacheBytes += h.CacheBytes
		c.h.CacheCapacity += h.CacheCapacity
		c.h.MaintEnqueued += h.MaintEnqueued
		c.h.MaintCompleted += h.MaintCompleted
		c.h.MaintDeduped += h.MaintDeduped
		c.h.MaintDropped += h.MaintDropped
		c.h.IngestAppendedRows += h.IngestAppendedRows
		c.h.JournalRecords += h.JournalRecords
		c.h.JournalBytes += h.JournalBytes
		for _, k := range h.MaintKinds {
			c.maintWait += k.AvgWaitSeconds * float64(k.Completed)
			c.maintRun += k.AvgRunSeconds * float64(k.Completed)
		}
		var st struct {
			Serving server.ServingStats `json:"serving"`
		}
		if err := getJSON(n.url+"/statz", &st); err != nil {
			return nil, err
		}
		c.serve.Served += st.Serving.Served
		c.serve.Shed += st.Serving.Shed
		c.serve.Appends += st.Serving.Appends
		c.serve.AppendBatches += st.Serving.AppendBatches
	}
	if e.coord != nil {
		if err := getJSON(e.url+"/statz", &c.coord); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterMetrics reports what the health surfaces counted during the
// traced pass (after minus before) and a few end-of-pass gauges.
func counterMetrics(res *result, b, a *counters, rec restarted) {
	f := func(x uint64) float64 { return float64(x) }
	queries := f(a.h.Queries - b.h.Queries)
	hits, misses := float64(a.h.CacheHits-b.h.CacheHits), float64(a.h.CacheMisses-b.h.CacheMisses)
	res.set("cache.hit_ratio", ratio(hits, hits+misses), "ratio")
	res.set("cache.invalidations_per_query", ratio(float64(a.h.CacheInvalidations-b.h.CacheInvalidations), queries), "count")
	res.set("cache.evictions", float64(a.h.CacheEvictions-b.h.CacheEvictions), "count")
	res.set("cache.admission_rejects", float64(a.h.CacheAdmissionRejects-b.h.CacheAdmissionRejects), "count")
	res.set("cache.bytes_ratio", ratio(float64(a.h.CacheBytes), float64(a.h.CacheCapacity)), "ratio")

	served, shed := f(a.serve.Served-b.serve.Served), f(a.serve.Shed-b.serve.Shed)
	res.set("server.shed_ratio", ratio(shed, served+shed), "ratio")
	res.set("server.plan_amortization", ratio(queries, f(a.h.PlanAcquisitions-b.h.PlanAcquisitions)), "ratio")
	res.set("server.append_coalesce_ratio", ratio(f(a.serve.Appends-b.serve.Appends), f(a.serve.AppendBatches-b.serve.AppendBatches)), "ratio")

	done := f(a.h.MaintCompleted - b.h.MaintCompleted)
	enq := f(a.h.MaintEnqueued - b.h.MaintEnqueued)
	res.set("maintain.completed", done, "count")
	res.set("maintain.dropped_ratio", ratio(f(a.h.MaintDropped-b.h.MaintDropped), enq), "ratio")
	res.set("maintain.deduped_ratio", ratio(f(a.h.MaintDeduped-b.h.MaintDeduped), enq), "ratio")
	res.set("maintain.queue_wait_ms_mean", 1e3*ratio(a.maintWait-b.maintWait, done), "ms")
	res.set("maintain.apply_ms_mean", 1e3*ratio(a.maintRun-b.maintRun, done), "ms")

	cq := a.coord.Queries - b.coord.Queries
	scattered := a.coord.Scattered - b.coord.Scattered
	res.set("shard.fanout_per_query", ratio(scattered, cq), "count")
	res.set("shard.hedge_ratio", ratio(a.coord.Hedges-b.coord.Hedges, scattered), "ratio")
	res.set("shard.hedge_win_ratio", ratio(a.coord.HedgeWins-b.coord.HedgeWins, a.coord.Hedges-b.coord.Hedges), "ratio")
	res.set("shard.failovers", a.coord.Failovers-b.coord.Failovers, "count")
	var hottest float64
	for _, s := range a.coord.Shards {
		if s.HeatShare > hottest {
			hottest = s.HeatShare
		}
	}
	res.set("shard.heat_imbalance", hottest*float64(len(a.coord.Shards)), "ratio")

	rows := f(a.h.IngestAppendedRows - b.h.IngestAppendedRows)
	res.set("ingest.rows_per_batch", ratio(rows, f(a.serve.AppendBatches-b.serve.AppendBatches)), "rows")
	res.set("datastore.records_per_append_row", ratio(f(a.h.JournalRecords-b.h.JournalRecords), rows), "count")
	res.set("datastore.journal_bytes_per_row", ratio(float64(a.h.JournalBytes-b.h.JournalBytes), rows), "B")
	res.set("datastore.recover_records_per_s", ratio(float64(rec.records), rec.seconds), "1/s")
}

// probeMetrics times direct calls into single layers with inputs taken
// from the traced pass: the server's decode and encode steps, the
// append decoder, exact partial-sum encode and merge, and the
// coordinator's partial-state merge over subquery bodies the traced
// transport captured.
func probeMetrics(ctx context.Context, res *result, e *env, ops []*op, answers []answer, tr *tracer) error {
	sys := e.nodes[0].sys
	var reads, appends []*op
	for _, o := range ops {
		if o.path == "/query" {
			reads = append(reads, o)
		} else {
			appends = append(appends, o)
		}
	}
	var decode, encode, ingestDecode, penc, pmerge, merge hist
	for i := 0; i < probeRounds && len(reads) > 0 && ctx.Err() == nil; i++ {
		o := reads[i%len(reads)]
		t0 := time.Now()
		var spec server.QuerySpec
		if err := json.Unmarshal(o.body, &spec); err != nil {
			return err
		}
		q, err := spec.Build()
		if err != nil {
			return err
		}
		if _, err := sys.TemplateKey(q); err != nil {
			return err
		}
		decode.add(time.Since(t0))
	}
	for i := 0; i < probeRounds && len(answers) > 0; i++ {
		var qr server.QueryResponse
		if err := json.Unmarshal(answers[i%len(answers)].body, &qr); err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := json.Marshal(qr); err != nil {
			return err
		}
		encode.add(time.Since(t0))
	}
	for i := 0; i < probeRounds && len(appends) > 0; i++ {
		t0 := time.Now()
		if _, err := ingest.DecodeSpec(bytes.NewReader(appends[i%len(appends)].body)); err != nil {
			return err
		}
		ingestDecode.add(time.Since(t0))
	}
	r := rand.New(rand.NewSource(1))
	vals := make([]float64, appendRows)
	for i := range vals {
		vals[i] = float64(r.Intn(50000)) / 100
	}
	for i := 0; i < probeRounds; i++ {
		t0 := time.Now()
		a := engine.EncodePartialSum(vals[:appendRows/2]...)
		b := engine.EncodePartialSum(vals[appendRows/2:]...)
		t1 := time.Now()
		if _, _, err := engine.MergePartialSums(a, b); err != nil {
			return err
		}
		penc.add(t1.Sub(t0) / 2)
		pmerge.add(time.Since(t1))
	}
	for _, parts := range tr.scatterBodies(e.def.groups) {
		var cols []string
		var rows [][][]any
		for _, body := range parts {
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.UseNumber()
			var wire struct {
				Columns []string `json:"columns"`
				Rows    [][]any  `json:"rows"`
			}
			if err := dec.Decode(&wire); err != nil {
				return err
			}
			if cols != nil && !slices.Equal(cols, wire.Columns) {
				// A hedge's late answer from the previous operation.
				cols = nil
				break
			}
			cols, rows = wire.Columns, append(rows, wire.Rows)
		}
		if cols == nil {
			continue
		}
		t0 := time.Now()
		if _, _, err := shard.MergePartials(cols, rows); err != nil {
			return fmt.Errorf("merge captured partials: %w", err)
		}
		merge.add(time.Since(t0))
	}
	res.set("server.decode_us_p50", decode.at(0.5, perUS), "us")
	res.set("server.encode_us_p50", encode.at(0.5, perUS), "us")
	res.set("ingest.decode_us_p50", ingestDecode.at(0.5, perUS), "us")
	res.set("engine.partial_encode_ns", penc.at(0.5, perNS), "ns")
	res.set("engine.partial_merge_ns", pmerge.at(0.5, perNS), "ns")
	res.set("shard.merge_us_p50", merge.at(0.5, perUS), "us")
	return nil
}
