package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"deepsea"
	"deepsea/internal/workload"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) count(phases ...*phase) {
	for _, p := range phases {
		r.Attempted += p.attempted
		r.Failed += p.failed
		for _, e := range p.errs {
			fmt.Fprintln(os.Stderr, "failed:", e)
		}
	}
}

const (
	setupRounds = 3 // set-ups per run; setup_s is their median
	warmAppends = 3 // one per fact table, so the first timed append is not the tables' first
	// closedHeadroom sizes the closed-loop trace: this many times the
	// open-loop rate, per second, is more than any commit gets through.
	closedHeadroom = 40
	// burstBatches is more 64-row batches than any commit lands in the burst.
	burstBatches = 4000
	// quietReads is how many fresh ranges a workload that appends and
	// never repeats a read is checked on once the appends have landed.
	quietReads = 64
	callers    = 2
)

// prepared is a workload set up and warm, ready for its first timed op.
type prepared struct {
	env     *env
	client  *client
	reads   []*op // not yet sent
	appends []*op // not yet sent
	warmed  []*op // appends acknowledged during warm-up
	pairs   []*op // the distinct pairs of a repeating workload, else nil
	nextID  int64
}

func (p *prepared) close() {
	p.client.close()
	p.env.close()
}

// take hands out the next n unsent ops of a list.
func take(list *[]*op, n int) []*op {
	if n > len(*list) {
		n = len(*list)
	}
	out := (*list)[:n]
	*list = (*list)[n:]
	return out
}

// ids reserves n operation ids.
func (p *prepared) ids(n int) int64 {
	first := p.nextID
	p.nextID += int64(n)
	return first
}

// setUp is everything before the first timed op: generate the data and
// the traces, load, boot, and replay the warm-up. A warm-up failure is
// an error: the run could not have measured anything.
func setUp(ctx context.Context, d *workloadDef, seed int64, dir string, tr *tracer, nReads, nAppends int) (*prepared, error) {
	e, err := boot(ctx, d, seed, filepath.Join(dir, "journal"), tr)
	if err != nil {
		return nil, err
	}
	p := &prepared{env: e, client: newClient(e.url, callers, tr)}
	p.reads = d.reads(seed, d.warmup+nReads)
	p.pairs = distinctPairs(p.reads)
	if d.appendRate > 0 {
		p.appends = appendOps(e.data, d.tables, seed, warmAppends+nAppends)
	}
	// A repeating workload meets every distinct pair once before its
	// Zipf-drawn warm-up, or the rare pairs' first misses would fall in
	// the timed phases and the run would time a cache filling up.
	warm := append(append([]*op(nil), p.pairs...), take(&p.reads, d.warmup)...)
	w := runClosed(ctx, p.client, warm, callers, 0, p.ids(len(warm)), 0)
	if d.appendRate > 0 {
		wa := take(&p.appends, warmAppends)
		a := runClosed(ctx, p.client, wa, 1, 0, p.ids(len(wa)), 0)
		w.failed += a.failed
		p.warmed = a.acked
	}
	switch {
	case ctx.Err() != nil:
		err = errInterrupted
	case w.failed > 0:
		err = fmt.Errorf("%s: %d warm-up operations failed", d.name, w.failed)
	}
	if err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// runTimed is the --trace 0 run: every end-to-end metric that applies
// to the workload, tracing off. The timed phases share --seconds: a
// closed loop and an open loop, half each; the journalled workload has
// no closed loop and follows its open loop (seven tenths) with an
// append-only burst and a restart. setups is how many set-ups it times
// (setupRounds, but one in the package's own smoke test); serial sends
// the appends of an open loop between reads instead of beside them.
func runTimed(ctx context.Context, d *workloadDef, seed int64, secs float64, outDir string, setups int, serial bool) (*result, error) {
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	closedSecs, openSecs, burstSecs := secs/2, secs/2, 0.0
	nBurst := 0
	if d.journal {
		closedSecs, openSecs, burstSecs = 0, 0.7*secs, 0.3*secs
		nBurst = burstBatches
	}
	nClosed := int(closedHeadroom * d.readRate * closedSecs)
	nOpen := int(d.readRate * openSecs)
	nPaced := int(d.appendRate * openSecs)
	setUpOnce := func() (*prepared, float64, error) {
		t0 := time.Now()
		p, err := setUp(ctx, d, seed, dir, nil, nClosed+nOpen+quietReads, nPaced+nBurst)
		return p, time.Since(t0).Seconds(), err
	}

	p, first, err := setUpOnce()
	if err != nil {
		return nil, err
	}
	defer func() { p.close() }()
	logf("%s: set up in %.2fs; timing for %gs", d.name, first, secs)

	res := &result{Metrics: map[string]metric{}}
	var kept [][]answer // answers that predate every timed append
	var timed []*op     // appends acknowledged while the clock ran
	if nClosed > 0 {
		ops := take(&p.reads, nClosed)
		closed := runClosed(ctx, p.client, ops, callers, time.Duration(closedSecs*float64(time.Second)), p.ids(len(ops)), sampleEvery)
		logf("closed loop: %d reads", closed.reads.n)
		res.count(closed)
		kept = append(kept, closed.answers)
		res.set("query_qps", closed.readRate(), "ops/s")
		res.set("query_p50_ms", closed.reads.ms(0.50), "ms")
		res.set("query_p95_ms", closed.reads.ms(0.95), "ms")
	}
	{
		sched := schedule(d, take(&p.reads, nOpen), take(&p.appends, nPaced))
		senders, sample := callers, sampleEvery
		if nPaced > 0 {
			sample = 0 // an answer among appends has no one expected value
			if serial {
				senders = 1
			}
		}
		opened := runOpen(ctx, p.client, sched, senders, p.ids(len(sched)), sample)
		logf("open loop: %d reads and %d appends, sent p95 %.2f ms late", opened.reads.n, opened.appends.n, opened.late.ms(0.95))
		res.count(opened)
		kept = append(kept, opened.answers)
		timed = opened.acked
		res.set("open_p50_ms", opened.reads.ms(0.50), "ms")
		res.set("open_p95_ms", opened.reads.ms(0.95), "ms")
		if nPaced > 0 {
			res.set("append_p50_ms", opened.appends.ms(0.50), "ms")
		}
	}
	if nBurst > 0 {
		ops := take(&p.appends, nBurst)
		burst := runClosed(ctx, p.client, ops, 1, time.Duration(burstSecs*float64(time.Second)), p.ids(len(ops)), 0)
		logf("append burst: %d batches", burst.appends.n)
		res.count(burst)
		timed = append(timed, burst.acked...)
		res.set("append_rows_per_s", float64(burst.appends.n*appendRows)/burst.elapsed.Seconds(), "rows/s")
	}
	if ctx.Err() != nil {
		return nil, errInterrupted
	}
	// The process's peak so far is the system's and the load generator's;
	// what follows — the oracle, the restart, the extra set-ups — is the
	// harness's.
	rss, err := peakRSSMB()
	switch {
	case err == nil:
		res.set("peak_rss_mb", rss, "MB")
	case !errors.Is(err, errors.ErrUnsupported):
		return nil, err
	}

	o, err := verify(ctx, p, d, res, timed, kept...)
	if err != nil {
		return nil, err
	}
	logf("verified: %d of %d operations failed", res.Failed, res.Attempted)
	if d.journal {
		rec, err := restart(ctx, p, d, o, res, append(p.warmed, timed...))
		if err != nil {
			return nil, err
		}
		logf("restarted in %.3fs: %d of %d operations failed", rec.seconds, res.Failed, res.Attempted)
		res.set("recover_s", rec.seconds, "s")
	}

	// The remaining set-ups: one is too short to time steadily, and a
	// later change that moves work into set-up must show here. They come
	// last so that their heaps are not in peak_rss_mb.
	setupTimes := []float64{first}
	for len(setupTimes) < setups {
		p.close()
		var s float64
		if p, s, err = setUpOnce(); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, s)
	}
	sort.Float64s(setupTimes)
	res.set("setup_s", setupTimes[len(setupTimes)/2], "s")
	res.Correct = res.Failed == 0
	return res, nil
}

// schedule is an open loop's timetable: reads and appends each due at
// their own fixed rate, merged in due order (a read before an append
// due at the same instant).
func schedule(d *workloadDef, reads, appends []*op) []timedOp {
	sched := append(pace(reads, d.readRate), pace(appends, d.appendRate)...)
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].due < sched[j].due })
	return sched
}

// verify checks the kept answers, which all predate the timed appends,
// against the oracle, and then the quiescent system holding every
// acknowledged batch: every distinct pair of a repeating workload, a
// full-domain probe of all ten templates and, where appends met reads
// that never repeat, fresh ranges. Each mismatch is a failed operation.
// The oracle comes back holding every acknowledged batch.
func verify(ctx context.Context, p *prepared, d *workloadDef, res *result, timed []*op, kept ...[]answer) (*oracle, error) {
	o, err := newOracle(p.env.data)
	if err != nil {
		return nil, err
	}
	check := func(lists ...[]answer) error {
		for _, answers := range lists {
			bad, err := o.mismatches(answers)
			if err != nil {
				return err
			}
			res.Attempted += len(answers)
			res.Failed += bad
			if bad > 0 {
				fmt.Fprintf(os.Stderr, "failed: %d of %d answers differ from the oracle\n", bad, len(answers))
			}
		}
		return nil
	}
	if err := o.apply(p.warmed); err != nil {
		return nil, err
	}
	if err := check(kept...); err != nil {
		return nil, err
	}
	if err := o.apply(timed); err != nil {
		return nil, err
	}
	// Quiescence: deferred refreshes land first.
	for _, n := range p.env.nodes {
		if err := n.sys.DrainMaintenance(ctx); err != nil {
			return nil, fmt.Errorf("drain maintenance: %w", err)
		}
	}
	quiet := append(append([]*op(nil), p.pairs...), probes()...)
	if len(timed) > 0 && len(p.pairs) == 0 {
		quiet = append(quiet, take(&p.reads, quietReads)...)
	}
	q := runClosed(ctx, p.client, quiet, 1, 0, p.ids(len(quiet)), 1)
	res.count(q)
	return o, check(q.answers)
}

// distinctPairs returns each distinct (template, range) pair among ops
// once; nil when the ops do not repeat.
func distinctPairs(ops []*op) []*op {
	var out []*op
	seen := make(map[int]bool)
	for _, o := range ops {
		if o.pair >= 0 && !seen[o.pair] {
			seen[o.pair] = true
			out = append(out, o)
		}
	}
	return out
}

// restarted is what a restart cost and found.
type restarted struct {
	seconds float64
	records int // journal records replayed
}

// restart abandons the journalled server the way kill -9 would —
// listener closed, no drain, no checkpoint, store never closed, so only
// bytes already flushed survive — and times a replacement: a new System
// on the journal directory plus workload.Load, until the first probe
// answers. Every acknowledged row must be back: all ten probes must
// match the oracle and the fact tables' row counts must add up.
func restart(ctx context.Context, p *prepared, d *workloadDef, o *oracle, res *result, acked []*op) (restarted, error) {
	p.env.nodes[0].stopListening()
	t0 := time.Now()
	store, err := deepsea.OpenJournal(p.env.dir)
	if err != nil {
		return restarted{}, fmt.Errorf("reopen journal: %w", err)
	}
	// This handle only replays; the abandoned one closes with the env.
	defer store.Close()
	sys := deepsea.New(d.systemOptions(p.env.data, store)...)
	defer sys.CloseMaintenance()
	if err := workload.Load(sys, p.env.data); err != nil {
		return restarted{}, fmt.Errorf("restart: %w", err)
	}
	if _, err := sys.RunContext(ctx, workload.BuildQuery(workload.Q1, workload.ItemSkLo, workload.ItemSkHi)); err != nil {
		return restarted{}, fmt.Errorf("restart: %w", err)
	}
	out := restarted{seconds: time.Since(t0).Seconds(), records: sys.Recovery().Replayed}
	if err := checkRecovered(ctx, sys, p.env.data, o, acked, res); err != nil {
		return out, fmt.Errorf("restart: %w", err)
	}
	return out, nil
}

// rowCounters name, per fact table, a template whose full-domain answer
// counts the table's rows (every fact row joins exactly one item) and
// the column holding the counts.
var rowCounters = map[string]struct {
	tpl workload.Template
	col string
}{
	"store_sales":     {workload.Q1, "sales_cnt"},
	"web_clickstream": {workload.Q5, "clicks"},
	"product_reviews": {workload.Q29, "reviews"},
}

// checkRecovered compares a recovered System with the oracle on all ten
// probes and checks that the fact tables hold every acknowledged row.
func checkRecovered(ctx context.Context, sys *deepsea.System, data *workload.Data, o *oracle, acked []*op, res *result) error {
	reports := make(map[workload.Template]deepsea.Report)
	for _, pr := range probes() {
		rep, err := sys.RunContext(ctx, workload.BuildQuery(pr.tpl, pr.lo, pr.hi))
		if err != nil {
			return err
		}
		reports[pr.tpl] = rep
		got, err := canonicalReport(rep)
		if err != nil {
			return err
		}
		want, err := o.expect(pr)
		if err != nil {
			return err
		}
		res.Attempted++
		if got != want {
			res.Failed++
		}
	}
	for _, table := range factTables {
		want := int64(data.Tables[table].NumRows())
		for _, a := range acked {
			if a.table == table {
				want += int64(len(a.rows))
			}
		}
		rc := rowCounters[table]
		rep := reports[rc.tpl]
		var got int64
		for i, c := range rep.Columns() {
			if c != rc.col {
				continue
			}
			for _, row := range rep.Rows() {
				n, _ := row[i].(int64)
				got += n
			}
		}
		res.Attempted++
		if got != want {
			res.Failed++
			fmt.Fprintf(os.Stderr, "restart: %s holds %d rows, %d were acknowledged\n", table, got, want)
		}
	}
	return nil
}
