package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"deepsea/internal/ingest"
	"deepsea/internal/interval"
	"deepsea/internal/server"
	"deepsea/internal/workload"
)

// workloadDef fixes everything about one workload except the seed: the
// system's shape, the trace's shape, and the offered rates. Rates are
// frozen here — nothing adapts at run time — at no more than half of
// what the seed commit sustains closed-loop on the 2-core reference box
// (see README.md for the measured capacities).
type workloadDef struct {
	name string

	gb           int64
	poolFrac     float64 // pool limit as a share of base bytes; 0 = unlimited
	cacheBytes   int64
	maintWorkers int // 0 = inline maintenance
	journal      bool
	groups       int // 0 = one server, no coordinator
	replicas     int

	warmup     int     // reads replayed inside set-up
	readRate   float64 // open-loop reads per second
	appendRate float64 // 64-row appends per second paced among the open-loop reads; 0 = read-only
	// tables are the fact tables the 64-row batches go to, round-robin.
	tables []string
	// tracedOps is how many reads per --seconds second the single-caller
	// traced pass replays: a fixed count, so counters repeat exactly.
	tracedOps float64

	reads func(seed int64, n int) []*op
}

const (
	appendRows = 64
	// smallCache is the result cache of the workloads whose reads never
	// repeat; fitCache holds every distinct answer of the workloads whose
	// reads do (a cached answer is accounted at its modelled size, about
	// 5 MB at 200 GB, so 64 answers need more than 64 MB: with smallCache
	// the dashboard evicts on every miss and hits 65% of the time).
	smallCache = 64 << 20
	fitCache   = 1 << 30
)

// readTemplates are the six templates every read trace cycles through:
// two per fact table family, so all three append targets have
// dependent views.
var readTemplates = []workload.Template{workload.Q1, workload.Q5, workload.Q7, workload.Q16, workload.Q20, workload.Q29}

var factTables = []string{"store_sales", "web_clickstream", "product_reviews"}

var workloads = []*workloadDef{
	{
		// Shifting hot spots, every range distinct, pool at 10% of base:
		// engine and core do the work, cache and server almost none.
		name: "serve_adaptive",
		gb:   200, poolFrac: 0.10, cacheBytes: smallCache, maintWorkers: 1,
		warmup: 60, readRate: 40, tracedOps: 20,
		reads: adaptiveReads,
	},
	{
		// 64 Zipf-drawn dashboard queries that fit every cache: the median
		// is a result-cache hit, so server, cache and HTTP dominate.
		name: "serve_repeat",
		gb:   200, cacheBytes: fitCache,
		warmup: 1000, readRate: 4000, tracedOps: 2000,
		reads: repeatReads,
	},
	{
		// Coordinator over 2 range groups x 2 replicas, half spanning and
		// half single-group reads plus routed appends: the shard layer is
		// the largest share.
		name: "shard_mixed",
		gb:   50, poolFrac: 0.10, cacheBytes: fitCache, groups: 2, replicas: 2,
		warmup: 3000, readRate: 250, appendRate: 5, tables: []string{"product_reviews"}, tracedOps: 500,
		reads: shardReads,
	},
	{
		// Journalled server, uniform reads beside paced 64-row appends, then
		// a crash-style restart: view refresh, datastore and ingest do real
		// work.
		name: "ingest_mixed",
		gb:   50, poolFrac: 0.10, cacheBytes: smallCache, journal: true,
		warmup: 100, readRate: 20, appendRate: 4, tables: factTables, tracedOps: 15,
		reads: uniformReads,
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// op is one pre-encoded request. Bodies are built during set-up so the
// generator does no encoding while it is being timed.
type op struct {
	path string // "/query" or "/append"
	body []byte

	// Reads: the query, for the oracle. pair is the index of the distinct
	// (template, range) pair the op repeats, -1 when every op is its own.
	tpl    workload.Template
	lo, hi int64
	pair   int

	// Appends: the batch, for the oracle.
	table string
	rows  [][]any
}

func readOp(t workload.Template, iv interval.Interval, pair int) *op {
	body, err := json.Marshal(server.QuerySpec{Template: t.String(), Lo: iv.Lo, Hi: iv.Hi})
	if err != nil {
		panic(err) // a struct of strings and integers always encodes
	}
	return &op{path: "/query", body: body, tpl: t, lo: iv.Lo, hi: iv.Hi, pair: pair}
}

// adaptiveReads is the paper's regime: the hot spot moves between four
// places, ranges cover 5% of the domain with light skew around the
// spot, and no (template, range) repeats, so the result cache cannot
// help and the pool must keep re-partitioning.
func adaptiveReads(seed int64, n int) []*op {
	const perSpot = 120
	rng := rand.New(rand.NewSource(seed))
	dom := workload.ItemSkDomain()
	spots := []int64{60000, 160000, 260000, 340000}
	seen := make(map[[2]int64]bool, n)
	ops := make([]*op, 0, n)
	for len(ops) < n {
		for _, iv := range workload.ShiftingRanges(spots, perSpot, workload.Medium, workload.Light, dom, rng) {
			t := readTemplates[len(ops)%len(readTemplates)]
			// Nudge a repeat to the nearest free range: up, or down for
			// the many ranges the domain's upper end clamps to one place.
			step := int64(1)
			if iv.Hi >= dom.Hi {
				step = -1
			}
			key := [2]int64{int64(t), iv.Lo}
			for seen[key] {
				iv.Lo, iv.Hi = iv.Lo+step, iv.Hi+step
				key[1] = iv.Lo
			}
			seen[key] = true
			ops = append(ops, readOp(t, iv, -1))
		}
	}
	return ops[:n]
}

// zipfReads draws n ops from a fixed set of pairs, pair k with
// probability proportional to 1/(k+1)^1.2: the dashboard shape, where a
// few (template, range) pairs take most of the traffic.
func zipfReads(pairs []*op, rng *rand.Rand, n int) []*op {
	z := rand.NewZipf(rng, 1.2, 1, uint64(len(pairs)-1))
	ops := make([]*op, n)
	for i := range ops {
		ops[i] = pairs[z.Uint64()]
	}
	return ops
}

// repeatReads is the dashboard: 64 distinct pairs, a few of them taking
// most of the traffic.
func repeatReads(seed int64, n int) []*op {
	rng := rand.New(rand.NewSource(seed))
	ivs := workload.Ranges(64, workload.Medium, workload.Uniform, workload.ItemSkDomain(), rng)
	pairs := make([]*op, len(ivs))
	for i, iv := range ivs {
		pairs[i] = readOp(readTemplates[i%len(readTemplates)], iv, i)
	}
	return zipfReads(pairs, rng, n)
}

// shardReads alternates spanning pairs (scatter to both groups, merge
// partial states) with pairs confined to one group's slice (a single
// routed hop), 128 in all.
func shardReads(seed int64, n int) []*op {
	pairs := make([]*op, 128)
	for i := range pairs {
		t := readTemplates[(i/2)%len(readTemplates)]
		var q workload.TraceQuery
		if i%2 == 0 {
			q = workload.SpanningTrace(1, t, workload.Medium, seed+int64(i))[0]
		} else {
			// DisjointTrace places query j in slice j%k: take the last of
			// (i/2)%2+1 so both slices get pairs.
			qs := workload.DisjointTrace((i/2)%2+1, 2, t, workload.Medium, seed+int64(i))
			q = qs[len(qs)-1]
		}
		pairs[i] = readOp(t, interval.New(q.Lo, q.Hi), i)
	}
	return zipfReads(pairs, rand.New(rand.NewSource(seed)), n)
}

// uniformReads places 5% ranges anywhere in the domain.
func uniformReads(seed int64, n int) []*op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]*op, n)
	for i, iv := range workload.Ranges(n, workload.Medium, workload.Uniform, workload.ItemSkDomain(), rng) {
		ops[i] = readOp(readTemplates[i%len(readTemplates)], iv, -1)
	}
	return ops
}

// appendOps generates n held-out 64-row batches, round-robin over
// tables.
func appendOps(d *workload.Data, tables []string, seed int64, n int) []*op {
	ops := make([]*op, n)
	for i := range ops {
		table := tables[i%len(tables)]
		rows := d.AppendRows(table, appendRows, seed+int64(i), nil)
		body, err := json.Marshal(ingest.Spec{Table: table, Rows: rows})
		if err != nil {
			panic(fmt.Sprintf("benchmark: encode append batch: %v", err))
		}
		ops[i] = &op{path: "/append", body: body, table: table, rows: rows, pair: -1}
	}
	return ops
}
