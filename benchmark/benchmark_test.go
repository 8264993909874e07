package main

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"deepsea/internal/workload"
)

// The histogram must agree with a sorted slice to within its bucket
// width (1/128) at the quantiles the benchmark reports.
func TestHistMatchesSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	var ref []float64
	for i := 0; i < 20000; i++ {
		// Log-uniform over 1 us .. 1 s, the range request latencies span.
		ns := math.Exp(rng.Float64()*math.Log(1e6)) * 1e3
		h.add(time.Duration(ns))
		ref = append(ref, math.Floor(ns))
	}
	sort.Float64s(ref)
	for _, q := range []float64{0.50, 0.95, 0.99} {
		want := ref[int(q*float64(len(ref)-1))]
		got := h.quantile(q)
		if math.Abs(got-want)/want > 1.0/64 {
			t.Errorf("q%.2f: histogram %.0f ns, sorted slice %.0f ns", q, got, want)
		}
	}
	var a, b hist
	for i, v := range ref {
		if i%2 == 0 {
			a.add(time.Duration(v))
		} else {
			b.add(time.Duration(v))
		}
	}
	a.merge(&b)
	if a.n != h.n || a.quantile(0.95) != h.quantile(0.95) {
		t.Errorf("merged halves differ from the whole: n %d vs %d, p95 %.0f vs %.0f", a.n, h.n, a.quantile(0.95), h.quantile(0.95))
	}
}

func TestHistBucketsTile(t *testing.T) {
	for _, ns := range []int64{0, 1, 127, 128, 129, 255, 256, 1000, 1 << 20, 1<<40 + 12345} {
		lo, hi := histBounds(histIndex(ns))
		if float64(ns) < lo || float64(ns) >= hi {
			t.Errorf("%d ns lands in bucket [%.0f, %.0f)", ns, lo, hi)
		}
	}
}

// The dashboard draw must favour the first pairs and still reach the
// last.
func TestZipfReadsFavourLowPairs(t *testing.T) {
	pairs := make([]*op, 64)
	for i := range pairs {
		pairs[i] = &op{pair: i}
	}
	var counts [64]int
	for _, o := range zipfReads(pairs, rand.New(rand.NewSource(1)), 50000) {
		counts[o.pair]++
	}
	if counts[0] < 4*counts[7] || counts[63] == 0 {
		t.Errorf("pair 0 drawn %d times, pair 7 %d, pair 63 %d", counts[0], counts[7], counts[63])
	}
}

func traceBytes(d *workloadDef, data *workload.Data, seed int64) []byte {
	var b bytes.Buffer
	for _, o := range d.reads(seed, 500) {
		b.Write(o.body)
	}
	if d.appendRate > 0 {
		for _, o := range appendOps(data, d.tables, seed, 6) {
			b.Write(o.body)
		}
	}
	return b.Bytes()
}

// The program under test sees only generated inputs, so equal seeds
// must give byte-identical traces and different seeds different ones.
func TestTracesRepeatPerSeed(t *testing.T) {
	data := workload.Generate(1, 1, nil)
	for _, d := range workloads {
		a, b, c := traceBytes(d, data, 5), traceBytes(d, data, 5), traceBytes(d, data, 6)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two traces of seed 5 differ", d.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: traces of seeds 5 and 6 are the same", d.name)
		}
	}
}

func TestAdaptiveReadsNeverRepeat(t *testing.T) {
	seen := make(map[string]bool)
	for _, o := range adaptiveReads(3, 3000) {
		if seen[string(o.body)] {
			t.Fatalf("repeated read %s", o.body)
		}
		seen[string(o.body)] = true
	}
}

// Coordinated omission: one request stalls, and the open loop must
// charge the stall to the requests that were due behind it — in their
// latencies, which run from the due time, and in the reported lateness.
// A loop timing from the send would show one slow request.
func TestOpenLoopChargesStallToFollowers(t *testing.T) {
	const stall = 40 * time.Millisecond
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 1 {
			time.Sleep(stall)
		}
		_, _ = w.Write([]byte("{}"))
	}))
	defer ts.Close()
	c := newClient(ts.URL, 1, nil)
	defer c.close()
	ops := make([]*op, 20)
	for i := range ops {
		ops[i] = &op{path: "/query", body: []byte("{}")}
	}
	ph := runOpen(context.Background(), c, pace(ops, 250), 1, 0, 0) // due every 4 ms
	if ph.failed != 0 || ph.reads.n != uint64(len(ops)) {
		t.Fatalf("%d of %d requests failed", ph.failed, len(ops))
	}
	slow := 0
	for i, c := range ph.reads.counts {
		if lo, _ := histBounds(i); lo >= float64(stall/4) {
			slow += int(c)
		}
	}
	if slow < 5 {
		t.Errorf("%d requests took over %v from their due time; the stall should show in at least 5", slow, stall/4)
	}
	if late := time.Duration(ph.late.quantile(0.75)); late < stall/8 {
		t.Errorf("reported lateness p75 %v; the stall made followers at least %v late", late, stall/8)
	}
}

func TestClosedLoopHonoursDeadlineAndSamples(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"columns":["a"],"rows":[[1]]}`))
	}))
	defer ts.Close()
	c := newClient(ts.URL, 2, nil)
	defer c.close()
	ops := make([]*op, 64)
	for i := range ops {
		ops[i] = &op{path: "/query", body: []byte("{}")}
	}
	ph := runClosed(context.Background(), c, ops, 2, 0, 0, 8)
	if ph.reads.n != 64 || len(ph.answers) != 8 {
		t.Errorf("%d reads answered, %d answers kept; want 64 and 8", ph.reads.n, len(ph.answers))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if ph := runClosed(ctx, c, ops, 2, 0, 0, 0); ph.attempted != 0 {
		t.Errorf("a cancelled loop sent %d requests", ph.attempted)
	}
}

// Self time on a hand-built tree: a handler with two overlapping
// subqueries and a gap, one subquery with a child of its own.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "sub-b", Op: 1, Start: 30, End: 70},
		{Name: "client", Op: 1, Start: 0, End: 100},
		{Name: "handler", Op: 1, Start: 10, End: 90},
		{Name: "sub-a", Op: 1, Start: 20, End: 50},
		{Name: "leaf", Op: 1, Start: 35, End: 45},
		{Name: "other-op", Op: 2, Start: 40, End: 60},
	}
	link(spans)
	self := selfTimes(spans)
	got := make(map[string]int64)
	parent := make(map[string]string)
	for i, s := range spans {
		got[s.Name] = self[i]
		if s.Parent >= 0 {
			parent[s.Name] = spans[s.Parent].Name
		}
	}
	want := map[string]int64{
		"client":   20, // 100 minus the handler's 80
		"handler":  30, // 80 minus the union [20,70] of its subqueries
		"sub-a":    30,
		"sub-b":    30, // 40 minus the leaf
		"leaf":     10,
		"other-op": 20,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s: got %d, want %d", name, got[name], w)
		}
	}
	wantParent := map[string]string{"handler": "client", "sub-a": "handler", "sub-b": "handler", "leaf": "sub-b"}
	for name, w := range wantParent {
		if parent[name] != w {
			t.Errorf("parent of %s: got %q, want %q", name, parent[name], w)
		}
	}
	if _, ok := parent["other-op"]; ok {
		t.Errorf("a span of another operation got parent %q", parent["other-op"])
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	q1, med, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || med != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles %.2f %.2f %.2f, want 1.75 3.5 5.25", q1, med, q3)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricSpec{Name: "p50", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "qps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	noisy := []float64{60, 140, 100, 80, 120}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	for _, c := range []struct {
		m            metricSpec
		base, change []float64
		want         string
	}{
		{lower, steady, scale(steady, 1.05), "ok"},
		{lower, steady, scale(steady, 1.20), "regressed"},
		{lower, steady, scale(steady, 0.50), "ok"},
		{higher, steady, scale(steady, 0.80), "regressed"},
		{higher, steady, scale(steady, 1.30), "ok"},
		{lower, noisy, scale(steady, 1.20), "unresolved"},
	} {
		if got := verdictFor(c.m, c.base, c.change); got != c.want {
			t.Errorf("%s %v -> %v: verdict %q, want %q", c.m.Name, c.base, c.change, got, c.want)
		}
	}
}

func TestScheduleMergesByDueTime(t *testing.T) {
	r, a := &op{path: "/query"}, &op{path: "/append"}
	d := &workloadDef{readRate: 20, appendRate: 4}
	sched := schedule(d, []*op{r, r, r, r, r, r, r, r, r, r}, []*op{a, a})
	var got string
	for i, s := range sched {
		got += s.op.path[1:2]
		if i > 0 && s.due < sched[i-1].due {
			t.Errorf("op %d is due before op %d", i, i-1)
		}
	}
	if got != "qqqqqaqqqqqa" {
		t.Errorf("scheduled %q, want an append after every fifth read", got)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the tests hold the
// program to.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricSpec            `json:"end_to_end"`
	PerLayer  []metricSpec            `json:"per_layer"`
}

func loadSpec(t *testing.T) *benchmarkSpec {
	var sp benchmarkSpec
	if err := readJSON("../BENCHMARK.json", &sp); err != nil {
		t.Fatal(err)
	}
	return &sp
}

// small shrinks a workload to a fiftieth of its data and warm-up, so
// the smoke run boots in tens of milliseconds.
func small(d *workloadDef) *workloadDef {
	s := *d
	s.gb = max(1, d.gb/50)
	s.warmup = max(10, d.warmup/50)
	return &s
}

// applies says which workloads report an ungated end-to-end metric;
// the gated ones apply to all.
var applies = map[string]func(*workloadDef) bool{
	"query_qps":         func(d *workloadDef) bool { return !d.journal },
	"query_p50_ms":      func(d *workloadDef) bool { return !d.journal },
	"query_p95_ms":      func(d *workloadDef) bool { return !d.journal },
	"open_p50_ms":       func(d *workloadDef) bool { return true },
	"open_p95_ms":       func(d *workloadDef) bool { return true },
	"append_p50_ms":     func(d *workloadDef) bool { return d.appendRate > 0 },
	"append_rows_per_s": func(d *workloadDef) bool { return d.journal },
	"recover_s":         func(d *workloadDef) bool { return d.journal },
}

// The smoke run: every workload, both modes, at a fiftieth of the size
// for one second. The timed run must emit each end-to-end metric that
// applies to the workload, never one that does not, never a 0; the
// traced run exactly BENCHMARK.json's per-layer list; both as finite
// numbers in the declared unit, with no failed operation.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	sp := loadSpec(t)
	check := func(t *testing.T, res *result, want []metricSpec, nonzero bool) {
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("correct=%v, %d of %d operations failed", res.Correct, res.Failed, res.Attempted)
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("metric %s missing", m.Name)
			case got.Unit != m.Unit:
				t.Errorf("metric %s has unit %q, declared %q", m.Name, got.Unit, m.Unit)
			case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || nonzero && got.Value == 0:
				t.Errorf("metric %s is %v", m.Name, got.Value)
			}
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%d metrics emitted, %d expected", len(res.Metrics), len(want))
		}
	}
	for _, d := range workloads {
		d := small(d)
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			var want []metricSpec
			for _, m := range endToEnd {
				if m.Gated || applies[m.Name](d) {
					want = append(want, m)
				}
			}
			res, err := runTimed(context.Background(), d, 11, 1, t.TempDir(), 1, true)
			if err != nil {
				t.Fatal(err)
			}
			check(t, res, want, true)
			if res, err = runTraced(context.Background(), d, 11, 1, t.TempDir()); err != nil {
				t.Fatal(err)
			}
			check(t, res, sp.PerLayer, false)
		})
	}
}

// BENCHMARK.json's bounded metrics are the program's gated ones, with
// the same units, directions and bounds, and its workloads are the
// program's, in order.
func TestSpecMatchesProgram(t *testing.T) {
	sp := loadSpec(t)
	var gated []metricSpec
	for _, m := range endToEnd {
		if m.Gated {
			m.Gated = false
			gated = append(gated, m)
		}
	}
	if !slices.Equal(sp.EndToEnd, gated) {
		t.Errorf("BENCHMARK.json bounds\n%v\nthe program gates\n%v", sp.EndToEnd, gated)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
}
