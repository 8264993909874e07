package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"deepsea/internal/engine"
	"deepsea/internal/interval"
	"deepsea/internal/query"
	"deepsea/internal/relation"
)

// storedRows maps every stored file to a digest of its rows in stored
// order (Table.Fingerprint forgets the order).
func storedRows(t *testing.T, d *DeepSea) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, f := range d.Eng.StoredFiles() {
		tab := d.Eng.Materialized(f.Path)
		if tab == nil {
			t.Fatalf("stored file %s has no rows", f.Path)
		}
		h := sha256.New()
		var buf []byte
		for _, row := range tab.Rows {
			buf = buf[:0]
			for j, v := range row {
				buf = relation.AppendKey(buf, tab.Schema.Cols[j].Type, v)
			}
			h.Write(buf)
			h.Write([]byte{0})
		}
		out[f.Path] = fmt.Sprintf("%d rows %x fingerprint %s", len(tab.Rows), h.Sum(nil), tab.Fingerprint())
	}
	return out
}

// poolManifest lists every view file and fragment of the pool with its
// path and size, in Pool.Views order.
func poolManifest(d *DeepSea) []string {
	var out []string
	for _, pv := range d.Pool.Views() {
		out = append(out, fmt.Sprintf("view %s path=%q size=%d", pv.ID, pv.Path, pv.Size))
		for _, attr := range pv.PartAttrs() {
			for _, f := range pv.Parts[attr].Fragments() {
				out = append(out, fmt.Sprintf("frag %s.%s %s path=%q size=%d", pv.ID, attr, f.Iv, f.Path, f.Size))
			}
		}
	}
	return out
}

// TestRangedCaptureStoresWhatWholeCaptureStores is the change's
// differential test: a fixed trace of shifting hot spots against a pool
// of a tenth of the base data, replayed on two systems — one capturing
// the admitted pieces of each selected view, one forced to capture every
// selected view whole, as the manager did before. Every answer, and
// after every query the pool, every stored file's rows in order, every
// size and the clock must agree: what is captured and thrown away
// differs, what is kept does not.
func TestRangedCaptureStoresWhatWholeCaptureStores(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var trace []interval.Interval
	for i := 0; i < 36; i++ {
		center := []int64{2000, 7000, 4500}[i/12]
		lo := center + rng.Int63n(1500) - 750
		trace = append(trace, interval.New(lo, lo+499))
	}
	for _, mode := range []struct {
		name    string
		workers int
	}{{"inline", 0}, {"background", 2}} {
		t.Run(mode.name, func(t *testing.T) {
			build := func(whole bool) *DeepSea {
				d := newTestSystem(t, func(c *Config) {
					c.Smax = 4500 << 20 // a tenth of the 45 GB the base tables model
					c.MaintWorkers = mode.workers
				})
				d.wholeCaptures = whole
				t.Cleanup(d.CloseMaintenance)
				return d
			}
			ranged, whole := build(false), build(true)
			partialViews := 0
			for i, iv := range trace {
				a, b := run(t, ranged, q30(iv.Lo, iv.Hi)), run(t, whole, q30(iv.Lo, iv.Hi))
				for _, d := range []*DeepSea{ranged, whole} {
					if err := d.DrainMaintenance(context.Background()); err != nil {
						t.Fatalf("query %d: drain: %v", i, err)
					}
				}
				if a.Result.Fingerprint() != b.Result.Fingerprint() {
					t.Fatalf("query %d %s: answers differ", i, iv)
				}
				if !reflect.DeepEqual(a.MaterializedViews, b.MaterializedViews) || !reflect.DeepEqual(a.MaterializedFrags, b.MaterializedFrags) ||
					!reflect.DeepEqual(a.Evicted, b.Evicted) || a.TotalSeconds != b.TotalSeconds {
					t.Fatalf("query %d %s: reports differ:\nranged %+v\nwhole  %+v", i, iv, a, b)
				}
				if got, want := poolManifest(ranged), poolManifest(whole); !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d %s: pools differ:\nranged %s\nwhole  %s", i, iv, strings.Join(got, "\n       "), strings.Join(want, "\n       "))
				}
				if got, want := storedRows(t, ranged), storedRows(t, whole); !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d %s: stored rows differ:\nranged %v\nwhole  %v", i, iv, got, want)
				}
				// Inline, the clocks must be equal. With workers a query's own
				// advance and its drain cycle's land in either order, and
				// (t+e)+m and (t+m)+e may differ in the last bit.
				if r, w := ranged.Now(), whole.Now(); r != w && (mode.workers == 0 || math.Abs(r-w) > 1e-12*w) {
					t.Fatalf("query %d %s: clocks differ: ranged %v, whole %v", i, iv, r, w)
				}
				assertPoolInvariants(t, ranged, fmt.Sprintf("after query %d", i))
				for _, pv := range ranged.Pool.Views() {
					for _, part := range pv.Parts {
						if _, _, gaps := part.Cover(part.Dom); len(gaps) > 0 && part.NumFragments() > 0 {
							partialViews++
						}
					}
				}
			}
			if partialViews == 0 {
				t.Error("the pool never held a partially materialized view; no capture was ranged and the test proves nothing")
			}
		})
	}
}

// TestCaptureRange pins when a selected view's capture carries a range:
// only a view admitted in part under an adaptive partitioning.
func TestCaptureRange(t *testing.T) {
	dom := interval.New(testDomLo, testDomHi)
	pieces := []interval.Interval{interval.New(3000, 3999), interval.New(1000, 1999), interval.New(2000, 2999), interval.New(6000, 6999)}
	cover := []interval.Interval{interval.New(5000, testDomHi), interval.New(testDomLo, 4999)}
	for _, tc := range []struct {
		name    string
		mode    PartitionMode
		sv      selectedView
		wantCol string
		wantIvs []interval.Interval
	}{
		{"partial", PartitionAdaptive, selectedView{attr: "ss_item_sk", dom: dom, pieces: pieces},
			"ss_item_sk", []interval.Interval{interval.New(1000, 3999), interval.New(6000, 6999)}},
		{"every piece admitted", PartitionAdaptive, selectedView{attr: "ss_item_sk", dom: dom}, "", nil},
		{"pieces cover the domain", PartitionAdaptive, selectedView{attr: "ss_item_sk", dom: dom, pieces: cover}, "", nil},
		{"no partition key", PartitionAdaptive, selectedView{dom: dom, pieces: pieces}, "", nil},
		{"unpartitioned", PartitionNone, selectedView{attr: "ss_item_sk", dom: dom, pieces: pieces}, "", nil},
		{"equi-depth", PartitionEquiDepth, selectedView{attr: "ss_item_sk", dom: dom, pieces: pieces}, "", nil},
	} {
		d := newTestSystem(t, func(c *Config) { c.Partition = tc.mode })
		col, ivs := d.captureRange(tc.sv)
		if col != tc.wantCol || !reflect.DeepEqual(ivs, tc.wantIvs) {
			t.Errorf("%s: captureRange = %q %v, want %q %v", tc.name, col, ivs, tc.wantCol, tc.wantIvs)
		}
	}
}

// TestPlanCapturesAdmittedPieces drives planning itself: against a pool
// too small for the view, the selected view's capture is ranged over
// exactly its admitted pieces, no other capture carries a range, and the
// maintenance task carries the whole view's size next to the
// admitted rows.
func TestPlanCapturesAdmittedPieces(t *testing.T) {
	d := newTestSystem(t, func(c *Config) { c.Smax = 4500 << 20 })
	q := q30(2000, 2499)
	d.mu.Lock()
	pq, err := d.planLocked(q, nil)
	d.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	var sv selectedView
	for _, s := range pq.selViews {
		if s.pieces != nil {
			sv = s
		}
	}
	if sv.pieces == nil {
		t.Fatalf("none of the %d selected views was admitted in part; the fixture proves nothing", len(pq.selViews))
	}
	ranged := 0
	for n, c := range pq.capture {
		switch {
		case n == sv.vc.node:
			within, _ := sv.admitted(&d.Cfg)
			if c.Level != engine.CaptureRows || c.Col != sv.attr || !reflect.DeepEqual(c.Ivs, []interval.Interval(within)) {
				t.Errorf("selected view captured as %+v, want rows of %s in %v", c, sv.attr, within)
			}
			ranged++
		case c.Col != "":
			t.Errorf("%T captured as %+v; only the partially admitted view's capture carries a range", n, c)
		}
	}
	if ranged != 1 {
		t.Fatalf("%d captures of the selected view's node, want 1", ranged)
	}
	res, err := d.Eng.Run(pq.qbest, pq.capture)
	if err != nil {
		t.Fatal(err)
	}
	var task *matViewTask
	for _, mt := range d.maintenanceTasks(pq, &res) {
		if p, ok := mt.Payload.(*matViewTask); ok && p.sv.pieces != nil {
			task = p
		}
	}
	if task == nil {
		t.Fatal("no materialization task")
	}
	whole, err := d.Eng.Run(sv.vc.node, map[query.Node]engine.Capture{sv.vc.node: {Level: engine.CaptureRows}})
	if err != nil {
		t.Fatal(err)
	}
	all := whole.Captured[sv.vc.node]
	if task.capturedBytes != all.Bytes() {
		t.Errorf("task carries %d bytes for the view, the whole node is %d", task.capturedBytes, all.Bytes())
	}
	if n := len(task.captured.Rows); n == 0 || n >= len(all.Rows)/2 {
		t.Errorf("task carries %d of the node's %d rows; want the admitted part only", n, len(all.Rows))
	}
}

// TestFragSizerRejectsProbeOutsideCapturedPieces: sizes come from the
// captured keys, which are complete only inside the admitted pieces; an
// interval reaching outside them must fail the partitioning, not read as
// empty.
func TestFragSizerRejectsProbeOutsideCapturedPieces(t *testing.T) {
	captured := relation.NewTable(relation.Schema{Cols: []relation.Column{{Name: "k", Type: relation.Int, Width: 8}}})
	for _, k := range []int64{1000, 1500, 1999, 6000} {
		captured.Append(relation.Row{relation.IntVal(k)})
	}
	within := interval.Set{interval.New(1000, 1999), interval.New(6000, 6999)}
	s := newFragSizer(captured, "k", within)
	if got := s.sizeOf(interval.New(1000, 1499)); got != 8 || s.outside != nil {
		t.Fatalf("inside probe: size %d, outside %v; want 8 and none", got, s.outside)
	}
	if got := s.sizeOf(interval.New(6000, 6999)); got != 8 || s.outside != nil {
		t.Fatalf("whole-piece probe: size %d, outside %v; want 8 and none", got, s.outside)
	}
	s.sizeOf(interval.New(1500, 2500))
	if s.outside == nil || *s.outside != interval.New(1500, 2500) {
		t.Fatalf("a probe reaching past a piece was not recorded: %v", s.outside)
	}
	s.sizeOf(interval.New(1999, 6000))
	if *s.outside != interval.New(1500, 2500) {
		t.Errorf("the recorded probe moved to %v; want the first", *s.outside)
	}
}
