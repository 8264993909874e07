package engine_test

import (
	"bytes"
	"fmt"
	"testing"

	"deepsea/internal/engine"
	"deepsea/internal/interval"
	"deepsea/internal/query"
	"deepsea/internal/relation"
	"deepsea/internal/workload"
)

// refEval is the reference the fused probe kernel is held to: every
// operator a separate, sequential pass that materializes its whole
// output, one allocation per row, with the cost accounting spelled out
// operator by operator. It shares no code with the engine's data path
// except the aggregation operator, which the kernel does not touch.
type refEval struct {
	t      *testing.T
	cm     engine.CostModel
	tables map[string]*relation.Table
	// out records every plan node's full output.
	out map[query.Node]*relation.Table
}

// refOut mirrors what flows between operators: rows, accumulated cost,
// and the bytes/files a consuming job still has to write and read.
type refOut struct {
	tbl        *relation.Table
	cost       engine.Cost
	pending    bool
	needsWrite bool
	srcBytes   int64
	srcFiles   int64
}

func (r *refEval) settle(o *refOut) {
	if !o.pending {
		return
	}
	if o.needsWrite {
		o.cost.Add(engine.Cost{Seconds: r.cm.WriteCost(o.srcBytes, o.srcFiles), WriteBytes: o.srcBytes})
		o.needsWrite = false
	}
	sec, tasks := r.cm.ReadCost(o.srcBytes, o.srcFiles)
	o.cost.Add(engine.Cost{Seconds: sec, ReadBytes: o.srcBytes, MapTasks: tasks})
	o.pending = false
}

func (r *refEval) job(o *refOut, shuffle int64) {
	o.cost.Add(engine.Cost{
		Seconds:      r.cm.JobStartup + float64(shuffle)/r.cm.ShuffleBW,
		ShuffleBytes: shuffle,
		Jobs:         1,
	})
}

func (r *refEval) eval(n query.Node) refOut {
	var o refOut
	switch t := n.(type) {
	case *query.Scan:
		tbl := r.tables[t.Table]
		o = refOut{tbl: tbl, pending: true, srcBytes: tbl.Bytes(), srcFiles: 1}
	case *query.Select:
		o = r.eval(t.Child)
		o.tbl = refSelect(o.tbl, t)
		if o.needsWrite {
			o.srcBytes = o.tbl.Bytes()
		}
	case *query.Project:
		o = r.eval(t.Child)
		o.tbl = refProject(o.tbl, t.Cols)
		if o.needsWrite {
			o.srcBytes = o.tbl.Bytes()
		}
	case *query.Join:
		l, rt := r.eval(t.Left), r.eval(t.Right)
		r.settle(&l)
		r.settle(&rt)
		o = refOut{tbl: refJoin(l.tbl, rt.tbl, t), cost: l.cost, pending: true, needsWrite: true, srcFiles: 1}
		o.cost.Add(rt.cost)
		r.job(&o, l.tbl.Bytes()+rt.tbl.Bytes())
		o.srcBytes = o.tbl.Bytes()
	case *query.Aggregate:
		child := r.eval(t.Child)
		r.settle(&child)
		o = refOut{tbl: r.aggregate(child.tbl, t), cost: child.cost, pending: true, needsWrite: true, srcFiles: 1}
		r.job(&o, child.tbl.Bytes())
		o.srcBytes = o.tbl.Bytes()
	default:
		r.t.Fatalf("reference: unsupported node %T", n)
	}
	r.out[n] = o.tbl
	return o
}

// aggregate runs the engine's own aggregation over the reference rows,
// registered as a base table of a scratch sequential engine.
func (r *refEval) aggregate(in *relation.Table, a *query.Aggregate) *relation.Table {
	r.t.Helper()
	scratch := engine.New(r.cm)
	scratch.Parallelism = 1
	tbl := &relation.Table{Schema: in.Schema, Rows: in.Rows}
	tbl.Schema.Name = "ref_in"
	scratch.AddBaseTable(tbl)
	res, err := scratch.Run(&query.Aggregate{
		Child:   query.NewScan("ref_in", tbl.Schema),
		GroupBy: a.GroupBy, Aggs: a.Aggs, Partial: a.Partial,
	}, nil)
	if err != nil {
		r.t.Fatalf("reference aggregate: %v", err)
	}
	return res.Table
}

func refSelect(in *relation.Table, s *query.Select) *relation.Table {
	out := relation.NewTable(in.Schema)
rows:
	for _, row := range in.Rows {
		for _, p := range s.Ranges {
			if i := in.Schema.ColIndex(p.Col); i < 0 || !p.Iv.Contains(row[i].Int()) {
				continue rows
			}
		}
		for _, p := range s.Residuals {
			if i := in.Schema.ColIndex(p.Col); i < 0 || !p.Eval(row[i]) {
				continue rows
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

func refProject(in *relation.Table, cols []string) *relation.Table {
	out := relation.NewTable(in.Schema.Project(cols))
	for _, row := range in.Rows {
		nr := make(relation.Row, len(cols))
		for i, c := range cols {
			nr[i] = row[in.Schema.ColIndex(c)]
		}
		out.Rows = append(out.Rows, nr)
	}
	return out
}

// refJoin is the join's contract: the hash table on the left input
// unless the left is strictly larger, probe-major output, a probe row's
// matches in build-row order, columns always left ++ right.
func refJoin(l, r *relation.Table, j *query.Join) *relation.Table {
	li, ri := l.Schema.ColIndex(j.LCol), r.Schema.ColIndex(j.RCol)
	buildLeft := len(l.Rows) <= len(r.Rows)
	build, probe, bi, pi := l, r, li, ri
	if !buildLeft {
		build, probe, bi, pi = r, l, ri, li
	}
	index := make(map[int64][]relation.Row)
	for _, row := range build.Rows {
		index[row[bi].Int()] = append(index[row[bi].Int()], row)
	}
	out := relation.NewTable(j.Schema())
	for _, pr := range probe.Rows {
		for _, br := range index[pr[pi].Int()] {
			lr, rr := br, pr
			if !buildLeft {
				lr, rr = pr, br
			}
			out.Rows = append(out.Rows, append(append(relation.Row{}, lr...), rr...))
		}
	}
	return out
}

// sameTable reports the first difference between two tables compared
// column name by column name and value by value, in row order.
func sameTable(got, want *relation.Table) error {
	if got == nil || want == nil {
		return fmt.Errorf("nil table (got %v, want %v)", got != nil, want != nil)
	}
	if len(got.Schema.Cols) != len(want.Schema.Cols) {
		return fmt.Errorf("schema %s, want %s", got.Schema.String(), want.Schema.String())
	}
	for i, c := range want.Schema.Cols {
		if g := got.Schema.Cols[i]; g.Name != c.Name || g.Type != c.Type || g.EffectiveWidth() != c.EffectiveWidth() {
			return fmt.Errorf("schema %s, want %s", got.Schema.String(), want.Schema.String())
		}
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("%d rows, want %d", len(got.Rows), len(want.Rows))
	}
	for i, w := range want.Rows {
		g := got.Rows[i]
		if len(g) != len(w) {
			return fmt.Errorf("row %d: width %d, want %d", i, len(g), len(w))
		}
		for j := range w {
			typ := want.Schema.Cols[j].Type
			if !bytes.Equal(relation.AppendKey(nil, typ, g[j]), relation.AppendKey(nil, typ, w[j])) {
				return fmt.Errorf("row %d col %d: %+v, want %+v", i, j, g[j], w[j])
			}
		}
	}
	return nil
}

// refRanged is the ranged capture's contract: the rows of the node's
// whole output whose col lies in one of ivs, in output order.
func refRanged(in *relation.Table, col string, ivs []interval.Interval) *relation.Table {
	out := relation.NewTable(in.Schema)
	ci := in.Schema.ColIndex(col)
	for _, row := range in.Rows {
		for _, iv := range ivs {
			if iv.Contains(row[ci].Int()) {
				out.Rows = append(out.Rows, row)
				break
			}
		}
	}
	return out
}

// captureRanges returns the three shapes of range a capture is tested
// with over an Int column of tbl: one interval, three (two of them
// adjacent, as guardSplit cuts them), and none.
func captureRanges(tbl *relation.Table, col string) map[string][]interval.Interval {
	ci := tbl.Schema.ColIndex(col)
	lo, hi := tbl.Rows[0][ci].Int(), tbl.Rows[0][ci].Int()
	for _, row := range tbl.Rows {
		lo, hi = min(lo, row[ci].Int()), max(hi, row[ci].Int())
	}
	w := max(1, (hi-lo+1)/10)
	return map[string][]interval.Interval{
		"one":   {interval.New(lo+3*w, lo+4*w-1)},
		"three": {interval.New(lo+w, lo+2*w-1), interval.New(lo+2*w, lo+3*w-1), interval.New(lo+5*w, lo+6*w-1)},
		"zero":  {},
	}
}

// withFacts returns the dataset with every fact table — every table
// larger than the item dimension — cut to its first n rows.
func withFacts(data *workload.Data, n int) *workload.Data {
	small := *data
	small.Tables = make(map[string]*relation.Table, len(data.Tables))
	for name, tbl := range data.Tables {
		small.Tables[name] = tbl
		if len(tbl.Rows) > len(data.Tables["item"].Rows) {
			small.Tables[name] = &relation.Table{Schema: tbl.Schema, Rows: tbl.Rows[:n]}
		}
	}
	return &small
}

// TestFusedTemplatesMatchReference: for every query template, at every
// capture level and worker count and in both build orientations, the
// engine's answer, captured tables, captured sizes and cost equal the
// reference chain's — whether the plan ran as one fused pass (no
// capture, size-only capture, a ranged capture inside a stack or a
// chain), as a chain cut where its upper join builds on the chain side,
// or operator by operator (row capture of every candidate stops fusion).
// A ranged capture returns exactly the reference rows inside its range
// and the whole node's size, wherever in the plan the node sits, and
// leaves the query's own answer and cost alone; so do two of them, one
// on each level of a chain.
func TestFusedTemplatesMatchReference(t *testing.T) {
	data := workload.Generate(100, 7, nil) // 12 000 fact rows: three probe chunks
	dom := workload.ItemSkDomain()
	iv := interval.New(dom.Lo+dom.Len()/3, dom.Lo+dom.Len()/3+dom.Len()/20-1)
	levels := []struct {
		name  string
		level engine.CaptureLevel
	}{{"none", 0}, {"size", engine.CaptureSize}, {"rows", engine.CaptureRows}}

	partial := 0 // ranged captures that returned some but not all of a node
	for _, ds := range []struct {
		name string
		data *workload.Data
	}{
		{"build=dim", data},
		// Joins against item build on the fact side: the orientation the
		// full dataset never takes.
		{"build=fact", withFacts(data, len(data.Tables["item"].Rows)/2)},
		// Every chain's inner join has no more rows than the dimension its
		// upper join adds, which is where that join builds: the chain is
		// cut at its upper level.
		{"cut", withFacts(data, len(data.Tables["store"].Rows))},
	} {
		for _, tpl := range workload.AllTemplates {
			plan := ds.data.Query(tpl, iv)
			ref := &refEval{t: t, cm: engine.DefaultCostModel(), tables: ds.data.Tables, out: make(map[query.Node]*relation.Table)}
			want := ref.eval(plan)
			ref.settle(&want)
			if len(want.tbl.Rows) == 0 {
				t.Fatalf("%s/%s: reference answer is empty; the fixture proves nothing", ds.name, tpl)
			}
			cands := query.CandidateNodes(plan)
			run := func(name string, par int, capture map[query.Node]engine.Capture) engine.Result {
				e := engine.New(ref.cm)
				e.Parallelism = par
				for _, tbl := range ds.data.Tables {
					e.AddBaseTable(tbl)
				}
				res, err := e.Run(plan, capture)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := sameTable(res.Table, want.tbl); err != nil {
					t.Errorf("%s: result: %v", name, err)
				}
				if res.Cost != want.cost {
					t.Errorf("%s: cost %v, want %v", name, res.Cost, want.cost)
				}
				for n, bytes := range res.CapturedBytes {
					if w := ref.out[n].Bytes(); bytes != w {
						t.Errorf("%s: captured size of %T = %d, want %d", name, n, bytes, w)
					}
				}
				return res
			}

			for _, lv := range levels {
				for _, par := range []int{1, 2, 8} {
					name := fmt.Sprintf("%s/%s/capture=%s/par=%d", ds.name, tpl, lv.name, par)
					var capture map[query.Node]engine.Capture
					if lv.level != 0 {
						capture = make(map[query.Node]engine.Capture)
						for _, n := range cands {
							capture[n] = engine.Capture{Level: lv.level}
						}
					}
					res := run(name, par, capture)
					wantBytes, wantTables := 0, 0
					if lv.level != 0 {
						wantBytes = len(cands)
					}
					if lv.level == engine.CaptureRows {
						wantTables = len(cands)
					}
					if len(res.CapturedBytes) != wantBytes || len(res.Captured) != wantTables {
						t.Errorf("%s: %d sizes and %d tables captured, want %d and %d",
							name, len(res.CapturedBytes), len(res.Captured), wantBytes, wantTables)
					}
					for n, tbl := range res.Captured {
						if err := sameTable(tbl, ref.out[n]); err != nil {
							t.Errorf("%s: captured %T: %v", name, n, err)
						}
					}
				}
			}

			// Ranged captures. Every join, projection and aggregate is
			// captured on every Int column of its output — which takes in
			// columns of the probe side and of the build side — alone, the
			// way the manager asks (the other candidates at size level), and
			// together with the join under it, which one pass cannot serve.
			var capturable []query.Node
			query.Walk(plan, func(n query.Node) {
				switch n.(type) {
				case *query.Join, *query.Project, *query.Aggregate:
					capturable = append(capturable, n)
				}
			})
			for _, n := range capturable {
				whole := ref.out[n]
				for _, c := range whole.Schema.Cols {
					if c.Type != relation.Int {
						continue
					}
					for shape, ivs := range captureRanges(whole, c.Name) {
						wantRows := refRanged(whole, c.Name, ivs)
						if len(wantRows.Rows) > 0 && len(wantRows.Rows) < len(whole.Rows) {
							partial++
						}
						capture := make(map[query.Node]engine.Capture)
						for _, m := range cands {
							capture[m] = engine.Capture{Level: engine.CaptureSize}
						}
						capture[n] = engine.Capture{Level: engine.CaptureRows, Col: c.Name, Ivs: ivs}
						below, twoRanged := n.Children()[0].(*query.Join)
						for _, par := range []int{1, 2, 8} {
							name := fmt.Sprintf("%s/%s/capture=%T.%s[%s]/par=%d", ds.name, tpl, n, c.Name, shape, par)
							res := run(name, par, capture)
							if len(res.Captured) != 1 {
								t.Errorf("%s: %d tables captured, want 1", name, len(res.Captured))
							}
							if err := sameTable(res.Captured[n], wantRows); err != nil {
								t.Errorf("%s: %v", name, err)
							}
						}
						if !twoRanged {
							continue
						}
						capture[below] = engine.Capture{Level: engine.CaptureRows, Col: c.Name, Ivs: ivs}
						name := fmt.Sprintf("%s/%s/capture=%T.%s[%s]+join/par=2", ds.name, tpl, n, c.Name, shape)
						res := run(name, 2, capture)
						if err := sameTable(res.Captured[n], wantRows); err != nil {
							t.Errorf("%s: %v", name, err)
						}
						if err := sameTable(res.Captured[below], refRanged(ref.out[below], c.Name, ivs)); err != nil {
							t.Errorf("%s: join: %v", name, err)
						}
					}
				}
			}

			// A chain carrying two ranged captures, one per level: the
			// projections of the inner and of the upper join, on the
			// selection column both carry.
			var projs []*query.Project
			query.Walk(plan, func(n query.Node) {
				if p, ok := n.(*query.Project); ok {
					projs = append(projs, p)
				}
			})
			if len(projs) == 2 {
				col := tpl.SelectionAttr()
				capture := make(map[query.Node]engine.Capture)
				for _, m := range cands {
					capture[m] = engine.Capture{Level: engine.CaptureSize}
				}
				ivs := captureRanges(ref.out[projs[0]], col)["three"]
				for _, p := range projs {
					capture[p] = engine.Capture{Level: engine.CaptureRows, Col: col, Ivs: ivs}
				}
				for _, par := range []int{1, 2, 8} {
					name := fmt.Sprintf("%s/%s/capture=both-projections.%s/par=%d", ds.name, tpl, col, par)
					res := run(name, par, capture)
					if len(res.Captured) != 2 {
						t.Errorf("%s: %d tables captured, want 2", name, len(res.Captured))
					}
					for _, p := range projs {
						if err := sameTable(res.Captured[p], refRanged(ref.out[p], col, ivs)); err != nil {
							t.Errorf("%s: %s: %v", name, p, err)
						}
					}
				}
			}
		}
	}
	if partial == 0 {
		t.Error("no ranged capture returned a proper part of its node; the fixture proves nothing")
	}
}

// TestRangedCaptureRejectsMalformedRequest: a range over a column the
// node lacks, or intervals out of order, fail the run before it starts.
func TestRangedCaptureRejectsMalformedRequest(t *testing.T) {
	data := workload.Generate(100, 7, nil)
	plan := data.Query(workload.Q30, workload.ItemSkDomain())
	proj := plan.(*query.Aggregate).Child.(*query.Select).Child
	e := engine.New(engine.DefaultCostModel())
	for _, tbl := range data.Tables {
		e.AddBaseTable(tbl)
	}
	for name, c := range map[string]engine.Capture{
		"missing column": {Level: engine.CaptureRows, Col: "i_price", Ivs: []interval.Interval{interval.New(0, 1)}},
		"unsorted":       {Level: engine.CaptureRows, Col: "ss_item_sk", Ivs: []interval.Interval{interval.New(5, 9), interval.New(0, 1)}},
		"overlapping":    {Level: engine.CaptureRows, Col: "ss_item_sk", Ivs: []interval.Interval{interval.New(0, 5), interval.New(5, 9)}},
	} {
		if _, err := e.Run(plan, map[query.Node]engine.Capture{proj: c}); err == nil {
			t.Errorf("%s: run succeeded", name)
		}
	}
}
