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

// TestFusedTemplatesMatchReference: for every query template, at every
// capture level and worker count, the engine's answer, captured tables,
// captured sizes and cost equal the reference chain's — whether the
// plan ran as one fused pass (no capture, size-only capture) or
// operator by operator (row capture of every candidate stops fusion).
func TestFusedTemplatesMatchReference(t *testing.T) {
	data := workload.Generate(100, 7, nil) // 12 000 fact rows: three probe chunks
	dom := workload.ItemSkDomain()
	iv := interval.New(dom.Lo+dom.Len()/3, dom.Lo+dom.Len()/3+dom.Len()/20-1)
	levels := []struct {
		name  string
		level engine.Capture
	}{{"none", 0}, {"size", engine.CaptureSize}, {"rows", engine.CaptureRows}}

	for _, tpl := range workload.AllTemplates {
		plan := data.Query(tpl, iv)
		ref := &refEval{t: t, cm: engine.DefaultCostModel(), tables: data.Tables, out: make(map[query.Node]*relation.Table)}
		want := ref.eval(plan)
		ref.settle(&want)
		if len(want.tbl.Rows) == 0 {
			t.Fatalf("%s: reference answer is empty; the fixture proves nothing", tpl)
		}
		cands := query.CandidateNodes(plan)

		for _, lv := range levels {
			for _, par := range []int{1, 2, 8} {
				name := fmt.Sprintf("%s/capture=%s/par=%d", tpl, lv.name, par)
				e := engine.New(ref.cm)
				e.Parallelism = par
				for _, tbl := range data.Tables {
					e.AddBaseTable(tbl)
				}
				var capture map[query.Node]engine.Capture
				if lv.level != 0 {
					capture = make(map[query.Node]engine.Capture)
					for _, n := range cands {
						capture[n] = lv.level
					}
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
				for n, bytes := range res.CapturedBytes {
					if w := ref.out[n].Bytes(); bytes != w {
						t.Errorf("%s: captured size of %T = %d, want %d", name, n, bytes, w)
					}
				}
				for n, tbl := range res.Captured {
					if err := sameTable(tbl, ref.out[n]); err != nil {
						t.Errorf("%s: captured %T: %v", name, n, err)
					}
				}
			}
		}
	}
}
