package engine

import (
	"fmt"

	"deepsea/internal/interval"
	"deepsea/internal/query"
	"deepsea/internal/relation"
)

// Default selectivities for residual predicates, in the spirit of
// System R's magic numbers. Range predicates on ordered columns are
// estimated exactly from domain overlap instead.
const (
	eqSelectivity   = 0.10
	ineqSelectivity = 0.33
	// stringDistinct is the distinct-count guess for unordered columns.
	stringDistinct = 25
)

// estOut mirrors evalOut for the estimator.
type estOut struct {
	rows       float64
	rowWidth   int64
	cost       Cost
	pending    bool
	needsWrite bool
	srcBytes   int64
	srcFiles   int64
}

func (o *estOut) bytes() int64 { return int64(o.rows * float64(o.rowWidth)) }

// EstimateCost predicts the simulated cost of a plan without executing
// it, using base-table cardinalities, stored view/fragment sizes and
// uniform-distribution assumptions. The estimator mirrors the executor's
// cost accounting, so the rewriter and candidate generation price plans
// the way Run will charge them (TestEstimateCostTracksRun).
func (e *Engine) EstimateCost(plan query.Node) (Cost, error) {
	out, err := e.estimate(plan)
	if err != nil {
		return Cost{}, err
	}
	e.settleEst(&out)
	return out.cost, nil
}

// EstimateSize predicts the output cardinality and byte size of a plan.
func (e *Engine) EstimateSize(plan query.Node) (rows, bytes int64, err error) {
	out, err := e.estimate(plan)
	if err != nil {
		return 0, 0, err
	}
	r := int64(out.rows)
	if r < 1 && out.rows > 0 {
		r = 1
	}
	return r, int64(out.rows * float64(out.rowWidth)), nil
}

func (e *Engine) settleEst(o *estOut) {
	if !o.pending {
		return
	}
	if o.needsWrite {
		o.cost.Add(Cost{
			Seconds:    e.cm.WriteCost(o.srcBytes, o.srcFiles),
			WriteBytes: o.srcBytes,
		})
		o.needsWrite = false
	}
	sec, tasks := e.cm.ReadCost(o.srcBytes, o.srcFiles)
	o.cost.Add(Cost{Seconds: sec, ReadBytes: o.srcBytes, MapTasks: tasks})
	o.pending = false
}

func (e *Engine) estimate(n query.Node) (estOut, error) {
	switch t := n.(type) {
	case *query.Scan:
		tbl := e.BaseTable(t.Table)
		if tbl == nil {
			return estOut{}, fmt.Errorf("engine: unknown base table %q", t.Table)
		}
		return estOut{
			rows:     float64(tbl.NumRows()),
			rowWidth: tbl.Schema.RowWidth(),
			pending:  true,
			srcBytes: tbl.Bytes(),
			srcFiles: 1,
		}, nil

	case *query.Select:
		child, err := e.estimate(t.Child)
		if err != nil {
			return estOut{}, err
		}
		schema := t.Child.Schema()
		child.rows *= selectivity(&schema, t.Ranges, t.Residuals)
		if child.needsWrite {
			child.srcBytes = child.bytes()
		}
		return child, nil

	case *query.Project:
		child, err := e.estimate(t.Child)
		if err != nil {
			return estOut{}, err
		}
		out := t.Schema()
		child.rowWidth = out.RowWidth()
		if child.needsWrite {
			child.srcBytes = child.bytes()
		}
		return child, nil

	case *query.Join:
		l, err := e.estimate(t.Left)
		if err != nil {
			return estOut{}, err
		}
		r, err := e.estimate(t.Right)
		if err != nil {
			return estOut{}, err
		}
		e.settleEst(&l)
		e.settleEst(&r)
		keyCard := joinKeyCardinality(t, l.rows, r.rows)
		rows := l.rows * r.rows / keyCard
		out := estOut{rows: rows, rowWidth: l.rowWidth + r.rowWidth}
		out.cost = l.cost
		out.cost.Add(r.cost)
		shuffle := l.bytes() + r.bytes()
		out.cost.Add(Cost{
			Seconds:      e.cm.JobStartup + float64(shuffle)/e.cm.ShuffleBW,
			ShuffleBytes: shuffle,
			Jobs:         1,
		})
		out.pending = true
		out.needsWrite = true
		out.srcBytes = out.bytes()
		out.srcFiles = 1
		return out, nil

	case *query.Aggregate:
		child, err := e.estimate(t.Child)
		if err != nil {
			return estOut{}, err
		}
		e.settleEst(&child)
		inSchema := t.Child.Schema()
		groups := groupCardinality(&inSchema, t.GroupBy)
		rows := child.rows
		if groups < rows {
			rows = groups
		}
		outSchema := t.Schema()
		out := estOut{rows: rows, rowWidth: outSchema.RowWidth(), cost: child.cost}
		shuffle := child.bytes()
		out.cost.Add(Cost{
			Seconds:      e.cm.JobStartup + float64(shuffle)/e.cm.ShuffleBW,
			ShuffleBytes: shuffle,
			Jobs:         1,
		})
		out.pending = true
		out.needsWrite = true
		out.srcBytes = out.bytes()
		out.srcFiles = 1
		return out, nil

	case *query.ViewScan:
		return e.estimateViewScan(t)

	default:
		return estOut{}, fmt.Errorf("engine: unsupported node type %T", n)
	}
}

func (e *Engine) estimateViewScan(v *query.ViewScan) (estOut, error) {
	// Same shape check as the executor: clipFraction indexes Reads per
	// fragment, so a malformed cover must fail cleanly here too.
	if len(v.FragIDs) > 0 && len(v.Reads) != len(v.FragIDs) {
		return estOut{}, fmt.Errorf("engine: malformed ViewScan for view %s: %d fragments but %d clip ranges",
			v.ViewID, len(v.FragIDs), len(v.Reads))
	}
	rowWidth := v.ViewSchema.RowWidth()
	var srcBytes, srcFiles int64
	var rows float64
	if len(v.FragIDs) > 0 {
		for i, path := range v.FragIDs {
			var sz int64
			if i < len(v.FragSizes) && v.FragSizes[i] > 0 {
				sz = v.FragSizes[i] // virtual rewriting: size from stats
			} else {
				f, ok := e.file(path)
				if !ok {
					return estOut{}, fmt.Errorf("engine: fragment %s of view %s missing", path, v.ViewID)
				}
				sz = f.Size
			}
			srcBytes += sz
			srcFiles++
			// Rows surviving the clip, assuming uniform distribution of
			// the partition key within the fragment's stored range.
			fragRows := float64(sz) / float64(rowWidth)
			rows += fragRows * clipFraction(v, i)
		}
	} else {
		if v.ViewBytes > 0 {
			srcBytes = v.ViewBytes // virtual rewriting: size from stats
		} else {
			f, ok := e.file(v.ViewPath)
			if !ok {
				return estOut{}, fmt.Errorf("engine: view file %s missing", v.ViewPath)
			}
			srcBytes = f.Size
		}
		srcFiles = 1
		rows = float64(srcBytes) / float64(rowWidth)
	}

	// Compensation selectivity. Range predicates on the partition
	// attribute are already reflected by the clip fractions; other
	// ranges and residuals filter further.
	rows *= compensationSelectivity(v)

	out := estOut{rows: rows, rowWidth: rowWidth}
	if v.CompProject != nil {
		sch := v.ViewSchema.Project(v.CompProject)
		out.rowWidth = sch.RowWidth()
	}
	for _, rem := range v.Remainders {
		sub, err := e.estimate(rem)
		if err != nil {
			return estOut{}, err
		}
		e.settleEst(&sub)
		out.cost.Add(sub.cost)
		out.rows += sub.rows
	}
	out.pending = true
	out.srcBytes = srcBytes
	out.srcFiles = srcFiles
	return out, nil
}

// clipFraction estimates the share of fragment i's rows that survive its
// clip range: |clip| / |stored fragment interval|. The matcher records
// the fragment's full interval in FragIvs when available; without it we
// conservatively assume all rows survive.
func clipFraction(v *query.ViewScan, i int) float64 {
	if i >= len(v.FragIvs) {
		return 1
	}
	frag := v.FragIvs[i]
	clip := v.Reads[i]
	f := float64(clip.Len()) / float64(frag.Len())
	if f > 1 {
		f = 1
	}
	return f
}

func compensationSelectivity(v *query.ViewScan) float64 {
	sel := 1.0
	for _, p := range v.CompRanges {
		if p.Col == v.PartAttr && len(v.FragIDs) > 0 {
			continue // already accounted by the clip fractions
		}
		i := v.ViewSchema.ColIndex(p.Col)
		if i < 0 || !v.ViewSchema.Cols[i].Ordered {
			sel *= ineqSelectivity
			continue
		}
		col := v.ViewSchema.Cols[i]
		dom := interval.New(col.Lo, col.Hi)
		if x, ok := p.Iv.Intersect(dom); ok {
			sel *= float64(x.Len()) / float64(dom.Len())
		} else {
			sel = 0
		}
	}
	for _, p := range v.CompResiduals {
		sel *= residualSelectivity(p)
	}
	return sel
}

func selectivity(schema *relation.Schema, ranges []query.RangePred, residuals []query.CmpPred) float64 {
	sel := 1.0
	for _, p := range ranges {
		i := schema.ColIndex(p.Col)
		if i < 0 || !schema.Cols[i].Ordered {
			sel *= ineqSelectivity
			continue
		}
		col := schema.Cols[i]
		dom := interval.New(col.Lo, col.Hi)
		if x, ok := p.Iv.Intersect(dom); ok {
			sel *= float64(x.Len()) / float64(dom.Len())
		} else {
			sel = 0
		}
	}
	for _, p := range residuals {
		sel *= residualSelectivity(p)
	}
	return sel
}

func residualSelectivity(p query.CmpPred) float64 {
	switch p.Op {
	case query.Eq:
		return eqSelectivity
	case query.Ne:
		return 1 - eqSelectivity
	default:
		return ineqSelectivity
	}
}

// joinKeyCardinality estimates the distinct count of the join key. A
// side's distinct count is bounded by both its row count and the key's
// domain width; for a foreign-key join the matching distincts equal the
// dimension side's key count, i.e. the smaller of the two bounds — the
// classic |L join R| = |L|·|R| / d estimate with d = min(d_L, d_R).
func joinKeyCardinality(j *query.Join, lRows, rRows float64) float64 {
	side := func(s relation.Schema, col string, rows float64) float64 {
		d := rows
		if i := s.ColIndex(col); i >= 0 && s.Cols[i].Ordered {
			if w := float64(s.Cols[i].Hi - s.Cols[i].Lo + 1); w < d {
				d = w
			}
		}
		if d < 1 {
			d = 1
		}
		return d
	}
	dl := side(j.Left.Schema(), j.LCol, lRows)
	dr := side(j.Right.Schema(), j.RCol, rRows)
	if dl < dr {
		return dl
	}
	return dr
}

func groupCardinality(schema *relation.Schema, groupBy []string) float64 {
	card := 1.0
	for _, g := range groupBy {
		i := schema.ColIndex(g)
		if i < 0 {
			card *= stringDistinct
			continue
		}
		col := schema.Cols[i]
		if col.Ordered {
			card *= float64(col.Hi - col.Lo + 1)
		} else {
			card *= stringDistinct
		}
		if card > 1e7 {
			return 1e7
		}
	}
	return card
}
