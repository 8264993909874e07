package engine

import (
	"context"
	"fmt"

	"deepsea/internal/query"
	"deepsea/internal/relation"
)

// Incremental view maintenance by delta propagation.
//
// Base tables only ever grow by appends, and every operator in a view
// plan (scan, select, project, equi-join, group-by aggregate) is
// append-linear under the engine's deterministic execution order: if a
// base table gains a suffix of rows, the rematerialized output of a
// select/project/join chain is the old output followed by a computable
// suffix, and the rematerialized output of a root aggregate is the old
// groups (in order, with updated states) followed by the new groups in
// delta first-appearance order. DeltaApply exploits that to refresh a
// materialized view by pushing only the appended rows through the plan,
// byte-identical to rematerializing from scratch:
//
//   - Scan: the delta is the appended suffix of the base table.
//   - Select/Project: filter/project the child delta (row order kept).
//   - Join: valid only when exactly one input changed, that input is the
//     probe side, and the build-or-probe orientation (chosen by input
//     cardinality, the buildsLeft rule every join follows) is the same
//     before and after the append — then the new output is the old output plus
//     delta-probe ⋈ build, in probe-major order, matching a remat.
//     Otherwise (both sides changed, delta on the build side, or the
//     orientation flips) incremental maintenance cannot reproduce the
//     remat byte order and the caller must rematerialize.
//   - Root aggregate: the child delta is aggregated in partial mode and
//     merged into the view's retained exact accumulator states
//     (MergeAggStates); finalizing the merged states (FinalizeAggStates)
//     renders exactly what a full re-aggregation would, because full
//     mode renders sums from the same exact accumulator (see aggregate).
//
// Anything else in the plan — a nested aggregate, a ViewScan — falls
// back to rematerialization via a DeltaRemat result.

// RefreshPlan is the retained per-view state that makes incremental
// refresh possible: the canonical plan, the output cardinality of every
// plan node over the view's current base prefix (join orientation
// checks need old sizes), and, for aggregate-rooted plans, the exact
// partial-aggregation states of the current content.
type RefreshPlan struct {
	Plan query.Node
	// Sizes maps every node of Plan to its output row count over the
	// base-table prefixes the view content corresponds to. Updated by
	// the caller from DeltaResult.Sizes after each applied refresh.
	Sizes map[query.Node]int
	// States holds the partial-aggregation state table when Plan's root
	// is an Aggregate (nil otherwise). Group rows appear in content
	// order; sum columns carry exact encodings.
	States *relation.Table
}

// DeltaKind classifies a DeltaApply outcome.
type DeltaKind int

// DeltaApply outcomes.
const (
	// DeltaEmpty: the delta produced no output change; the view content
	// is already fresh.
	DeltaEmpty DeltaKind = iota
	// DeltaAppend: the view gains Rows appended to its stored content.
	DeltaAppend
	// DeltaAgg: the view content is replaced by Rows (merged aggregate
	// groups); States carries the updated retained states.
	DeltaAgg
	// DeltaRemat: incremental maintenance cannot reproduce the remat
	// byte order for this plan + delta; Reason says why. The caller
	// must fall back to rematerialization.
	DeltaRemat
)

// String names the outcome for logs and counters.
func (k DeltaKind) String() string {
	switch k {
	case DeltaEmpty:
		return "empty"
	case DeltaAppend:
		return "append"
	case DeltaAgg:
		return "agg"
	default:
		return "remat"
	}
}

// DeltaResult is the outcome of one incremental refresh computation.
type DeltaResult struct {
	Kind DeltaKind
	// Rows: for DeltaAppend, the output rows to append to the stored
	// view; for DeltaAgg, the full replacement content.
	Rows *relation.Table
	// States: for DeltaAgg, the merged partial states to retain.
	States *relation.Table
	// Sizes: updated per-node output cardinalities (old + delta), to
	// store back into the RefreshPlan once the refresh is applied.
	Sizes map[query.Node]int
	// Cost is the simulated cost of computing the delta (reads of the
	// appended rows and of unchanged join build sides). Write costs are
	// charged by the storage primitives that apply the result.
	Cost Cost
	// Reason explains a DeltaRemat.
	Reason string
}

// rematError aborts delta propagation with the reason incremental
// maintenance cannot preserve byte-identity for this plan + delta.
type rematError struct{ reason string }

func (e rematError) Error() string { return "engine: delta remat: " + e.reason }

// deltaCtx threads the per-refresh inputs through the recursion.
type deltaCtx struct {
	e   *Engine
	bud *budget
	// snaps holds the current base-table snapshots (mutually consistent:
	// taken under one catalog lock).
	snaps map[string]*relation.Table
	// deltas holds the appended suffix per base table (absent or empty
	// when a table did not grow).
	deltas map[string]*relation.Table
	// oldSizes come from the RefreshPlan; newSizes are produced here.
	oldSizes map[query.Node]int
	newSizes map[query.Node]int
	cost     Cost
}

func (c *deltaCtx) chargeRead(bytes int64) {
	sec, tasks := c.e.cm.ReadCost(bytes, 1)
	c.cost.Add(Cost{Seconds: sec, ReadBytes: bytes, MapTasks: tasks})
}

// PrimeRefresh builds the retained refresh state for a view by
// evaluating its plan over the base-table prefixes its current content
// was materialized from: per-node output sizes, plus partial states for
// an aggregate root. The returned cost covers the evaluation's reads.
// Plans that delta propagation cannot maintain (ViewScan anywhere, an
// aggregate below the root) return an error; the caller falls back to
// rematerialization.
func (e *Engine) PrimeRefresh(plan query.Node, old map[string]*relation.Table) (rp *RefreshPlan, cost Cost, err error) {
	c := &deltaCtx{e: e, bud: newBudget(e.par()), snaps: old, newSizes: make(map[query.Node]int)}
	c.bud.ctx = context.Background()
	defer func() {
		if r := recover(); r != nil {
			rp, err = nil, fmt.Errorf("engine: prime panic: %v", r)
		}
	}()
	rp = &RefreshPlan{Plan: plan}
	if a, ok := plan.(*query.Aggregate); ok {
		child, cerr := c.snapEval(a.Child, true)
		if cerr != nil {
			return nil, c.cost, cerr
		}
		pa := *a
		pa.Partial = true
		rp.States = aggregate(child, &pa, c.bud)
		c.newSizes[plan] = len(rp.States.Rows)
	} else if _, cerr := c.snapEval(plan, true); cerr != nil {
		return nil, c.cost, cerr
	}
	if berr := c.bud.abortErr(); berr != nil {
		return nil, c.cost, berr
	}
	rp.Sizes = c.newSizes
	return rp, c.cost, nil
}

// snapEval fully evaluates a select/project/join subtree over the
// snapshot tables in c.snaps, recording per-node output sizes when
// record is set. It is the build-side evaluator of delta joins and the
// plan walker of PrimeRefresh; aggregates and view scans are not
// append-linear in a subtree position, so they surface as rematError.
func (c *deltaCtx) snapEval(n query.Node, record bool) (*relation.Table, error) {
	var out *relation.Table
	if f, ok := fuseJoin(n, nil); ok {
		lv := &f.levels[0]
		l, err := c.snapEval(lv.join.Left, record)
		if err != nil {
			return nil, err
		}
		r, err := c.snapEval(lv.join.Right, record)
		if err != nil {
			return nil, err
		}
		s := f.probe(l, r, buildsLeft(len(l.Rows), len(r.Rows)), nil, c.bud)[0]
		if record {
			for _, m := range lv.nodes[1:] {
				c.newSizes[m] = s.counts[0].joined
			}
			c.newSizes[n] = len(s.out.Rows)
		}
		return s.out, nil
	}
	switch t := n.(type) {
	case *query.Scan:
		tbl := c.snaps[t.Table]
		if tbl == nil {
			return nil, fmt.Errorf("engine: unknown base table %q in refresh plan", t.Table)
		}
		c.chargeRead(tbl.Bytes())
		out = tbl
	case *query.Select:
		child, err := c.snapEval(t.Child, record)
		if err != nil {
			return nil, err
		}
		out = filterTable(child, t.Ranges, t.Residuals, c.bud)
	case *query.Project:
		child, err := c.snapEval(t.Child, record)
		if err != nil {
			return nil, err
		}
		out = projectTable(child, t.Cols, c.bud)
	case *query.Aggregate:
		return nil, rematError{"aggregate below the plan root"}
	case *query.ViewScan:
		return nil, rematError{"plan references another view"}
	default:
		return nil, fmt.Errorf("engine: unsupported node type %T in refresh plan", n)
	}
	if record {
		c.newSizes[n] = len(out.Rows)
	}
	return out, nil
}

// DeltaApply pushes the appended base rows through a primed view plan
// and returns what the refresh must do to the stored content. snaps are
// the current base-table snapshots (post-append, mutually consistent);
// deltas are the appended suffixes per table. A DeltaRemat result is
// not an error: it reports that this delta cannot be applied
// incrementally and carries the reason.
func (e *Engine) DeltaApply(rp *RefreshPlan, snaps, deltas map[string]*relation.Table) (res DeltaResult, err error) {
	c := &deltaCtx{
		e:        e,
		bud:      newBudget(e.par()),
		snaps:    snaps,
		deltas:   deltas,
		oldSizes: rp.Sizes,
		newSizes: make(map[query.Node]int),
	}
	c.bud.ctx = context.Background()
	defer func() {
		if r := recover(); r != nil {
			res, err = DeltaResult{}, fmt.Errorf("engine: delta panic: %v", r)
		}
	}()
	finish := func(d DeltaResult, derr error) (DeltaResult, error) {
		if derr != nil {
			if re, ok := derr.(rematError); ok {
				return DeltaResult{Kind: DeltaRemat, Reason: re.reason, Cost: c.cost}, nil
			}
			return DeltaResult{}, derr
		}
		if berr := c.bud.abortErr(); berr != nil {
			return DeltaResult{}, berr
		}
		d.Sizes = c.newSizes
		d.Cost = c.cost
		return d, nil
	}

	if a, ok := rp.Plan.(*query.Aggregate); ok {
		if rp.States == nil {
			return finish(DeltaResult{}, rematError{"aggregate view has no retained states"})
		}
		childDelta, derr := c.deltaNode(a.Child)
		if derr != nil {
			return finish(DeltaResult{}, derr)
		}
		if len(childDelta.Rows) == 0 {
			return finish(DeltaResult{Kind: DeltaEmpty}, nil)
		}
		pa := *a
		pa.Partial = true
		deltaStates := aggregate(childDelta, &pa, c.bud)
		merged, merr := MergeAggStates(a, rp.States, deltaStates)
		if merr != nil {
			return finish(DeltaResult{}, merr)
		}
		content := merged
		if !a.Partial {
			content, merr = FinalizeAggStates(a, merged)
			if merr != nil {
				return finish(DeltaResult{}, merr)
			}
		}
		c.newSizes[rp.Plan] = len(merged.Rows)
		return finish(DeltaResult{Kind: DeltaAgg, Rows: content, States: merged}, nil)
	}

	d, derr := c.deltaNode(rp.Plan)
	if derr != nil {
		return finish(DeltaResult{}, derr)
	}
	if len(d.Rows) == 0 {
		return finish(DeltaResult{Kind: DeltaEmpty}, nil)
	}
	return finish(DeltaResult{Kind: DeltaAppend, Rows: d}, nil)
}

// deltaNode returns the appended output suffix of the subtree at n,
// maintaining c.newSizes = old size + delta size for every node. It
// returns rematError when the delta cannot be expressed as an appended
// suffix of the node's remat output.
func (c *deltaCtx) deltaNode(n query.Node) (*relation.Table, error) {
	oldSize, primed := c.oldSizes[n]
	if !primed {
		return nil, rematError{"plan node missing from primed sizes"}
	}
	if f, ok := fuseJoin(n, nil); ok {
		out, err := c.deltaJoin(&f)
		if err != nil {
			return nil, err
		}
		c.newSizes[n] = oldSize + len(out.Rows)
		return out, nil
	}
	var out *relation.Table
	switch t := n.(type) {
	case *query.Scan:
		d := c.deltas[t.Table]
		if d == nil {
			snap := c.snaps[t.Table]
			if snap == nil {
				return nil, fmt.Errorf("engine: unknown base table %q in refresh plan", t.Table)
			}
			d = relation.NewTable(snap.Schema)
		}
		c.chargeRead(d.Bytes())
		out = d
	case *query.Select:
		child, err := c.deltaNode(t.Child)
		if err != nil {
			return nil, err
		}
		out = filterTable(child, t.Ranges, t.Residuals, c.bud)
	case *query.Project:
		child, err := c.deltaNode(t.Child)
		if err != nil {
			return nil, err
		}
		out = projectTable(child, t.Cols, c.bud)
	case *query.Aggregate:
		return nil, rematError{"aggregate below the plan root"}
	case *query.ViewScan:
		return nil, rematError{"plan references another view"}
	default:
		return nil, fmt.Errorf("engine: unsupported node type %T in refresh plan", n)
	}
	c.newSizes[n] = oldSize + len(out.Rows)
	return out, nil
}

// deltaJoin computes the appended output suffix of a fused join stack
// whose join inputs may each have grown. The suffix equals delta-probe ⋈
// build — pushed through the stack's projection and selection by the
// same pass — only under the conditions documented on DeltaApply; any
// other shape is a rematError.
func (c *deltaCtx) deltaJoin(f *fusedJoin) (*relation.Table, error) {
	t := f.levels[0].join
	below := f.levels[0].nodes[1:]
	for _, m := range below {
		if _, primed := c.oldSizes[m]; !primed {
			return nil, rematError{"plan node missing from primed sizes"}
		}
	}
	grow := func(joined int) {
		for _, m := range below {
			c.newSizes[m] = c.oldSizes[m] + joined
		}
	}
	ld, err := c.deltaNode(t.Left)
	if err != nil {
		return nil, err
	}
	rd, err := c.deltaNode(t.Right)
	if err != nil {
		return nil, err
	}
	if len(ld.Rows) == 0 && len(rd.Rows) == 0 {
		grow(0)
		return relation.NewTable(f.top().Schema()), nil
	}
	if len(ld.Rows) > 0 && len(rd.Rows) > 0 {
		return nil, rematError{"both join inputs changed"}
	}
	lOld, lok := c.oldSizes[t.Left]
	rOld, rok := c.oldSizes[t.Right]
	if !lok || !rok {
		return nil, rematError{"join input missing from primed sizes"}
	}
	// The build side must be the same before and after the append or the
	// remat output would switch from right-major to left-major (or back).
	buildLeft := buildsLeft(lOld, rOld)
	if buildLeft != buildsLeft(c.newSizes[t.Left], c.newSizes[t.Right]) {
		return nil, rematError{"join build orientation flips under this delta"}
	}
	// The changed side must be the probe side: new probe rows extend
	// the probe-major output, while new build rows would interleave.
	if buildLeft && len(ld.Rows) > 0 || !buildLeft && len(rd.Rows) > 0 {
		return nil, rematError{"delta lands on the join build side"}
	}
	// The build side is unchanged, so evaluating it over the current
	// snapshots reproduces exactly what the original materialization
	// joined against.
	l, r := ld, rd
	if buildLeft {
		l, err = c.snapEval(t.Left, false)
	} else {
		r, err = c.snapEval(t.Right, false)
	}
	if err != nil {
		return nil, err
	}
	s := f.probe(l, r, buildLeft, nil, c.bud)[0]
	grow(s.counts[0].joined)
	return s.out, nil
}

// MergeAggStates merges a delta's partial-aggregation states into a
// view's retained states: existing groups keep their position and fold
// the delta in (counts add, exact sum encodings merge losslessly,
// min/max compare by column type), new groups append in delta
// first-appearance order — exactly the group order a re-aggregation of
// old-rows-then-delta-rows would produce. Both tables carry the partial
// schema of a.
func MergeAggStates(a *query.Aggregate, old, delta *relation.Table) (*relation.Table, error) {
	ng := len(a.GroupBy)
	out := relation.NewTable(old.Schema)
	out.Rows = make([]relation.Row, len(old.Rows), len(old.Rows)+len(delta.Rows))
	idx := make(map[string]int, len(old.Rows))
	var keyBuf []byte
	rowKey := func(r relation.Row) string {
		keyBuf = keyBuf[:0]
		for i := 0; i < ng; i++ {
			keyBuf = relation.AppendKey(keyBuf, old.Schema.Cols[i].Type, r[i])
		}
		return string(keyBuf)
	}
	for i, r := range old.Rows {
		nr := make(relation.Row, len(r))
		copy(nr, r)
		out.Rows[i] = nr
		idx[rowKey(r)] = i
	}
	for _, dr := range delta.Rows {
		i, ok := idx[rowKey(dr)]
		if !ok {
			nr := make(relation.Row, len(dr))
			copy(nr, dr)
			idx[rowKey(dr)] = len(out.Rows)
			out.Rows = append(out.Rows, nr)
			continue
		}
		if err := mergeStateRow(a, out.Schema, out.Rows[i], dr, ng); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// mergeStateRow folds one delta state row into an existing state row in
// place, column by column per the PartialCols expansion.
func mergeStateRow(a *query.Aggregate, schema relation.Schema, dst, src relation.Row, ng int) error {
	ci := ng
	for _, sp := range a.Aggs {
		switch sp.Func {
		case query.Count:
			dst[ci] = relation.IntVal(dst[ci].Int() + src[ci].Int())
			ci++
		case query.Sum:
			enc, _, err := MergePartialSums(dst[ci].Str(), src[ci].Str())
			if err != nil {
				return fmt.Errorf("engine: merge %s: %w", sp.As, err)
			}
			dst[ci] = relation.StringVal(enc)
			ci++
		case query.Avg:
			enc, _, err := MergePartialSums(dst[ci].Str(), src[ci].Str())
			if err != nil {
				return fmt.Errorf("engine: merge %s: %w", sp.As, err)
			}
			dst[ci] = relation.StringVal(enc)
			dst[ci+1] = relation.IntVal(dst[ci+1].Int() + src[ci+1].Int())
			ci += 2
		case query.Min:
			if lessValue(schema.Cols[ci].Type, src[ci], dst[ci]) {
				dst[ci] = src[ci]
			}
			ci++
		case query.Max:
			if lessValue(schema.Cols[ci].Type, dst[ci], src[ci]) {
				dst[ci] = src[ci]
			}
			ci++
		}
	}
	return nil
}

func lessValue(typ relation.Type, a, b relation.Value) bool {
	switch typ {
	case relation.Int:
		return a.Int() < b.Int()
	case relation.Float:
		return a.Float() < b.Float()
	default:
		return a.Str() < b.Str()
	}
}

// FinalizeAggStates renders a partial-state table as the full-mode
// aggregate output, byte-identical to what aggregate() itself renders:
// counts pass through, sums decode the exact encoding and round once,
// averages divide the rounded sum by the count, min/max pass through.
func FinalizeAggStates(a *query.Aggregate, states *relation.Table) (*relation.Table, error) {
	fa := *a
	fa.Partial = false
	ng := len(a.GroupBy)
	out := relation.NewTable(fa.Schema())
	for _, sr := range states.Rows {
		row := make(relation.Row, 0, ng+len(a.Aggs))
		row = append(row, sr[:ng]...)
		ci := ng
		for _, sp := range a.Aggs {
			switch sp.Func {
			case query.Count:
				row = append(row, sr[ci])
				ci++
			case query.Sum:
				acc, err := decodeExactAcc(sr[ci].Str())
				if err != nil {
					return nil, fmt.Errorf("engine: finalize %s: %w", sp.As, err)
				}
				row = append(row, relation.FloatVal(acc.float64()))
				ci++
			case query.Avg:
				acc, err := decodeExactAcc(sr[ci].Str())
				if err != nil {
					return nil, fmt.Errorf("engine: finalize %s: %w", sp.As, err)
				}
				n := sr[ci+1].Int()
				v := 0.0
				if n > 0 {
					v = acc.float64() / float64(n)
				}
				row = append(row, relation.FloatVal(v))
				ci += 2
			default: // Min, Max
				row = append(row, sr[ci])
				ci++
			}
		}
		out.Append(row)
	}
	return out, nil
}
