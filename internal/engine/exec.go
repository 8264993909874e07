package engine

import (
	"context"
	"fmt"
	"sync"

	"deepsea/internal/faults"
	"deepsea/internal/interval"
	"deepsea/internal/query"
	"deepsea/internal/relation"
)

// Result is the outcome of running a plan.
type Result struct {
	// Table holds the output rows.
	Table *relation.Table
	// Cost is the simulated cost of the run.
	Cost Cost
	// Captured maps the plan nodes requested at CaptureRows to their
	// outputs — for a ranged request, exactly the output's rows inside the
	// range, in output order. The tables are carved from the run's slabs:
	// a caller that keeps one stores it through WriteMaterialized, which
	// copies.
	Captured map[query.Node]*relation.Table
	// CapturedBytes maps every requested plan node that executed, at
	// either level, ranged or not, to the modelled size of its whole
	// output: what a caller sizes a view by is the view, not the part of
	// it the caller asked to see.
	CapturedBytes map[query.Node]int64
}

// Capture is a request for a plan node's output: how much of it a caller
// of Run wants back. The engine materializes an intermediate only when
// all its rows are wanted, so asking for less lets more of the plan run
// fused.
type Capture struct {
	Level CaptureLevel
	// Col, when set on a CaptureRows request, restricts the rows returned
	// to those whose Col value lies in one of Ivs, which must be sorted
	// and disjoint (no interval: no row). Col must be a column of the
	// node's output.
	Col string
	Ivs []interval.Interval
}

// CaptureLevel is the level of a Capture request.
type CaptureLevel uint8

// Capture levels.
const (
	// CaptureSize records the node's output size only.
	CaptureSize CaptureLevel = iota + 1
	// CaptureRows records the size and returns the rows.
	CaptureRows
)

// ranged reports whether c asks for the rows inside a range only.
func (c Capture) ranged() bool { return c.Level == CaptureRows && c.Col != "" }

// checkCaptures rejects a ranged request the data path cannot serve.
func checkCaptures(capture map[query.Node]Capture) error {
	for n, c := range capture {
		if !c.ranged() {
			continue
		}
		if s := n.Schema(); s.ColIndex(c.Col) < 0 {
			return fmt.Errorf("engine: capture range column %q missing from %s", c.Col, s.String())
		}
		for i := 1; i < len(c.Ivs); i++ {
			if c.Ivs[i].Lo <= c.Ivs[i-1].Hi {
				return fmt.Errorf("engine: capture range on %q is not sorted and disjoint: %s, %s", c.Col, c.Ivs[i-1], c.Ivs[i])
			}
		}
	}
	return nil
}

func newResult() *Result {
	return &Result{
		Captured:      make(map[query.Node]*relation.Table),
		CapturedBytes: make(map[query.Node]int64),
	}
}

// absorb merges the captures of a sibling subplan's private result.
func (res *Result) absorb(sub *Result) {
	for k, v := range sub.Captured {
		res.Captured[k] = v
	}
	for k, v := range sub.CapturedBytes {
		res.CapturedBytes[k] = v
	}
}

// Run evaluates the plan over real rows and charges their cost. capture
// may list plan nodes whose intermediate outputs the caller wants (for
// view materialization), at what level and, for rows, inside what range;
// it may be nil.
func (e *Engine) Run(plan query.Node, capture map[query.Node]Capture) (Result, error) {
	return e.RunContext(context.Background(), plan, capture)
}

// RunContext is Run with cancellation: a cancelled or expired ctx stops
// workers from starting new tasks and the call returns ctx.Err(). By
// the time it returns — success, failure, or cancellation — every
// goroutine the run spawned has joined, so runs never leak workers.
// Injected worker faults and panics anywhere in the data path likewise
// surface as errors rather than crashing the process. It reads the
// snapshot it takes at entry of everything the plan names.
func (e *Engine) RunContext(ctx context.Context, plan query.Node, capture map[query.Node]Capture) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	snap, err := e.SnapshotTables(query.BaseTables(plan))
	if err != nil {
		return Result{}, err
	}
	e.BindFiles(snap, plan)
	return e.RunSnapshot(ctx, snap, plan, capture)
}

// Snapshot is what one plan execution reads: the base tables and the
// stored files the plan names, bound before it runs. The catalog and the
// store publish a fresh value on every change and never write one they
// published, so a snapshot stays exact while appends, refreshes,
// evictions and splits move on: a running plan reads one state, the one
// it was planned against, and nothing can be taken from under it.
type Snapshot struct {
	base  map[string]*relation.Table
	files map[string]StoredFile
}

// SnapshotTables binds the named base tables under one catalog-lock
// acquisition, so their row counts are mutually consistent. Unknown
// tables are an error.
func (e *Engine) SnapshotTables(names []string) (*Snapshot, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	s := &Snapshot{base: make(map[string]*relation.Table, len(names)), files: make(map[string]StoredFile)}
	for _, n := range names {
		t := e.base[n]
		if t == nil {
			return nil, fmt.Errorf("engine: unknown base table %q", n)
		}
		s.base[n] = t
	}
	return s, nil
}

// BindFiles adds to s every stored file plan reads, under one store-lock
// acquisition. A file the plan names that is not stored stays out: the
// run that reads it fails.
func (e *Engine) BindFiles(s *Snapshot, plan query.Node) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	query.Walk(plan, func(n query.Node) {
		vs, ok := n.(*query.ViewScan)
		if !ok {
			return
		}
		paths := vs.FragIDs
		if len(paths) == 0 {
			paths = []string{vs.ViewPath}
		}
		for _, p := range paths {
			if f, ok := e.files[p]; ok {
				s.files[p] = f
			}
		}
	})
}

// Counts returns the row count of every base table in the snapshot.
func (s *Snapshot) Counts() map[string]int64 {
	out := make(map[string]int64, len(s.base))
	for n, t := range s.base {
		out[n] = int64(len(t.Rows))
	}
	return out
}

// RunSnapshot is RunContext over a snapshot the caller bound: the plan
// reads its base tables and stored files from snap and from nothing
// else.
func (e *Engine) RunSnapshot(ctx context.Context, snap *Snapshot, plan query.Node, capture map[query.Node]Capture) (res Result, err error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if err := checkCaptures(capture); err != nil {
		return Result{}, err
	}
	res = *newResult()
	// One worker budget per Run: intra-operator chunk workers and
	// inter-operator sibling tasks draw from the same Parallelism-sized
	// token pool. The budget also carries the run's context and fault
	// source, checked once per task.
	bud := newBudget(e.par())
	bud.ctx = ctx
	bud.faults = e.faults
	bud.snap = snap
	// Panics on the calling goroutine (operator setup and merge steps
	// outside the task pools) become errors too; forEachTask has already
	// recovered worker-goroutine panics into the budget by this point.
	defer func() {
		if r := recover(); r != nil {
			res = Result{}
			err = fmt.Errorf("engine: execution panic: %v", r)
		}
	}()
	out, evalErr := e.eval(plan, capture, &res, bud)
	if evalErr == nil {
		// A worker fault or panic may be recorded without surfacing
		// through eval's return path (the merge step tolerates partial
		// slots); the budget's first error is authoritative.
		evalErr = bud.abortErr()
	}
	if evalErr != nil {
		return Result{}, evalErr
	}
	e.settle(&out)
	res.Table = out.tbl
	res.Cost = out.cost
	return res, nil
}

// evalOut carries a subtree's rows, accumulated cost, and — when the
// subtree's output currently "lives in storage" (a scan or view read not
// yet consumed by a job) — the bytes/files the consuming job will read.
// Map-side operators (select/project) pass pending state through: the
// consuming job reads the stored bytes and filters for free.
type evalOut struct {
	tbl     *relation.Table
	cost    Cost
	pending bool
	// needsWrite marks job outputs (join/aggregate) that must still be
	// written to HDFS. Map-side selections and projections shrink
	// srcBytes before the write happens, which is how Hive's fused
	// projection keeps intermediates narrow.
	needsWrite bool
	srcBytes   int64
	srcFiles   int64
}

// settle charges the materialization (for job outputs) and the read of a
// pending stored output.
func (e *Engine) settle(o *evalOut) {
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

func (e *Engine) eval(n query.Node, capture map[query.Node]Capture, res *Result, bud *budget) (evalOut, error) {
	// Abort between nodes once the run has failed or been cancelled, so
	// deep plans stop promptly instead of evaluating doomed subtrees.
	if err := bud.abortErr(); err != nil {
		return evalOut{}, err
	}
	out, err := e.evalNode(n, capture, res, bud)
	if err != nil {
		return out, err
	}
	if c := capture[n]; c.Level != 0 {
		res.CapturedBytes[n] = out.tbl.Bytes()
		if c.Level == CaptureRows {
			res.Captured[n] = capturedRows(out.tbl, c, bud)
		}
	}
	return out, nil
}

// capturedRows cuts a captured node's output down to the request's range.
// This is the capture point of every node the probe kernel does not
// serve from inside a chain: a chain's top, a view scan, an aggregate.
func capturedRows(t *relation.Table, c Capture, bud *budget) *relation.Table {
	if !c.ranged() {
		return t
	}
	var preds boundPreds
	preds.addIn(t.Schema.ColIndex(c.Col), c.Ivs)
	out := relation.NewTable(t.Schema)
	out.Rows = filterRows(t.Rows, &preds, bud)
	return out
}

// evalSiblings evaluates independent sibling subplans, concurrently when
// the budget has free workers. Every spawned sibling gets a private
// capture map that is merged into res in sibling order after all
// siblings finish, so capture writes never race; outputs come back in
// sibling order and errors surface in sibling order — the results are
// byte-identical to a left-to-right sequential evaluation.
func (e *Engine) evalSiblings(nodes []query.Node, capture map[query.Node]Capture, res *Result, bud *budget) ([]evalOut, error) {
	outs := make([]evalOut, len(nodes))
	errs := make([]error, len(nodes))
	subs := make([]*Result, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		// The last sibling always runs inline so the calling goroutine
		// contributes; earlier siblings spawn only while tokens are free.
		if i < len(nodes)-1 && bud.tryAcquire() {
			sub := newResult()
			subs[i] = sub
			wg.Add(1)
			go func(i int, n query.Node) {
				defer wg.Done()
				defer bud.release()
				outs[i], errs[i] = e.eval(n, capture, sub, bud)
			}(i, n)
			continue
		}
		outs[i], errs[i] = e.eval(n, capture, res, bud)
	}
	wg.Wait()
	for _, sub := range subs {
		if sub != nil {
			res.absorb(sub)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

func (e *Engine) evalNode(n query.Node, capture map[query.Node]Capture, res *Result, bud *budget) (evalOut, error) {
	// A join, alone or under a projection and a selection, is one probe
	// pass — and so is a chain of such stacks, each probing with the
	// output of the one under it — unless the caller wants all the rows
	// of a node inside.
	if f, ok := fuseJoin(n, capture); ok {
		f.extend(capture)
		return e.evalJoin(&f, capture, res, bud)
	}
	switch t := n.(type) {
	case *query.Scan:
		tbl := bud.snap.base[t.Table]
		if tbl == nil {
			return evalOut{}, fmt.Errorf("engine: base table %q is not in the run's snapshot", t.Table)
		}
		return evalOut{tbl: tbl, pending: true, srcBytes: tbl.Bytes(), srcFiles: 1}, nil

	case *query.Select:
		child, err := e.eval(t.Child, capture, res, bud)
		if err != nil {
			return evalOut{}, err
		}
		child.tbl = filterTable(child.tbl, t.Ranges, t.Residuals, bud)
		if child.needsWrite {
			child.srcBytes = child.tbl.Bytes()
		}
		return child, nil

	case *query.Project:
		child, err := e.eval(t.Child, capture, res, bud)
		if err != nil {
			return evalOut{}, err
		}
		child.tbl = projectTable(child.tbl, t.Cols, bud)
		if child.needsWrite {
			child.srcBytes = child.tbl.Bytes()
		}
		return child, nil

	case *query.Aggregate:
		child, err := e.eval(t.Child, capture, res, bud)
		if err != nil {
			return evalOut{}, err
		}
		e.settle(&child)
		outTbl := aggregate(child.tbl, t, bud)
		cost := child.cost
		shuffle := child.tbl.Bytes()
		cost.Add(Cost{
			Seconds:      e.cm.JobStartup + float64(shuffle)/e.cm.ShuffleBW,
			ShuffleBytes: shuffle,
			Jobs:         1,
		})
		return evalOut{tbl: outTbl, cost: cost, pending: true, needsWrite: true,
			srcBytes: outTbl.Bytes(), srcFiles: 1}, nil

	case *query.ViewScan:
		return e.evalViewScan(t, capture, res, bud)

	default:
		return evalOut{}, fmt.Errorf("engine: unsupported node type %T", n)
	}
}

// evalJoin evaluates a fused join chain: all its inputs as siblings,
// then its probe passes. The nodes inside the chain never exist as
// tables: the size of one, at either capture level, is answered from
// its level's counts, and the rows of a ranged capture are a pass's
// second output. The cost is the one of the operators run one after the
// other — every join a job whose output is written and read back by the
// next — computed from the same counts.
func (e *Engine) evalJoin(f *fusedJoin, capture map[query.Node]Capture, res *Result, bud *budget) (evalOut, error) {
	ins, err := e.evalSiblings(f.inputs(), capture, res, bud)
	if err != nil {
		return evalOut{}, err
	}
	uppers := make([]*relation.Table, len(ins)-2)
	for i := range ins {
		e.settle(&ins[i])
		if i >= 2 {
			uppers[i-2] = ins[i].tbl
		}
	}
	l, r := ins[0], ins[1]
	var out evalOut
	for _, s := range f.probe(l.tbl, r.tbl, buildsLeft(len(l.tbl.Rows), len(r.tbl.Rows)), uppers, bud) {
		if s.lo > 0 {
			// A cut: the pass under this one wrote its output.
			e.settle(&out)
			l, r = out, ins[s.lo+1]
		}
		out = e.joinJob(l, r, l.tbl.Bytes(), r.tbl.Bytes())
		for k := s.lo + 1; k < s.hi; k++ {
			below := f.levels[k-1].top().Schema()
			chain := int64(s.counts[k-1-s.lo].passed) * below.RowWidth()
			out.srcBytes = chain
			e.settle(&out)
			out = e.joinJob(out, ins[k+1], chain, ins[k+1].tbl.Bytes())
		}
		out.tbl = s.out
		out.srcBytes = s.out.Bytes()
		for k := s.lo; k < s.hi; k++ {
			lv, c := &f.levels[k], s.counts[k-s.lo]
			for _, m := range lv.nodes {
				if capture[m].Level == 0 || m == f.top() {
					continue
				}
				rows := c.joined
				if m == lv.top() {
					rows = c.passed
				}
				schema := m.Schema()
				res.CapturedBytes[m] = int64(rows) * schema.RowWidth()
			}
		}
		if s.captured != nil {
			res.Captured[f.ranged] = s.captured
		}
	}
	return out, nil
}

// joinJob is one join job over settled inputs that shuffle lBytes and
// rBytes. Its output write is deferred to settle: map-side projections
// and selections, fused or applied above, shrink it first.
func (e *Engine) joinJob(l, r evalOut, lBytes, rBytes int64) evalOut {
	cost := l.cost
	cost.Add(r.cost)
	shuffle := lBytes + rBytes
	cost.Add(Cost{
		Seconds:      e.cm.JobStartup + float64(shuffle)/e.cm.ShuffleBW,
		ShuffleBytes: shuffle,
		Jobs:         1,
	})
	return evalOut{cost: cost, pending: true, needsWrite: true, srcFiles: 1}
}

// evalViewScan reads a materialized view (whole or as a fragment cover),
// applies compensation, and unions in the remainder subplans computing
// uncovered gaps. The stored-fragment filters and the per-gap remainder
// subplans are independent, so they all run as one task pool over the
// shared budget; their outputs merge in the fixed order fragments-then-
// remainders, identical to a sequential evaluation.
func (e *Engine) evalViewScan(v *query.ViewScan, capture map[query.Node]Capture, res *Result, bud *budget) (evalOut, error) {
	// A fragment cover pairs every fragment with its clip range; a
	// mismatch means the matcher produced a malformed plan, which must
	// surface as an error, not an index panic mid-execution.
	if len(v.FragIDs) > 0 && len(v.Reads) != len(v.FragIDs) {
		return evalOut{}, fmt.Errorf("engine: malformed ViewScan for view %s: %d fragments but %d clip ranges",
			v.ViewID, len(v.FragIDs), len(v.Reads))
	}

	// Take the stored sources from the run's snapshot, sequentially, so
	// read faults surface before any rows are touched.
	type storedSrc struct {
		tbl  *relation.Table
		clip *interval.Interval
	}
	paths := v.FragIDs
	if len(paths) == 0 {
		paths = []string{v.ViewPath}
	}
	srcs := make([]storedSrc, len(paths))
	var srcBytes int64
	for i, path := range paths {
		f, ok := bud.snap.files[path]
		if !ok {
			return evalOut{}, fmt.Errorf("engine: file %s of view %s is not stored", path, v.ViewID)
		}
		// An injected read fault on a stored file fails the run; the
		// fault's Key names the path so the caller can quarantine
		// exactly the file that failed and replan around it.
		if err := e.faults.Check(faults.StorageRead, path); err != nil {
			return evalOut{}, fmt.Errorf("engine: read %s of view %s: %w", path, v.ViewID, err)
		}
		srcBytes += f.Size
		srcs[i].tbl = f.Rows
		if len(v.FragIDs) > 0 {
			srcs[i].clip = &v.Reads[i]
		}
	}
	srcFiles := int64(len(srcs))

	// filterStored keeps the stored rows passing the clip range and the
	// compensating predicates, preserving row order.
	filterStored := func(tbl *relation.Table, clip *interval.Interval) ([]relation.Row, error) {
		if tbl == nil {
			return nil, fmt.Errorf("engine: view %s has no stored rows (restored without a payload?)", v.ViewID)
		}
		preds := bindPreds(&tbl.Schema, v.CompRanges, v.CompResiduals)
		if clip != nil {
			attrIdx := tbl.Schema.ColIndex(v.PartAttr)
			if attrIdx < 0 {
				return nil, fmt.Errorf("engine: partition attribute %q missing from view %s", v.PartAttr, v.ViewID)
			}
			preds.addRange(attrIdx, *clip)
		}
		return filterRows(tbl.Rows, &preds, bud), nil
	}

	// Remainder rows are aligned to the post-compensation schema before
	// the union.
	target := v.Schema()

	// One task per stored source plus one per remainder subplan, all on
	// the shared budget. Each task writes only its own slot; remainder
	// tasks capture into private maps merged in remainder order below.
	nf := len(srcs)
	fragRows := make([][]relation.Row, nf)
	fragErrs := make([]error, nf)
	remOuts := make([]evalOut, len(v.Remainders))
	remRows := make([][]relation.Row, len(v.Remainders))
	remErrs := make([]error, len(v.Remainders))
	remSubs := make([]*Result, len(v.Remainders))
	forEachTask(bud, nf+len(v.Remainders), func(ti int) {
		if ti < nf {
			fragRows[ti], fragErrs[ti] = filterStored(srcs[ti].tbl, srcs[ti].clip)
			return
		}
		i := ti - nf
		sub := newResult()
		remSubs[i] = sub
		out, err := e.eval(v.Remainders[i], capture, sub, bud)
		if err != nil {
			remErrs[i] = err
			return
		}
		e.settle(&out)
		aligned, err := alignColumns(out.tbl, target, bud)
		if err != nil {
			remErrs[i] = err
			return
		}
		remOuts[i] = out
		remRows[i] = aligned.Rows
	})
	for _, err := range fragErrs {
		if err != nil {
			return evalOut{}, err
		}
	}
	for _, err := range remErrs {
		if err != nil {
			return evalOut{}, err
		}
	}
	for _, sub := range remSubs {
		res.absorb(sub)
	}

	out := relation.NewTable(v.ViewSchema)
	for _, rows := range fragRows {
		out.Rows = append(out.Rows, rows...)
	}
	outTbl := out
	if v.CompProject != nil {
		outTbl = projectTable(outTbl, v.CompProject, bud)
	}
	var cost Cost
	for i := range v.Remainders {
		cost.Add(remOuts[i].cost)
		outTbl.Rows = append(outTbl.Rows, remRows[i]...)
	}

	return evalOut{tbl: outTbl, cost: cost, pending: true, srcBytes: srcBytes, srcFiles: srcFiles}, nil
}

// filterTable applies a conjunction of range and residual predicates,
// evaluating fixed-size row chunks on the budget's workers.
func filterTable(t *relation.Table, ranges []query.RangePred, residuals []query.CmpPred, bud *budget) *relation.Table {
	if len(ranges) == 0 && len(residuals) == 0 {
		return t
	}
	preds := bindPreds(&t.Schema, ranges, residuals)
	out := relation.NewTable(t.Schema)
	out.Rows = filterRows(t.Rows, &preds, bud)
	return out
}

// filterRows keeps the rows passing preds, in order, evaluating
// fixed-size chunks on the budget's workers. The kept rows are shared
// with the input, not copied.
func filterRows(rows []relation.Row, preds *boundPreds, bud *budget) []relation.Row {
	n := len(rows)
	parts := make([][]relation.Row, numChunks(n))
	forEachChunk(bud, n, func(c, lo, hi int) {
		var keep []relation.Row
		for _, row := range rows[lo:hi] {
			if preds.pass(row) {
				keep = append(keep, row)
			}
		}
		parts[c] = keep
	})
	return concatChunks(parts)
}

func projectTable(t *relation.Table, cols []string, bud *budget) *relation.Table {
	idx := make([]int, len(cols))
	for i, c := range cols {
		idx[i] = t.Schema.ColIndex(c)
		if idx[i] < 0 {
			panic(fmt.Sprintf("engine: projection column %q missing from %s", c, t.Schema.String()))
		}
	}
	out := relation.NewTable(t.Schema.Project(cols))
	n := len(t.Rows)
	out.Rows = make([]relation.Row, n)
	forEachChunk(bud, n, func(_, lo, hi int) {
		slab := relation.NewSlab(len(idx), hi-lo)
		for r := lo; r < hi; r++ {
			row := t.Rows[r]
			nr := slab.Next()
			for i, j := range idx {
				nr[i] = row[j]
			}
			out.Rows[r] = nr
		}
	})
	return out
}

// alignColumns reorders t's columns by name to match the target schema.
func alignColumns(t *relation.Table, target relation.Schema, bud *budget) (*relation.Table, error) {
	same := len(t.Schema.Cols) == len(target.Cols)
	if same {
		for i := range target.Cols {
			if t.Schema.Cols[i].Name != target.Cols[i].Name {
				same = false
				break
			}
		}
	}
	if same {
		return t, nil
	}
	if len(t.Schema.Cols) != len(target.Cols) {
		return nil, fmt.Errorf("engine: cannot align %s to %s", t.Schema.String(), target.String())
	}
	cols := make([]string, len(target.Cols))
	for i, c := range target.Cols {
		if t.Schema.ColIndex(c.Name) < 0 {
			return nil, fmt.Errorf("engine: cannot align %s to %s", t.Schema.String(), target.String())
		}
		cols[i] = c.Name
	}
	return projectTable(t, cols, bud), nil
}

// aggState accumulates one aggregate function over one group. Sums and
// averages accumulate into acc, the exact accumulator: a plain float
// fold is not associative, so only acc can cross a merge boundary — a
// chunk merge, a shard merge, or an incremental view refresh — without
// breaking byte-identity. Full mode rounds acc once at render time;
// partial mode emits its lossless encoding.
type aggState struct {
	count int64
	acc   *exactAcc
	minI  int64
	maxI  int64
	minF  float64
	maxF  float64
	minS  string
	maxS  string
	seen  bool
}

// aggGroup is one group's key and per-aggregate accumulator states.
type aggGroup struct {
	key    relation.Row
	states []aggState
}

// chunkAgg holds one chunk's partial aggregation: its groups plus their
// first-appearance order within the chunk.
type chunkAgg struct {
	groups map[string]*aggGroup
	order  []string
}

// aggregate groups and aggregates t's rows. Each fixed-size chunk is
// aggregated independently; chunk partials then merge in chunk order, so
// the global group order is first appearance in row order and every
// floating-point partial sum combines in the same association
// regardless of the worker count — the output is byte-identical to a
// sequential run.
func aggregate(t *relation.Table, a *query.Aggregate, bud *budget) *relation.Table {
	inSchema := &t.Schema
	gIdx := make([]int, len(a.GroupBy))
	for i, g := range a.GroupBy {
		gIdx[i] = inSchema.ColIndex(g)
		if gIdx[i] < 0 {
			panic(fmt.Sprintf("engine: group-by column %q missing", g))
		}
	}
	aIdx := make([]int, len(a.Aggs))
	for i, sp := range a.Aggs {
		if sp.Func == query.Count {
			aIdx[i] = -1
			continue
		}
		aIdx[i] = inSchema.ColIndex(sp.Col)
		if aIdx[i] < 0 {
			panic(fmt.Sprintf("engine: aggregate column %q missing", sp.Col))
		}
	}

	n := len(t.Rows)
	chunks := make([]chunkAgg, numChunks(n))
	forEachChunk(bud, n, func(c, lo, hi int) {
		groups := make(map[string]*aggGroup)
		var order []string
		var keyBuf []byte
		for _, row := range t.Rows[lo:hi] {
			keyBuf = keyBuf[:0]
			for _, i := range gIdx {
				keyBuf = relation.AppendKey(keyBuf, inSchema.Cols[i].Type, row[i])
			}
			// The conversion in the index expression does not allocate;
			// the key string exists only once its group does.
			g, ok := groups[string(keyBuf)]
			if !ok {
				k := string(keyBuf)
				key := make(relation.Row, len(gIdx))
				for i, j := range gIdx {
					key[i] = row[j]
				}
				g = &aggGroup{key: key, states: make([]aggState, len(a.Aggs))}
				groups[k] = g
				order = append(order, k)
			}
			accumulateRow(g, row, a, aIdx, inSchema)
		}
		chunks[c] = chunkAgg{groups: groups, order: order}
	})

	merged := make(map[string]*aggGroup)
	var order []string
	for _, ch := range chunks {
		for _, k := range ch.order {
			g := ch.groups[k]
			m, ok := merged[k]
			if !ok {
				merged[k] = g
				order = append(order, k)
				continue
			}
			mergeStates(m.states, g.states, a)
		}
	}

	out := relation.NewTable(a.Schema())
	for _, k := range order {
		g := merged[k]
		row := make(relation.Row, 0, len(gIdx)+len(a.Aggs))
		row = append(row, g.key...)
		for i, sp := range a.Aggs {
			st := &g.states[i]
			var typ relation.Type
			if aIdx[i] >= 0 {
				typ = inSchema.Cols[aIdx[i]].Type
			}
			if a.Partial {
				row = appendPartialState(row, sp, st, typ)
				continue
			}
			switch sp.Func {
			case query.Count:
				row = append(row, relation.IntVal(st.count))
			case query.Sum:
				row = append(row, relation.FloatVal(st.exactSum()))
			case query.Avg:
				row = append(row, relation.FloatVal(st.exactSum()/float64(st.count)))
			case query.Min:
				row = append(row, pickValue(typ, st.minI, st.minF, st.minS))
			case query.Max:
				row = append(row, pickValue(typ, st.maxI, st.maxF, st.maxS))
			}
		}
		out.Append(row)
	}
	return out
}

// appendPartialState emits one aggregate's mergeable accumulator state,
// matching the PartialCols schema expansion: counts as ints, sums as
// exact encodings, min/max as typed values.
func appendPartialState(row relation.Row, sp query.AggSpec, st *aggState, typ relation.Type) relation.Row {
	switch sp.Func {
	case query.Count:
		return append(row, relation.IntVal(st.count))
	case query.Sum:
		return append(row, relation.StringVal(st.partialSum()))
	case query.Avg:
		return append(row, relation.StringVal(st.partialSum()), relation.IntVal(st.count))
	case query.Min:
		return append(row, pickValue(typ, st.minI, st.minF, st.minS))
	default: // Max
		return append(row, pickValue(typ, st.maxI, st.maxF, st.maxS))
	}
}

// partialSum encodes the exact accumulator (an empty accumulator — a
// group whose rows never reached a sum — encodes as exact zero).
func (st *aggState) partialSum() string {
	if st.acc == nil {
		var zero exactAcc
		return zero.encode()
	}
	return st.acc.encode()
}

// exactSum rounds the exact accumulator to float64 — the single
// rounding step of a full-mode sum (0 for a group that never reached a
// summable value, matching an empty accumulator).
func (st *aggState) exactSum() float64 {
	if st.acc == nil {
		return 0
	}
	return st.acc.float64()
}

// accumulateRow folds one input row into a group's aggregate states.
// Sums fold into the exact accumulator in both modes: the same addends,
// but in an associative domain, so the state survives a merge boundary
// byte-identically and a full-mode render agrees with any partition of
// the rows into partials.
func accumulateRow(g *aggGroup, row relation.Row, a *query.Aggregate, aIdx []int, inSchema *relation.Schema) {
	for i, sp := range a.Aggs {
		st := &g.states[i]
		st.count++
		if sp.Func == query.Count {
			continue
		}
		v := row[aIdx[i]]
		typ := inSchema.Cols[aIdx[i]].Type
		if (sp.Func == query.Sum || sp.Func == query.Avg) && typ != relation.String {
			if st.acc == nil {
				st.acc = &exactAcc{}
			}
			if typ == relation.Int {
				st.acc.add(float64(v.Int()))
			} else {
				st.acc.add(v.Float())
			}
		}
		switch typ {
		case relation.Int:
			if !st.seen || v.Int() < st.minI {
				st.minI = v.Int()
			}
			if !st.seen || v.Int() > st.maxI {
				st.maxI = v.Int()
			}
		case relation.Float:
			if !st.seen || v.Float() < st.minF {
				st.minF = v.Float()
			}
			if !st.seen || v.Float() > st.maxF {
				st.maxF = v.Float()
			}
		default:
			if !st.seen || v.Str() < st.minS {
				st.minS = v.Str()
			}
			if !st.seen || v.Str() > st.maxS {
				st.maxS = v.Str()
			}
		}
		st.seen = true
	}
}

// mergeStates folds a later chunk's partial states (src) into an earlier
// chunk's (dst). Sums combine in chunk order, which is fixed by the
// input size, so float association never depends on the worker count.
func mergeStates(dst, src []aggState, a *query.Aggregate) {
	for i := range dst {
		d, s := &dst[i], &src[i]
		d.count += s.count
		if a.Aggs[i].Func == query.Count || !s.seen {
			continue
		}
		if s.acc != nil {
			if d.acc == nil {
				d.acc = &exactAcc{}
			}
			d.acc.merge(s.acc)
		}
		if !d.seen {
			d.minI, d.maxI = s.minI, s.maxI
			d.minF, d.maxF = s.minF, s.maxF
			d.minS, d.maxS = s.minS, s.maxS
			d.seen = true
			continue
		}
		if s.minI < d.minI {
			d.minI = s.minI
		}
		if s.maxI > d.maxI {
			d.maxI = s.maxI
		}
		if s.minF < d.minF {
			d.minF = s.minF
		}
		if s.maxF > d.maxF {
			d.maxF = s.maxF
		}
		if s.minS < d.minS {
			d.minS = s.minS
		}
		if s.maxS > d.maxS {
			d.maxS = s.maxS
		}
	}
}

func pickValue(typ relation.Type, i int64, f float64, s string) relation.Value {
	switch typ {
	case relation.Int:
		return relation.IntVal(i)
	case relation.Float:
		return relation.FloatVal(f)
	default:
		return relation.StringVal(s)
	}
}
