package engine

import (
	"fmt"

	"deepsea/internal/interval"
	"deepsea/internal/query"
	"deepsea/internal/relation"
)

// The probe kernel. Query templates keep the range selection above the
// projected join so the join stays a view candidate (Section 10.2), but
// that is a statement about the logical plan: nothing above the engine
// reads the rows of an intermediate it did not ask to capture, only
// their count. So a Select over a Project over a Join — or any suffix
// of that stack — is evaluated as one pass over the probe side that
// tests the predicates on the source rows and writes only the
// surviving, already-projected output rows. A bare Join is the same
// pass with the identity projection and no predicates.
//
// The one intermediate a caller does read is a view it is about to
// store, and then only the part of it the pool admitted: a row capture
// restricted to a range (Capture.Col, Capture.Ivs). The pass serves one
// such capture of a node inside the stack as a second output — per
// matching pair it counts the pair, writes the captured node's columns
// if the pair lies in the capture's range, and writes the stack's own
// output row if the pair passes the selection. Both outputs are the same
// thing to the kernel: a column list plus predicates split by the input
// row they read (emitSpec). An unrestricted row capture inside the stack
// still stops the fusion: all of the node would have to be written, which
// is what evaluating it on its own does.

// boundPreds is a conjunction of range and residual predicates with
// column names resolved to row indices once per operator, not once per
// row. A predicate over a column the schema lacks matches nothing.
type boundPreds struct {
	ranges []boundRange
	cmps   []boundCmp
	ins    []boundIn
	never  bool
}

type boundRange struct {
	idx int
	iv  interval.Interval
}

type boundCmp struct {
	idx  int
	pred query.CmpPred
}

// boundIn holds for a row whose column lies in one of ivs, which are
// sorted and disjoint (a ranged capture's intervals).
type boundIn struct {
	idx int
	ivs []interval.Interval
}

func bindPreds(s *relation.Schema, ranges []query.RangePred, residuals []query.CmpPred) boundPreds {
	var b boundPreds
	for _, p := range ranges {
		b.addRange(s.ColIndex(p.Col), p.Iv)
	}
	for _, p := range residuals {
		b.addCmp(s.ColIndex(p.Col), p)
	}
	return b
}

func (b *boundPreds) addRange(idx int, iv interval.Interval) {
	if idx < 0 {
		b.never = true
		return
	}
	b.ranges = append(b.ranges, boundRange{idx, iv})
}

func (b *boundPreds) addCmp(idx int, p query.CmpPred) {
	if idx < 0 {
		b.never = true
		return
	}
	b.cmps = append(b.cmps, boundCmp{idx, p})
}

func (b *boundPreds) addIn(idx int, ivs []interval.Interval) {
	if idx < 0 {
		b.never = true
		return
	}
	b.ins = append(b.ins, boundIn{idx, ivs})
}

// empty reports whether every row passes.
func (b *boundPreds) empty() bool {
	return !b.never && len(b.ranges) == 0 && len(b.cmps) == 0 && len(b.ins) == 0
}

func (p *boundIn) contains(v int64) bool {
	for _, iv := range p.ivs {
		if v < iv.Lo {
			return false
		}
		if v <= iv.Hi {
			return true
		}
	}
	return false
}

func (b *boundPreds) pass(row relation.Row) bool {
	if b.never {
		return false
	}
	for i := range b.ranges {
		if p := &b.ranges[i]; !p.iv.Contains(row[p.idx].Int()) {
			return false
		}
	}
	for i := range b.cmps {
		if p := &b.cmps[i]; !p.pred.Eval(row[p.idx]) {
			return false
		}
	}
	for i := range b.ins {
		if p := &b.ins[i]; !p.contains(row[p.idx].Int()) {
			return false
		}
	}
	return true
}

// fusedJoin is a Select?(Project?(Join)) stack the kernel evaluates in
// one pass: top is the node whose output the pass produces.
type fusedJoin struct {
	top  query.Node
	sel  *query.Select  // nil when the stack has no selection
	proj *query.Project // nil when the stack has no projection
	join *query.Join
	// below lists the stack's nodes under top, which the pass never
	// materializes. Their outputs all have the join's cardinality: a
	// projection keeps every row.
	below []query.Node
	// ranged is the node of below whose rows inside want's range the pass
	// writes to its second output; nil when the caller asked for none.
	ranged query.Node
	want   Capture
}

// fuseJoin recognises the stack rooted at n. capture is the run's
// capture map: a node under top whose every row the caller will read
// stops the fusion and becomes the top of its own, shorter stack; one
// ranged capture under top rides along as the pass's second output, and
// a second one stops the fusion like a whole capture.
func fuseJoin(n query.Node, capture map[query.Node]Capture) (fusedJoin, bool) {
	f := fusedJoin{top: n}
	inner := n
	if s, ok := inner.(*query.Select); ok {
		f.sel, inner = s, s.Child
	}
	if p, ok := inner.(*query.Project); ok {
		f.proj, inner = p, p.Child
	}
	j, ok := inner.(*query.Join)
	if !ok {
		return fusedJoin{}, false
	}
	f.join = j
	if f.proj != nil && f.sel != nil {
		f.below = append(f.below, f.proj)
	}
	if f.proj != nil || f.sel != nil {
		f.below = append(f.below, f.join)
	}
	for _, m := range f.below {
		c := capture[m]
		if c.Level != CaptureRows {
			continue
		}
		if !c.ranged() || f.ranged != nil {
			return fusedJoin{}, false
		}
		f.ranged, f.want = m, c
	}
	return f, true
}

// colSrc names the source of one output column: a column of the join's
// left or right input.
type colSrc struct {
	right bool
	idx   int
}

// emitSpec is one output of the pass, as what the kernel writes per
// matching (left, right) row pair: the output columns' sources, and the
// predicates a pair must pass to be written at all, split by the input
// row they read.
type emitSpec struct {
	schema         relation.Schema
	cols           []colSrc
	lPreds, rPreds boundPreds
}

// side resolves a column of the output to the predicates of the input
// row it comes from and its index there (-1 when the output lacks it).
func (sp *emitSpec) side(col string) (*boundPreds, int) {
	i := sp.schema.ColIndex(col)
	if i < 0 {
		return &sp.lPreds, -1
	}
	if s := sp.cols[i]; s.right {
		return &sp.rPreds, s.idx
	}
	return &sp.lPreds, sp.cols[i].idx
}

// columns resolves the output columns of the join (proj == nil) or of a
// projection over it against the join's inputs; nl is the width of a
// left input row.
func (f *fusedJoin) columns(proj *query.Project, nl int) emitSpec {
	js := f.join.Schema()
	src := func(i int) colSrc {
		if i < nl {
			return colSrc{idx: i}
		}
		return colSrc{right: true, idx: i - nl}
	}
	if proj == nil {
		sp := emitSpec{schema: js, cols: make([]colSrc, len(js.Cols))}
		for i := range sp.cols {
			sp.cols[i] = src(i)
		}
		return sp
	}
	sp := emitSpec{schema: js.Project(proj.Cols), cols: make([]colSrc, len(proj.Cols))}
	for i, c := range proj.Cols {
		j := js.ColIndex(c)
		if j < 0 {
			panic(fmt.Sprintf("engine: projection column %q missing from %s", c, js.String()))
		}
		sp.cols[i] = src(j)
	}
	return sp
}

// specs resolves the stack against the join's inputs: the output of top
// and, when the stack carries a ranged capture, the second output.
func (f *fusedJoin) specs(nl int) (out emitSpec, captured *emitSpec) {
	out = f.columns(f.proj, nl)
	if f.sel != nil {
		// A predicate reads the selection's input — the projected row —
		// so it resolves through the output columns to an input column.
		for _, p := range f.sel.Ranges {
			b, i := out.side(p.Col)
			b.addRange(i, p.Iv)
		}
		for _, p := range f.sel.Residuals {
			b, i := out.side(p.Col)
			b.addCmp(i, p)
		}
	}
	if f.ranged != nil {
		proj := f.proj
		if f.ranged == query.Node(f.join) {
			proj = nil
		}
		sp := f.columns(proj, nl)
		b, i := sp.side(f.want.Col)
		b.addIn(i, f.want.Ivs)
		captured = &sp
	}
	return out, captured
}

// joinTable is the build side's hash index: heads[slot] starts a chain
// through next of the build rows whose key hashes to slot, in build-row
// order; entries are row index + 1, 0 ends a chain. Two flat arrays,
// whatever the number of keys.
type joinTable struct {
	heads, next []int32
	shift       uint
}

// slot hashes a key with the 64-bit golden-ratio multiplier and keeps
// the top bits.
func (t *joinTable) slot(k int64) int {
	return int(uint64(k) * 0x9E3779B97F4A7C15 >> t.shift)
}

// buildJoinTable indexes rows by their key column. The slots are dealt
// out in contiguous ranges to one task per configured worker — by
// configuration, never by token availability — and a task writes only
// its own slots and its own rows' chain links, so the table is the
// same for every budget.
func buildJoinTable(rows []relation.Row, key int, bud *budget) *joinTable {
	bits := uint(1)
	for 1<<bits < 2*len(rows) {
		bits++
	}
	t := &joinTable{heads: make([]int32, 1<<bits), next: make([]int32, len(rows)), shift: 64 - bits}
	nb := bud.par()
	forEachTask(bud, nb, func(b int) {
		for i := len(rows) - 1; i >= 0; i-- {
			s := t.slot(rows[i][key].Int())
			if s*nb>>bits != b {
				continue
			}
			t.next[i] = t.heads[s]
			t.heads[s] = int32(i + 1)
		}
	})
	return t
}

// buildsLeft is the join's orientation rule: the hash table goes on the
// left input unless the left is strictly larger.
func buildsLeft(lRows, rRows int) bool { return lRows <= rRows }

// firstBlockRows is the first block of an output that predicates thin
// out: what survives a chunk is unknown and usually a small share of it.
const firstBlockRows = 16

// rowBlocks is one chunk's share of one output: rows are written into
// blocks of cells, each twice the size of the last up to
// relation.SlabRows, and get their headers only when the chunks are
// assembled (assembleRows). A chunk therefore allocates per block —
// log2(SlabRows) of them before the size settles — never per row, and
// nothing sized for rows that did not survive.
type rowBlocks struct {
	width int
	n     int // rows handed out
	next  int // rows the next block holds
	// blocks holds every block, in order; free is the unused tail of the
	// last.
	blocks [][]relation.Value
	free   []relation.Value
}

// newRowBlocks returns an empty output of rows width values wide whose
// first block holds first rows.
func newRowBlocks(width, first int) rowBlocks {
	return rowBlocks{width: width, next: max(first, 1)}
}

// row returns the next row to fill. Like a Slab's, it has cap == len.
func (b *rowBlocks) row() relation.Row {
	if len(b.free) < b.width {
		if b.blocks == nil {
			b.blocks = make([][]relation.Value, 0, 8)
		}
		size := min(b.next, relation.SlabRows)
		b.next = 2 * size
		b.free = make([]relation.Value, size*b.width)
		b.blocks = append(b.blocks, b.free)
	}
	b.n++
	r := b.free[:b.width:b.width]
	b.free = b.free[b.width:]
	return r
}

// assembleRows makes the headers of every row written to parts, in part
// order and within a part in the order written.
func assembleRows(parts []rowBlocks) []relation.Row {
	total := 0
	for i := range parts {
		total += parts[i].n
	}
	out := make([]relation.Row, 0, total)
	for i := range parts {
		p := &parts[i]
		var blk []relation.Value
		next := 0
		for k := 0; k < p.n; k++ {
			if len(blk) < p.width {
				blk, next = p.blocks[next], next+1
			}
			out = append(out, blk[:p.width:p.width])
			blk = blk[p.width:]
		}
	}
	return out
}

// noOutput is the emitSpec of an output the pass does not have: no row
// passes on either side.
var noOutput = emitSpec{lPreds: boundPreds{never: true}, rPreds: boundPreds{never: true}}

// probe evaluates the stack over the join's evaluated inputs and returns
// the output of f.top; the rows of f.ranged inside the capture's range
// (nil when the stack carries no ranged capture); and the join's
// cardinality — the row count of every node below top — which is all the
// cost model, the capture sizes and the refresh bookkeeping need of those
// nodes.
//
// The build side is indexed once (buildJoinTable). The probe side is
// scanned in fixed chunks whose outputs concatenate in chunk order — so
// each output is probe-major, a probe row's matches in build-row order,
// columns always left ++ right before projection: byte for byte the
// sequential join, for any budget.
func (f *fusedJoin) probe(l, r *relation.Table, buildLeft bool, bud *budget) (out, captured *relation.Table, joined int) {
	li := l.Schema.ColIndex(f.join.LCol)
	ri := r.Schema.ColIndex(f.join.RCol)
	if li < 0 || ri < 0 {
		panic(fmt.Sprintf("engine: join columns %q/%q missing", f.join.LCol, f.join.RCol))
	}
	sp, csp := f.specs(len(l.Schema.Cols))
	if csp == nil {
		csp = &noOutput
	}
	build, probe, bi, pi := l, r, li, ri
	bPreds, pPreds := &sp.lPreds, &sp.rPreds
	cbPreds, cpPreds := &csp.lPreds, &csp.rPreds
	if !buildLeft {
		build, probe, bi, pi = r, l, ri, li
		bPreds, pPreds = pPreds, bPreds
		cbPreds, cpPreds = cpPreds, cbPreds
	}
	table := buildJoinTable(build.Rows, bi, bud)
	// emit writes one pair's columns; a column of the probe row is one of
	// the right input exactly when the build side is the left.
	emit := func(dst relation.Row, cols []colSrc, pr, br relation.Row) {
		for j, s := range cols {
			if s.right == buildLeft {
				dst[j] = pr[s.idx]
			} else {
				dst[j] = br[s.idx]
			}
		}
	}
	selective := !sp.lPreds.empty() || !sp.rPreds.empty()

	n := len(probe.Rows)
	parts := make([]rowBlocks, numChunks(n))
	cparts := make([]rowBlocks, numChunks(n))
	counts := make([]int, numChunks(n))
	forEachChunk(bud, n, func(c, lo, hi int) {
		first := min(hi-lo, relation.SlabRows)
		if selective {
			first = firstBlockRows
		}
		rows := newRowBlocks(len(sp.cols), first)
		crows := newRowBlocks(len(csp.cols), firstBlockRows)
		cnt := 0
		for _, pr := range probe.Rows[lo:hi] {
			pOK := pPreds.pass(pr)
			cOK := cpPreds.pass(pr)
			k := pr[pi].Int()
			for i := table.heads[table.slot(k)]; i != 0; i = table.next[i-1] {
				br := build.Rows[i-1]
				if br[bi].Int() != k {
					continue
				}
				cnt++
				if cOK && cbPreds.pass(br) {
					emit(crows.row(), csp.cols, pr, br)
				}
				if pOK && bPreds.pass(br) {
					emit(rows.row(), sp.cols, pr, br)
				}
			}
		}
		parts[c], cparts[c], counts[c] = rows, crows, cnt
	})
	out = relation.NewTable(sp.schema)
	out.Rows = assembleRows(parts)
	if f.ranged != nil {
		captured = relation.NewTable(csp.schema)
		captured.Rows = assembleRows(cparts)
	}
	for _, c := range counts {
		joined += c
	}
	return out, captured, joined
}
