package engine

import (
	"fmt"

	"deepsea/internal/interval"
	"deepsea/internal/query"
	"deepsea/internal/relation"
)

// The probe kernel. Query templates keep the range selection above the
// projected joins so the joins stay view candidates (Section 10.2), but
// that is a statement about the logical plan: nothing above the engine
// reads the rows of an intermediate it did not ask to capture, only
// their count. So a Select over a Project over a Join — or any suffix
// of that stack — is evaluated as one pass over the probe side that
// tests the predicates on the source rows and writes only the
// surviving, already-projected output rows. A bare Join is the same
// pass with the identity projection and no predicates.
//
// A left-deep chain of such stacks — Q7's store_sales⋈item⋈store, whose
// upper join probes with the rows of the lower one — is one pass too,
// over the deepest probe input: per probe row the pass walks the first
// level's build index, per match the next level's, and so on up; it
// counts every level's cardinality and writes only what passes the top
// selection. Each level builds on the side the join's orientation rule
// (buildsLeft) picks from exact input counts. A level that would build
// on the chain side cuts the chain there: the part below runs as its
// own pass, and its output is an ordinary input of the part above. A
// single stack is a chain of one level.
//
// The one intermediate a caller does read is a view it is about to
// store, and then only the part of it the pool admitted: a row capture
// restricted to a range (Capture.Col, Capture.Ivs). The pass serves one
// such capture of any node inside the chain as a second output — per
// match at the captured node's level it writes the node's columns if the
// combined row lies in the capture's range. Both outputs are the same
// thing to the kernel: a column list plus predicates split by the source
// row they read (emitSpec). An unrestricted row capture inside the chain,
// or a second ranged one, still stops the fusion there: all of the node
// would have to be written, which is what evaluating it on its own does.

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

// joinLevel is one Select?(Project?(Join)) stack of a chain.
type joinLevel struct {
	sel  *query.Select  // nil when the stack has no selection
	proj *query.Project // nil when the stack has no projection
	join *query.Join
	// nodes lists the stack's nodes from its top down. Under the top they
	// all have the join's cardinality: a projection keeps every row.
	nodes []query.Node
}

func (lv *joinLevel) top() query.Node { return lv.nodes[0] }

// stackAt recognises the stack rooted at n.
func stackAt(n query.Node) (joinLevel, bool) {
	lv := joinLevel{nodes: []query.Node{n}}
	inner := n
	if s, ok := inner.(*query.Select); ok {
		lv.sel, inner = s, s.Child
	}
	if p, ok := inner.(*query.Project); ok {
		lv.proj, inner = p, p.Child
	}
	j, ok := inner.(*query.Join)
	if !ok {
		return joinLevel{}, false
	}
	lv.join = j
	if lv.proj != nil && lv.sel != nil {
		lv.nodes = append(lv.nodes, lv.proj)
	}
	if lv.proj != nil || lv.sel != nil {
		lv.nodes = append(lv.nodes, j)
	}
	return lv, true
}

// fusedJoin is a left-deep chain of stacks the kernel evaluates in one
// pass, levels[0] the deepest: from the second level up, the left input
// of each level's join is the top of the level under it. The top of the last
// level is the node whose output the pass produces; no other node of the
// chain is ever materialized.
type fusedJoin struct {
	levels []joinLevel
	// ranged is the node whose rows inside want's range the pass writes to
	// its second output; nil when the caller asked for none.
	ranged query.Node
	want   Capture
}

// fuseJoin recognises the one-level chain rooted at n. capture is the
// run's capture map: a node under the top whose every row the caller
// will read stops the fusion and becomes the top of its own, shorter
// stack; one ranged capture under the top rides along as the pass's
// second output, and a second one stops the fusion like a whole capture.
func fuseJoin(n query.Node, capture map[query.Node]Capture) (fusedJoin, bool) {
	lv, ok := stackAt(n)
	if !ok {
		return fusedJoin{}, false
	}
	f := fusedJoin{levels: []joinLevel{lv}}
	if !f.takeCaptures(lv.nodes[1:], capture) {
		return fusedJoin{}, false
	}
	return f, true
}

// takeCaptures admits the row captures of nodes into the chain: it
// reports false, leaving f alone, when one of them is whole or would be
// the chain's second ranged capture.
func (f *fusedJoin) takeCaptures(nodes []query.Node, capture map[query.Node]Capture) bool {
	ranged, want := f.ranged, f.want
	for _, m := range nodes {
		c := capture[m]
		if c.Level != CaptureRows {
			continue
		}
		if !c.ranged() || ranged != nil {
			return false
		}
		ranged, want = m, c
	}
	f.ranged, f.want = ranged, want
	return true
}

// extend grows the chain downward while the deepest join's left input
// is itself a stack whose nodes the captures let the pass skip. Whether
// the pass may probe with that input's rows depends on counts and is
// settled at run time (probe).
func (f *fusedJoin) extend(capture map[query.Node]Capture) {
	for {
		lv, ok := stackAt(f.levels[0].join.Left)
		if !ok || !f.takeCaptures(lv.nodes, capture) {
			return
		}
		f.levels = append([]joinLevel{lv}, f.levels...)
	}
}

// top returns the node whose output the pass produces.
func (f *fusedJoin) top() query.Node { return f.levels[len(f.levels)-1].top() }

// inputs lists the subplans the chain reads: the deepest join's two
// inputs, then each later level's right input.
func (f *fusedJoin) inputs() []query.Node {
	in := []query.Node{f.levels[0].join.Left, f.levels[0].join.Right}
	for _, lv := range f.levels[1:] {
		in = append(in, lv.join.Right)
	}
	return in
}

// colSrc names the source of one output column: column idx of the row
// the pass has bound at source src — 0 the deepest probe row, k the
// build row matched at the pass's level k-1.
type colSrc struct {
	src, idx int
}

// emitSpec is one output of the pass, as what the kernel writes per
// match at the output's level: the output columns' sources, and the
// predicates a combined row must pass to be written at all, split by
// the source row they read (preds[s] reads source s).
type emitSpec struct {
	cols  []colSrc
	preds []boundPreds
}

// bindSel adds a selection's predicates, over the output of a node with
// the given schema and column sources, to preds.
func bindSel(preds []boundPreds, s relation.Schema, cols []colSrc, sel *query.Select) {
	for _, p := range sel.Ranges {
		if i := s.ColIndex(p.Col); i < 0 {
			preds[0].never = true
		} else {
			preds[cols[i].src].addRange(cols[i].idx, p.Iv)
		}
	}
	for _, p := range sel.Residuals {
		if i := s.ColIndex(p.Col); i < 0 {
			preds[0].never = true
		} else {
			preds[cols[i].src].addCmp(cols[i].idx, p)
		}
	}
}

// projectCols resolves a projection's columns through the sources of its
// input's columns.
func projectCols(s relation.Schema, in []colSrc, proj *query.Project) []colSrc {
	cols := make([]colSrc, len(proj.Cols))
	for i, c := range proj.Cols {
		j := s.ColIndex(c)
		if j < 0 {
			panic(fmt.Sprintf("engine: projection column %q missing from %s", c, s.String()))
		}
		cols[i] = in[j]
	}
	return cols
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

// levelCount is one level's cardinalities in a pass: joined counts its
// join's output rows, passed its top's (the rows its selection keeps).
type levelCount struct {
	joined, passed int
}

// passLevel is one level of a pass, resolved against the pass's sources:
// the level's build rows and their index, the source of its probe key,
// and its top's columns and selection.
type passLevel struct {
	rows  []relation.Row
	table *joinTable
	bkey  int
	pkey  colSrc
	out   emitSpec
}

// chainPass is one pass over levels [lo, lo+len(levels)) of a chain.
type chainPass struct {
	f      *fusedJoin
	lo     int
	probe  []relation.Row
	levels []passLevel
	// capAt is the pass level that writes the ranged capture, cap its
	// spec; capAt is -1 when the pass carries none.
	capAt int
	cap   emitSpec
	bud   *budget
}

// startPass begins a pass at level lo of f over the level's evaluated
// inputs, building on the left one when buildLeft is set.
func (f *fusedJoin) startPass(lo int, l, r *relation.Table, buildLeft bool, bud *budget) *chainPass {
	j := f.levels[lo].join
	build, probe, bcol, pcol := l, r, j.LCol, j.RCol
	lsrc, rsrc := 1, 0
	if !buildLeft {
		build, probe, bcol, pcol = r, l, j.RCol, j.LCol
		lsrc, rsrc = 0, 1
	}
	nl := len(l.Schema.Cols)
	cols := make([]colSrc, nl+len(r.Schema.Cols))
	for i := range cols {
		if i < nl {
			cols[i] = colSrc{lsrc, i}
		} else {
			cols[i] = colSrc{rsrc, i - nl}
		}
	}
	p := &chainPass{f: f, lo: lo, probe: probe.Rows, capAt: -1, bud: bud}
	p.add(build, bcol, colSrc{0, probe.Schema.ColIndex(pcol)}, cols)
	return p
}

// extend adds the next level of the chain to the pass, probing with the
// output of the pass so far; build is the level's right input.
func (p *chainPass) extend(build *relation.Table) {
	i := p.lo + len(p.levels)
	j := p.f.levels[i].join
	chain := p.levels[len(p.levels)-1].out.cols
	cols := append(make([]colSrc, 0, len(chain)+len(build.Schema.Cols)), chain...)
	for c := range build.Schema.Cols {
		cols = append(cols, colSrc{len(p.levels) + 1, c})
	}
	pkey := colSrc{idx: -1}
	below := p.f.levels[i-1].top().Schema()
	if k := below.ColIndex(j.LCol); k >= 0 {
		pkey = chain[k]
	}
	p.add(build, j.RCol, pkey, cols)
}

// add resolves the next level of the pass — its build rows and key, the
// source of its probe key, the sources of its join's columns — and
// indexes the build rows.
func (p *chainPass) add(build *relation.Table, bcol string, pkey colSrc, joinCols []colSrc) {
	lv := &p.f.levels[p.lo+len(p.levels)]
	bkey := build.Schema.ColIndex(bcol)
	if bkey < 0 || pkey.idx < 0 {
		panic(fmt.Sprintf("engine: join columns %q/%q missing", lv.join.LCol, lv.join.RCol))
	}
	srcs := len(p.levels) + 2
	out := emitSpec{cols: joinCols, preds: make([]boundPreds, srcs)}
	if lv.proj != nil {
		out.cols = projectCols(lv.join.Schema(), joinCols, lv.proj)
	}
	if lv.sel != nil {
		bindSel(out.preds, lv.sel.Schema(), out.cols, lv.sel)
	}
	for _, m := range lv.nodes {
		if m != p.f.ranged {
			continue
		}
		p.capAt = len(p.levels)
		p.cap = emitSpec{cols: out.cols, preds: make([]boundPreds, srcs)}
		if m == query.Node(lv.join) {
			p.cap.cols = joinCols
		}
		s := m.Schema()
		if lv.sel != nil && m == query.Node(lv.sel) {
			bindSel(p.cap.preds, s, p.cap.cols, lv.sel)
		}
		if i := s.ColIndex(p.f.want.Col); i < 0 {
			p.cap.preds[0].never = true
		} else {
			c := p.cap.cols[i]
			p.cap.preds[c.src].addIn(c.idx, p.f.want.Ivs)
		}
	}
	p.levels = append(p.levels, passLevel{
		rows:  build.Rows,
		table: buildJoinTable(build.Rows, bkey, p.bud),
		bkey:  bkey,
		pkey:  pkey,
		out:   out,
	})
}

// passAll reports whether every bound row passes its predicates.
func passAll(preds []boundPreds, bound []relation.Row) bool {
	for s := range preds {
		if !preds[s].pass(bound[s]) {
			return false
		}
	}
	return true
}

// emitAt writes one output row from the rows bound under a level (under,
// sources 0 to k-1), r, the row probing it (source k), and br, its match
// there (source k+1).
func emitAt(dst relation.Row, cols []colSrc, under []relation.Row, r, br relation.Row) {
	k := len(under)
	for j, s := range cols {
		row := br
		if s.src == k {
			row = r
		} else if s.src < k {
			row = under[s.src]
		}
		dst[j] = row[s.idx]
	}
}

// walkBatch is how many probes a level matches before the next level
// walks the matches they collected: enough that the walk is a loop, not
// a call per match, and few enough that a chunk's buffers do not grow
// with the join.
const walkBatch = 64

// walker is one chunk's state in a pass: per level the matches waiting
// for the next level and the counts, and the two outputs, written only
// when write is set.
type walker struct {
	p         *chainPass
	next      [][]relation.Row
	counts    []levelCount
	write     bool
	out, capt rowBlocks
}

// walkers returns n walkers of the pass, their scratch carved from one
// allocation per kind.
func (p *chainPass) walkers(n int) []walker {
	l := len(p.levels)
	next, counts := make([][]relation.Row, n*l), make([]levelCount, n*l)
	ws := make([]walker, n)
	for i := range ws {
		lo, hi := i*l, (i+1)*l
		ws[i] = walker{p: p, next: next[lo:hi:hi], counts: counts[lo:hi:hi]}
	}
	return ws
}

// walk joins each tuple of bound — the k+1 source rows that probe level
// k, laid end to end — with its matches there. At the top level a match
// that passes the selection is written; below it, the tuple extended by
// the match is collected, and the next level walks the collected tuples
// after every batch of probes. Batches keep their order, so every output
// stays probe-major.
func (w *walker) walk(k int, bound []relation.Row) {
	if k == len(w.p.levels)-1 {
		w.match(k, bound)
		return
	}
	step := walkBatch * (k + 1)
	for lo := 0; lo < len(bound); lo += step {
		w.match(k, bound[lo:min(lo+step, len(bound))])
		if next := w.next[k]; len(next) > 0 {
			w.walk(k+1, next)
			w.next[k] = next[:0]
		}
	}
}

// match is walk's loop over one level, which calls nothing per probe or
// per match but a predicate test: it counts the tuples' matches and
// writes or collects the passing ones. The predicates of a tuple's rows
// are tested once, before its matches.
func (w *walker) match(k int, bound []relation.Row) {
	p := w.p
	lv := &p.levels[k]
	t, rows, bkey, pkey := *lv.table, lv.rows, lv.bkey, lv.pkey
	post := &lv.out.preds[k+1]
	top := k == len(p.levels)-1
	write, capAt := w.write && top, w.write && k == p.capAt
	out, capt, next := w.out, w.capt, w.next[k]
	if !top && next == nil {
		// A batch of probes with a match each, twice over: the buffer grows
		// only past a fan-out of two.
		next = make([]relation.Row, 0, 2*walkBatch*(k+2))
	}
	joined, passed := 0, 0
	for j := k; j < len(bound); j += k + 1 {
		r := bound[j]
		var under []relation.Row
		if k > 0 {
			under = bound[j-k : j : j]
		}
		var key int64
		if pkey.src == k {
			key = r[pkey.idx].Int()
		} else {
			key = under[pkey.src][pkey.idx].Int()
		}
		pass := lv.out.preds[k].pass(r) && passAll(lv.out.preds[:k], under)
		c := capAt && p.cap.preds[k].pass(r) && passAll(p.cap.preds[:k], under)
		if !pass && !c {
			// Most probes under a selection: nothing to write, only count.
			for i := t.heads[t.slot(key)]; i != 0; i = t.next[i-1] {
				if rows[i-1][bkey].Int() == key {
					joined++
				}
			}
			continue
		}
		for i := t.heads[t.slot(key)]; i != 0; i = t.next[i-1] {
			br := rows[i-1]
			if br[bkey].Int() != key {
				continue
			}
			joined++
			if c && p.cap.preds[k+1].pass(br) {
				emitAt(capt.row(), p.cap.cols, under, r, br)
			}
			if !pass || !post.pass(br) {
				continue
			}
			passed++
			if write {
				emitAt(out.row(), lv.out.cols, under, r, br)
			} else if !top {
				next = append(append(append(next, under...), r), br)
			}
		}
	}
	if write {
		w.out = out
	}
	if capAt {
		w.capt = capt
	}
	w.next[k] = next
	w.counts[k].joined += joined
	w.counts[k].passed += passed
}

// reaches reports whether the pass's output has at least n rows, walking
// probe rows only until it knows.
func (p *chainPass) reaches(n int) bool {
	w := &p.walkers(1)[0]
	top := &w.counts[len(w.counts)-1]
	for lo := 0; lo < len(p.probe) && top.passed < n; lo += walkBatch {
		w.walk(0, p.probe[lo:min(lo+walkBatch, len(p.probe))])
	}
	return top.passed >= n
}

// segment is the outcome of one pass over levels [lo, hi) of a chain:
// the top's output, the ranged capture's rows (nil when the pass carries
// none) and every level's cardinalities.
type segment struct {
	lo, hi        int
	out, captured *relation.Table
	counts        []levelCount
}

// run makes the pass. The deepest probe input is scanned in fixed chunks
// whose outputs concatenate in chunk order — so each output is
// probe-major, a probe row's matches at every level in build-row order,
// columns always left ++ right before projection: byte for byte the
// sequential joins one after the other, for any budget.
func (p *chainPass) run() segment {
	top := &p.levels[len(p.levels)-1]
	selective := false
	for i := range p.levels {
		for s := range p.levels[i].out.preds {
			selective = selective || !p.levels[i].out.preds[s].empty()
		}
	}
	n := len(p.probe)
	ws := p.walkers(numChunks(n))
	forEachChunk(p.bud, n, func(c, lo, hi int) {
		first := min(hi-lo, relation.SlabRows)
		if selective {
			first = firstBlockRows
		}
		w := &ws[c]
		w.write = true
		w.out = newRowBlocks(len(top.out.cols), first)
		w.capt = newRowBlocks(len(p.cap.cols), firstBlockRows)
		w.walk(0, p.probe[lo:hi])
	})
	s := segment{lo: p.lo, hi: p.lo + len(p.levels), counts: make([]levelCount, len(p.levels))}
	parts, cparts := make([]rowBlocks, len(ws)), make([]rowBlocks, len(ws))
	for c := range ws {
		parts[c], cparts[c] = ws[c].out, ws[c].capt
		for i, lc := range ws[c].counts {
			s.counts[i].joined += lc.joined
			s.counts[i].passed += lc.passed
		}
	}
	s.out = relation.NewTable(p.f.levels[s.hi-1].top().Schema())
	s.out.Rows = assembleRows(parts)
	if p.capAt >= 0 {
		s.captured = relation.NewTable(p.f.ranged.Schema())
		s.captured.Rows = assembleRows(cparts)
	}
	return s
}

// probe evaluates the chain over its evaluated inputs — l and r, the
// deepest join's, and uppers[i-1], the right input of level i — and
// returns its passes in order, the last one producing the output of
// f.top(). buildLeft orients the deepest join;
// every later level takes the orientation buildsLeft gives its exact
// input counts, and where that builds on the chain side the chain is cut
// and the next pass starts there over the output of the one before.
// The counts are all the cost model, the capture sizes and the refresh
// bookkeeping need of the nodes no pass writes.
func (f *fusedJoin) probe(l, r *relation.Table, buildLeft bool, uppers []*relation.Table, bud *budget) []segment {
	p := f.startPass(0, l, r, buildLeft, bud)
	var segs []segment
	for i := 1; i < len(f.levels); i++ {
		// The chain, the left input, is the probe side exactly when
		// buildsLeft does not pick it: when it is strictly larger.
		r := uppers[i-1]
		if p.reaches(len(r.Rows) + 1) {
			p.extend(r)
			continue
		}
		s := p.run()
		segs = append(segs, s)
		p = f.startPass(i, s.out, r, buildsLeft(len(s.out.Rows), len(r.Rows)), bud)
	}
	return append(segs, p.run())
}
