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

// boundPreds is a conjunction of range and residual predicates with
// column names resolved to row indices once per operator, not once per
// row. A predicate over a column the schema lacks matches nothing.
type boundPreds struct {
	ranges []boundRange
	cmps   []boundCmp
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
}

// fuseJoin recognises the stack rooted at n. rowsWanted reports the
// nodes whose rows the caller will read (row-level capture); such a
// node cannot sit below top, so it stops the fusion and becomes the top
// of its own, shorter stack.
func fuseJoin(n query.Node, rowsWanted func(query.Node) bool) (fusedJoin, bool) {
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
		if rowsWanted(m) {
			return fusedJoin{}, false
		}
	}
	return f, true
}

// colSrc names the source of one output column: a column of the join's
// left or right input.
type colSrc struct {
	right bool
	idx   int
}

// emitSpec is what the kernel writes per matching (left, right) row
// pair: the output columns' sources, and the predicates a pair must pass
// to be written at all, split by the input row they read.
type emitSpec struct {
	schema         relation.Schema
	cols           []colSrc
	lPreds, rPreds boundPreds
}

// spec resolves the stack against the join's inputs; nl is the width of
// a left input row.
func (f *fusedJoin) spec(nl int) emitSpec {
	js := f.join.Schema()
	src := func(i int) colSrc {
		if i < nl {
			return colSrc{idx: i}
		}
		return colSrc{right: true, idx: i - nl}
	}
	sp := emitSpec{schema: js}
	if f.proj == nil {
		sp.cols = make([]colSrc, len(js.Cols))
		for i := range sp.cols {
			sp.cols[i] = src(i)
		}
	} else {
		sp.schema = js.Project(f.proj.Cols)
		sp.cols = make([]colSrc, len(f.proj.Cols))
		for i, c := range f.proj.Cols {
			j := js.ColIndex(c)
			if j < 0 {
				panic(fmt.Sprintf("engine: projection column %q missing from %s", c, js.String()))
			}
			sp.cols[i] = src(j)
		}
	}
	if f.sel != nil {
		// A predicate reads the selection's input — the projected row —
		// so it resolves through the output columns to an input column.
		side := func(col string) (*boundPreds, int) {
			i := sp.schema.ColIndex(col)
			if i < 0 {
				return &sp.lPreds, -1
			}
			if s := sp.cols[i]; s.right {
				return &sp.rPreds, s.idx
			}
			return &sp.lPreds, sp.cols[i].idx
		}
		for _, p := range f.sel.Ranges {
			b, i := side(p.Col)
			b.addRange(i, p.Iv)
		}
		for _, p := range f.sel.Residuals {
			b, i := side(p.Col)
			b.addCmp(i, p)
		}
	}
	return sp
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

// probe evaluates the stack over the join's evaluated inputs and returns
// the output of f.top plus the join's cardinality — the row count of
// every node below top — which is all the cost model, the capture sizes
// and the refresh bookkeeping need of those nodes.
//
// The build side is indexed once (buildJoinTable). The probe side is
// scanned in fixed chunks whose outputs concatenate in chunk order — so
// the output is probe-major, a probe row's matches in build-row order,
// columns always left ++ right before projection: byte for byte the
// sequential join, for any budget. Output rows come from one slab per
// chunk.
func (f *fusedJoin) probe(l, r *relation.Table, buildLeft bool, bud *budget) (*relation.Table, int) {
	li := l.Schema.ColIndex(f.join.LCol)
	ri := r.Schema.ColIndex(f.join.RCol)
	if li < 0 || ri < 0 {
		panic(fmt.Sprintf("engine: join columns %q/%q missing", f.join.LCol, f.join.RCol))
	}
	sp := f.spec(len(l.Schema.Cols))
	build, probe, bi, pi := l, r, li, ri
	bPreds, pPreds := &sp.lPreds, &sp.rPreds
	if !buildLeft {
		build, probe, bi, pi = r, l, ri, li
		bPreds, pPreds = pPreds, bPreds
	}
	table := buildJoinTable(build.Rows, bi, bud)

	n := len(probe.Rows)
	parts := make([][]relation.Row, numChunks(n))
	joined := make([]int, numChunks(n))
	forEachChunk(bud, n, func(c, lo, hi int) {
		slab := relation.NewSlab(len(sp.cols), hi-lo)
		var rows []relation.Row
		cnt := 0
		for _, pr := range probe.Rows[lo:hi] {
			pOK := pPreds.pass(pr)
			k := pr[pi].Int()
			for i := table.heads[table.slot(k)]; i != 0; i = table.next[i-1] {
				br := build.Rows[i-1]
				if br[bi].Int() != k {
					continue
				}
				cnt++
				if !pOK || !bPreds.pass(br) {
					continue
				}
				out := slab.Next()
				for j, s := range sp.cols {
					if s.right == buildLeft {
						out[j] = pr[s.idx]
					} else {
						out[j] = br[s.idx]
					}
				}
				if rows == nil {
					rows = make([]relation.Row, 0, min(hi-lo, relation.SlabRows))
				}
				rows = append(rows, out)
			}
		}
		parts[c], joined[c] = rows, cnt
	})
	out := relation.NewTable(sp.schema)
	out.Rows = concatChunks(parts)
	total := 0
	for _, c := range joined {
		total += c
	}
	return out, total
}
