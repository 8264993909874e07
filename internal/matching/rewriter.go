package matching

import (
	"fmt"
	"sort"

	"deepsea/internal/engine"
	"deepsea/internal/interval"
	"deepsea/internal/pool"
	"deepsea/internal/query"
	"deepsea/internal/signature"
	"deepsea/internal/stats"
)

// Rewriting is one way of answering (part of) a query with a view.
type Rewriting struct {
	// ViewID is the matched view.
	ViewID string
	// Target is the query subtree the view replaces.
	Target query.Node
	// Plan is the full rewritten plan. Virtual rewritings (view not in
	// the pool, used only for benefit bookkeeping) still carry a plan so
	// their cost can be estimated, but must never be executed.
	Plan query.Node
	// EstCost is the estimated cost of Plan.
	EstCost engine.Cost
	// UsesPool reports whether every file the plan reads is
	// materialized; only such rewritings are executable.
	UsesPool bool
	// PartAttr is the partition attribute used ("" when the view is read
	// unpartitioned).
	PartAttr string
	// Needed is the range of PartAttr the query requires (the partition
	// attribute's whole domain when the query does not restrict it).
	Needed interval.Interval
	// CoverFrags lists the intervals of the materialized fragments
	// chosen by Algorithm 2 (empty for unpartitioned or virtual use).
	CoverFrags []interval.Interval
	// HasRemainder reports whether uncovered gaps are computed from base
	// data.
	HasRemainder bool
	// Gaps lists the uncovered subranges, parallel to Remainders.
	Gaps []interval.Interval
	// Remainders lists the remainder plans inserted for the gaps.
	Remainders []query.Node
	// GapsArePure reports whether each remainder's output is exactly the
	// view's content over its gap (no residual/projection compensation
	// involved), so a captured remainder can be materialized directly as
	// the missing fragment.
	GapsArePure bool
}

// Rewriter enumerates rewritings of queries over the current pool and
// statistics.
type Rewriter struct {
	Eng   *engine.Engine
	Pool  *pool.Pool
	Stats *stats.Registry
	Tree  *FilterTree
	// PhysicalOnly restricts matching to exact signature equality (no
	// compensation) — ReStore-style physical matching.
	PhysicalOnly bool
}

// ComputeRewritings implements COMPUTEREWRITINGS of Algorithm 1: it
// matches every subtree of root against the indexed views and constructs
// a rewriting per usable (view, partition) pair, plus a virtual rewriting
// for each matched view that is not usable from the pool (so its
// statistics still accumulate the benefit it would have provided). The
// original plan's estimated cost is returned alongside.
func (r *Rewriter) ComputeRewritings(root query.Node) ([]Rewriting, engine.Cost, error) {
	return r.ComputeRewritingsExcluding(root, nil, nil)
}

// ComputeRewritingsExcluding is ComputeRewritings limited in what a
// rewriting may read. serves, when non-nil, reports whether a pool
// view's stored content may answer the query: content at another
// consistency point than the query's would serve rows the query must
// not see, or miss rows it must. No rewriting reads a path in exclude —
// stored files the query already failed to read — whatever the pool
// holds under that path by now. A view left with nothing to read gets
// its virtual rewriting, so its statistics still accumulate and it stays
// a live candidate.
func (r *Rewriter) ComputeRewritingsExcluding(root query.Node, serves func(viewID string) bool, exclude map[string]bool) ([]Rewriting, engine.Cost, error) {
	origCost, err := r.Eng.EstimateCost(root)
	if err != nil {
		return nil, engine.Cost{}, err
	}
	var out []Rewriting
	var nodes []query.Node
	query.Walk(root, func(n query.Node) {
		if _, ok := n.(*query.ViewScan); !ok {
			nodes = append(nodes, n)
		}
	})
	for _, n := range nodes {
		qsig := signature.Of(n)
		for _, entry := range r.Tree.Candidates(qsig) {
			comp, ok := signature.Match(entry.Sig, qsig)
			if !ok {
				continue
			}
			if r.PhysicalOnly && (len(comp.Ranges) > 0 || len(comp.Residuals) > 0 || comp.Project != nil) {
				continue // physical matching: the stored result must be the query verbatim
			}
			rws, err := r.buildRewritings(root, n, entry, comp, serves, exclude)
			if err != nil {
				return nil, engine.Cost{}, err
			}
			out = append(out, rws...)
		}
	}
	return out, origCost, nil
}

// buildRewritings constructs the rewritings for one matched (view,
// subtree) pair: one per partition of the view in the pool, one for the
// unpartitioned file if stored, and a virtual one when nothing in the
// pool can serve the match — or nothing serves admits outside exclude.
func (r *Rewriter) buildRewritings(root, target query.Node, entry *Entry, comp signature.Compensation, serves func(string) bool, exclude map[string]bool) ([]Rewriting, error) {
	var out []Rewriting
	pv := r.Pool.View(entry.ID)
	if pv != nil && serves != nil && !serves(entry.ID) {
		pv = nil // the content must not serve this query; fall through to virtual
	}
	if pv != nil {
		attrs := make([]string, 0, len(pv.Parts))
		for a := range pv.Parts {
			attrs = append(attrs, a)
		}
		sort.Strings(attrs)
		for _, attr := range attrs {
			rw, ok, err := r.buildPartitioned(root, target, entry, comp, attr, exclude)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, rw)
			}
		}
		if pv.Path != "" && !exclude[pv.Path] {
			rw, err := r.buildUnpartitioned(root, target, entry, comp, pv.Path, pv.Size, true)
			if err != nil {
				return nil, err
			}
			out = append(out, rw)
		}
	}
	if len(out) == 0 {
		// Nothing usable in the pool: virtual rewriting for bookkeeping.
		vstat, ok := r.Stats.LookupView(entry.ID)
		if !ok || vstat.Size <= 0 {
			return nil, nil // no size estimate yet; skip
		}
		rw, err := r.buildUnpartitioned(root, target, entry, comp,
			"virtual://"+entry.ID, vstat.Size, false)
		if err != nil {
			return nil, err
		}
		out = append(out, rw)
	}
	return out, nil
}

func (r *Rewriter) buildUnpartitioned(root, target query.Node, entry *Entry, comp signature.Compensation, path string, size int64, inPool bool) (Rewriting, error) {
	vs := r.newViewScan(target, entry, comp)
	vs.ViewPath = path
	if !inPool {
		vs.ViewBytes = size
	}
	plan := query.Replace(root, target, vs)
	cost, err := r.Eng.EstimateCost(plan)
	if err != nil {
		return Rewriting{}, fmt.Errorf("matching: estimating unpartitioned rewriting over %s: %w", entry.ID, err)
	}
	return Rewriting{
		ViewID:   entry.ID,
		Target:   target,
		Plan:     plan,
		EstCost:  cost,
		UsesPool: inPool,
	}, nil
}

// buildPartitioned constructs a rewriting that reads a fragment cover of
// the needed range, with remainder plans for any gaps. It returns
// ok=false when the partition cannot serve the query (gaps exist but the
// partition attribute is not in the target's output, so no remainder
// selection can be placed on top of it), or when its cover reads an
// excluded path.
func (r *Rewriter) buildPartitioned(root, target query.Node, entry *Entry, comp signature.Compensation, attr string, exclude map[string]bool) (Rewriting, bool, error) {
	pv := r.Pool.View(entry.ID)
	part := pv.Parts[attr]
	if part == nil || part.NumFragments() == 0 {
		return Rewriting{}, false, nil
	}
	needed := part.Dom
	for _, rp := range comp.Ranges {
		if rp.Col == attr {
			iv, ok := rp.Iv.Intersect(part.Dom)
			if !ok {
				return Rewriting{}, false, nil // query needs nothing in-domain
			}
			needed = iv
		}
	}
	frags, reads, gaps := part.Cover(needed)
	if len(frags) == 0 && len(gaps) == 0 {
		return Rewriting{}, false, nil
	}
	for _, f := range frags {
		if exclude[f.Path] {
			return Rewriting{}, false, nil
		}
	}
	targetSchema := target.Schema()
	if len(gaps) > 0 && !targetSchema.Has(attr) {
		return Rewriting{}, false, nil
	}

	vs := r.newViewScan(target, entry, comp)
	vs.PartAttr = attr
	for i, f := range frags {
		vs.FragIDs = append(vs.FragIDs, f.Path)
		vs.Reads = append(vs.Reads, reads[i])
		vs.FragIvs = append(vs.FragIvs, f.Iv)
		vs.FragSizes = append(vs.FragSizes, f.Size)
	}
	var coverIvs []interval.Interval
	for _, f := range frags {
		coverIvs = append(coverIvs, f.Iv)
	}
	for _, g := range gaps {
		vs.Remainders = append(vs.Remainders, &query.Select{
			Child:  target,
			Ranges: []query.RangePred{{Col: attr, Iv: g}},
		})
	}
	if len(frags) == 0 {
		// Cover is entirely remainder; reading zero fragments is legal
		// but the ViewScan must still know its schema source. Treat as
		// not usable — the rewriting would be the original query plus
		// overhead.
		return Rewriting{}, false, nil
	}

	plan := query.Replace(root, target, vs)
	cost, err := r.Eng.EstimateCost(plan)
	if err != nil {
		return Rewriting{}, false, fmt.Errorf("matching: estimating partitioned rewriting over %s.%s: %w", entry.ID, attr, err)
	}
	pure := len(comp.Residuals) == 0 && comp.Project == nil && vs.CompProject == nil
	for _, rp := range comp.Ranges {
		if rp.Col != attr {
			pure = false
		}
	}
	return Rewriting{
		ViewID:       entry.ID,
		Target:       target,
		Plan:         plan,
		EstCost:      cost,
		UsesPool:     true,
		PartAttr:     attr,
		Needed:       needed,
		CoverFrags:   coverIvs,
		HasRemainder: len(gaps) > 0,
		Gaps:         gaps,
		Remainders:   vs.Remainders,
		GapsArePure:  pure,
	}, true, nil
}

// newViewScan builds the ViewScan skeleton shared by all rewriting
// shapes: view identity, schema, and compensation. When the view's
// output column order differs from the target's, an explicit projection
// restores the target's order so parents and result fingerprints see
// identical layouts.
func (r *Rewriter) newViewScan(target query.Node, entry *Entry, comp signature.Compensation) *query.ViewScan {
	vs := &query.ViewScan{
		ViewID:        entry.ID,
		ViewSchema:    entry.Schema,
		CompRanges:    comp.Ranges,
		CompResiduals: comp.Residuals,
		CompProject:   comp.Project,
	}
	if vs.CompProject == nil {
		ts := target.Schema()
		sameOrder := len(ts.Cols) == len(entry.Schema.Cols)
		if sameOrder {
			for i := range ts.Cols {
				if ts.Cols[i].Name != entry.Schema.Cols[i].Name {
					sameOrder = false
					break
				}
			}
		}
		if !sameOrder {
			cols := make([]string, len(ts.Cols))
			for i, c := range ts.Cols {
				cols[i] = c.Name
			}
			vs.CompProject = cols
		}
	}
	return vs
}
