package core

import (
	"deepsea/internal/datastore"
	"deepsea/internal/interval"
	"deepsea/internal/matching"
	"deepsea/internal/partition"
	"deepsea/internal/query"
	"deepsea/internal/relation"
	"deepsea/internal/signature"
	"deepsea/internal/stats"
)

// viewCandidate is one Definition 6 candidate: a join, aggregation or
// projection subquery of the executed plan that does not exist in the
// pool.
type viewCandidate struct {
	id     string
	node   query.Node // node of qbest whose output can be captured
	schema relation.Schema
	// estBytes is the candidate's current size estimate (from
	// statistics).
	estBytes int64
	// matCost is the estimated *marginal* cost of materializing the
	// candidate — the write, since the rows are computed as a by-product
	// of the query. The admission filter compares this against the
	// accumulated benefit. (ViewStat.Cost, by contrast, holds the full
	// recompute cost per Section 7.1.)
	matCost float64
}

// viewCandidates implements COMPUTEVIEWCAND + ADDCANDIDATES for views:
// it registers every Definition 6 subquery in the statistics and the
// signature index and returns the creatable candidates. Candidates come
// from the ORIGINAL plan: when the executed plan was rewritten, a
// candidate's rows are either captured from a remainder execution or
// reconstructed from an existing complete partition of the view
// (materializeView), so the defining node need not execute itself.
func (d *DeepSea) viewCandidates(q, qbest query.Node) []viewCandidate {
	// Track pure subtrees of the executed plan too (remainder plans can
	// contain candidates of their own).
	for _, n := range query.CandidateNodes(qbest) {
		if containsViewScan(n) {
			continue
		}
		d.trackViewCandidate(qbest, n)
	}

	var out []viewCandidate
	seen := make(map[string]bool)
	for _, n := range query.CandidateNodes(q) {
		if containsViewScan(n) {
			continue
		}
		id := d.trackViewCandidate(q, n)
		if seen[id] {
			continue
		}
		seen[id] = true
		// Definition 6: Q' must not exist in V. Under adaptive
		// partitioning a view may be only PARTIALLY materialized (the
		// pool admitted some initial fragments); its unmaterialized
		// pieces remain candidates, so only an unpartitioned copy makes
		// the view "exist". Non-adaptive modes materialize
		// whole-or-nothing and any content excludes the view.
		if d.Cfg.adaptive() {
			if pv := d.Pool.View(id); pv != nil && pv.Path != "" {
				continue
			}
		} else if d.poolHasContent(id) {
			continue
		}
		vs := d.Stats.View(id)
		out = append(out, viewCandidate{
			id:       id,
			node:     n,
			schema:   n.Schema(),
			estBytes: vs.Size,
			matCost:  d.writeCostEstimate(vs.Size, 1),
		})
	}
	return out
}

// trackViewCandidate ensures statistics and a signature-index entry exist
// for the subquery of root and returns its id. A first-time candidate
// receives an initial benefit use — the saving it would have given the
// current query (ADDCANDIDATES' "initial rough estimate of their costs
// and benefits"); this is what lets a high-value view materialize during
// the very query that first produces it, as in the paper's Figure 6a.
//
// ViewStat.Cost is set to the view's full *recompute* cost (running its
// defining query plus writing the result): Section 7.1 defines a
// fragment's creation cost as the cost of recomputing and repartitioning
// its view, and both Φ and the fragment benefits scale with it.
func (d *DeepSea) trackViewCandidate(root, n query.Node) string {
	sig := signature.Of(n)
	id := sig.Key()
	if _, ok := d.Stats.LookupView(id); !ok {
		vs := d.Stats.View(id)
		_, bytes, err := d.Eng.EstimateSize(n)
		if err == nil {
			vs.Size = bytes
		}
		recompute := 0.0
		if c, err := d.Eng.EstimateCost(n); err == nil {
			recompute = c.Seconds
		}
		vs.Cost = recompute + d.writeCostEstimate(vs.Size, 1)
		// The initial size/cost estimates are set exactly once per tracked
		// view; journal them so a recovered registry does not hold the
		// view at Φ = 0 forever (this path never re-runs once the record
		// exists).
		d.journalVStat(vs)
		// The signature index is in-memory-only state the pool manifest
		// cannot reproduce (signatures come from query plans); journal the
		// entry once so a warm restart matches views without having seen
		// their defining queries.
		if d.store != nil {
			sch := sig.Schema()
			d.appendRecord(datastore.Record{Op: "track_view", View: id, Sig: sig, Schema: &sch})
		}
		if saving := d.initialSaving(root, n, vs.Size); saving > 0 {
			vs.RecordUse(d.Eng.Now(), saving)
		}
	}
	if _, ok := d.Tree.Lookup(id); !ok {
		d.Tree.Add(&matching.Entry{ID: id, Sig: sig, Schema: sig.Schema()})
	}
	return id
}

// initialSaving estimates the cost the current query would have saved had
// the candidate already been materialized: original cost minus the cost
// of the plan with the subtree replaced by a (virtual) view read.
func (d *DeepSea) initialSaving(root, n query.Node, viewBytes int64) float64 {
	if viewBytes <= 0 {
		return 0
	}
	orig, err := d.Eng.EstimateCost(root)
	if err != nil {
		return 0
	}
	vs := &query.ViewScan{
		ViewID:     "candidate",
		ViewPath:   "virtual://candidate",
		ViewBytes:  viewBytes,
		ViewSchema: n.Schema(),
	}
	rewritten, err := d.Eng.EstimateCost(query.Replace(root, n, vs))
	if err != nil {
		return 0
	}
	saving := orig.Seconds - rewritten.Seconds
	if saving < 0 {
		return 0
	}
	return saving
}

// writeCostEstimate is the estimated creation cost of materializing bytes
// into the given number of files (the paper's initial COST(V) estimate —
// the materialization overhead, since the result itself is computed as a
// by-product of query execution).
func (d *DeepSea) writeCostEstimate(bytes, files int64) float64 {
	return d.Eng.CostModel().WriteCost(bytes, files)
}

// poolHasContent reports whether the view exists in the pool with any
// materialized data.
func (d *DeepSea) poolHasContent(id string) bool {
	pv := d.Pool.View(id)
	if pv == nil {
		return false
	}
	if pv.Path != "" {
		return true
	}
	for _, part := range pv.Parts {
		if part.NumFragments() > 0 {
			return true
		}
	}
	return false
}

func containsViewScan(n query.Node) bool {
	found := false
	query.Walk(n, func(m query.Node) {
		if _, ok := m.(*query.ViewScan); ok {
			found = true
		}
	})
	return found
}

// fragCandidate is one Definition 7 candidate fragment, or a "gap"
// candidate recoverable from a remainder computation of the executed
// query.
type fragCandidate struct {
	viewID string
	attr   string
	iv     interval.Interval
	// estSize is the estimated stored size.
	estSize int64
	// createCost is the estimated cost of materializing the fragment
	// (Section 7.2; for gap candidates, the write cost only — the rows
	// are captured from the remainder execution for free).
	createCost float64
	// fromGap marks candidates materializable from a captured remainder.
	fromGap bool
	// gapNode is the remainder plan node whose output holds the
	// fragment's rows (fromGap only).
	gapNode query.Node
	// byproduct marks overlap-mode candidates whose rows flow through
	// the executed query anyway (the query reads a cover of the
	// candidate), so only the write is charged — the paper's
	// "repartitioning as a by-product of query answering" (Section 2,
	// Example 2). Horizontal splits never qualify: their complement
	// pieces are not in the query's stream.
	byproduct bool
	// value is the selection's Φ ranking of the admitted candidate —
	// background maintenance orders its queue by it. Set by
	// selectConfiguration on the candidates it returns.
	value float64
}

// fragCandidates implements Definition 7 (partition candidates) plus the
// gap-recovery extension. For each selection σ_{l<=A<=u}(Q') of the
// original plan over a tracked view:
//
//   - the candidate partitioning in PSTAT is refined at the selection's
//     end points (and at guard boundaries one query-width to each side);
//     unmaterialized pieces of it are what the pool-selection step can
//     admit, and it seeds the initial partitioning at materialization;
//   - if the view's partition on A is materialized and the strategy
//     refines, the end points additionally induce split candidates of
//     existing fragments (priced write-only when the executed query
//     already streams their rows — by-product repartitioning);
//   - if the executed rewriting computed remainder gaps whose content
//     equals the view's content over the gap, each gap becomes a
//     candidate creatable by capturing the remainder output.
func (d *DeepSea) fragCandidates(q query.Node, bestRW *matching.Rewriting) []fragCandidate {
	if !d.Cfg.Materialize {
		return nil
	}
	now := d.Eng.Now()
	var out []fragCandidate
	seen := make(map[string]bool)

	// inExecutedStream reports whether the rows of iv flow through the
	// executed plan: the chosen rewriting reads this (view, attr)
	// partition and fully covers iv.
	inExecutedStream := func(viewID, attr string, iv interval.Interval) bool {
		if bestRW == nil || bestRW.ViewID != viewID || bestRW.PartAttr != attr {
			return false
		}
		if !bestRW.Needed.ContainsInterval(iv) {
			return false
		}
		for _, g := range bestRW.Gaps {
			if g.Overlaps(iv) {
				return false
			}
		}
		return true
	}

	add := func(fc fragCandidate) {
		key := fc.viewID + "/" + fc.attr + "/" + fc.iv.String()
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, fc)
	}

	query.Walk(q, func(n query.Node) {
		sel, ok := n.(*query.Select)
		if !ok {
			return
		}
		child := sel.Child
		switch child.(type) {
		case *query.Join, *query.Aggregate, *query.Project:
		default:
			return
		}
		if containsViewScan(child) {
			return
		}
		csig := signature.Of(child)
		viewID := csig.Key()
		if _, tracked := d.Stats.LookupView(viewID); !tracked {
			return
		}
		childSchema := child.Schema()
		for _, rp := range sel.Ranges {
			ci := childSchema.ColIndex(rp.Col)
			if ci < 0 || !childSchema.Cols[ci].Ordered {
				continue
			}
			col := childSchema.Cols[ci]
			dom := interval.New(col.Lo, col.Hi)
			r, overlap := rp.Iv.Intersect(dom)
			if !overlap {
				continue
			}
			pstat := d.Stats.Partition(viewID, rp.Col, dom)

			pv := d.Pool.View(viewID)
			// Bound the tracked-fragment population: expired candidates
			// carry no benefit signal and only slow the MLE fit.
			pstat.PruneExpired(now, d.Stats.Decay, func(iv interval.Interval) bool {
				return d.fragMaterialized(viewID, rp.Col, iv)
			})
			var materializedPart = false
			if pv != nil && pv.Parts[rp.Col] != nil && pv.Parts[rp.Col].NumFragments() > 0 {
				materializedPart = true
			}

			// The candidate partitioning keeps refining regardless of
			// materialization state: under partial materialization it
			// describes the pieces a future query may still admit. Guard
			// boundaries at twice the query width on each side carve
			// medium pieces next to the hot range (fragment correlation:
			// neighbours of hot spots are likely future hits), so
			// slightly drifted queries land on small fragments instead
			// of huge cold ones.
			if d.Cfg.adaptive() {
				created := pstat.RefineCand(r)
				if !d.Cfg.NoGuards {
					w := r.Len()
					for _, g := range []interval.Interval{
						{Lo: r.Lo - w, Hi: r.Lo - 1},
						{Lo: r.Hi + 1, Hi: r.Hi + w},
					} {
						if gc, ok := g.Intersect(dom); ok {
							created = append(created, pstat.RefineCand(gc)...)
						}
					}
				}
				for _, iv := range created {
					fs := pstat.Frag(iv)
					if fs.Size == 0 {
						fs.Size = d.uniformFragSize(viewID, dom, iv)
					}
				}
				// The query hits every candidate fragment overlapping
				// its range; these hits seed the benefit model.
				for _, iv := range pstat.Cand {
					if iv.Overlaps(r) {
						recordCandidateHit(pstat.Frag(iv), now)
					}
				}
			}

			if materializedPart {
				if !d.Cfg.refines() {
					continue
				}
				part := pv.Parts[rp.Col]
				for _, cand := range interval.CandidatesForQuery(dom, part.Intervals(), r) {
					// Only the split pieces the query actually touches
					// are materialization candidates; the complement
					// pieces exist solely as forced siblings of a
					// horizontal split (Example 2: overlapping mode
					// exists precisely to avoid writing them).
					if !cand.Overlaps(r) {
						continue
					}
					if coverIsFineGrained(part, cand, 1.5) {
						continue // refinement has converged here
					}
					size := part.EstimateCandidateSize(cand)
					if size < d.Cfg.minFragBytes() {
						continue // lower bound: file-system block size
					}
					fs := pstat.Frag(cand)
					if fs.Size == 0 {
						fs.Size = size
					}
					recordCandidateHit(fs, now)
					fc := fragCandidate{
						viewID:     viewID,
						attr:       rp.Col,
						iv:         cand,
						estSize:    size,
						createCost: d.refinementCostEstimate(part, cand),
					}
					if d.Cfg.overlapping() && !d.Cfg.NoByproduct && inExecutedStream(viewID, rp.Col, cand) {
						fc.byproduct = true
						fc.createCost = d.writeCostEstimate(size, 1)
					}
					add(fc)
				}
			}
		}
	})

	// Gap recovery from the executed rewriting's remainders.
	if bestRW != nil && bestRW.HasRemainder && bestRW.GapsArePure && d.Cfg.refines() {
		pv := d.Pool.View(bestRW.ViewID)
		if pv != nil {
			if vs, ok := d.Stats.LookupView(bestRW.ViewID); ok {
				part := pv.Parts[bestRW.PartAttr]
				for i, g := range bestRW.Gaps {
					size := d.uniformFragSize(bestRW.ViewID, part.Dom, g)
					if size < d.Cfg.minFragBytes() {
						continue
					}
					pstat := d.Stats.Partition(bestRW.ViewID, bestRW.PartAttr, part.Dom)
					fs := pstat.Frag(g)
					if fs.Size == 0 {
						fs.Size = size
					}
					recordCandidateHit(fs, now)
					add(fragCandidate{
						viewID:     bestRW.ViewID,
						attr:       bestRW.PartAttr,
						iv:         g,
						estSize:    size,
						createCost: d.writeCostEstimate(size, 1),
						fromGap:    true,
						gapNode:    bestRW.Remainders[i],
					})
				}
				_ = vs
			}
		}
	}
	return out
}

// refinementCostEstimate prices the materialization of a candidate
// fragment: read every overlapping parent, write either the split pieces
// (horizontal) or just the candidate (overlapping mode). This is the
// paper's COST(Icand) generalised to account for sibling writes forced by
// horizontal splitting.
func (d *DeepSea) refinementCostEstimate(part *partition.Partition, cand interval.Interval) float64 {
	ref := part.PlanRefinement(cand)
	cm := d.Eng.CostModel()
	var cost float64
	var readBytes int64
	for _, f := range ref.Read {
		readBytes += f.Size
	}
	sec, _ := cm.ReadCost(readBytes, int64(len(ref.Read)))
	cost += sec
	var writeBytes int64
	for _, iv := range ref.Write {
		writeBytes += part.EstimateCandidateSize(iv)
	}
	if len(ref.Write) > 0 {
		cost += cm.WriteCost(writeBytes, int64(len(ref.Write)))
	}
	return cost
}

// coverIsFineGrained reports whether the candidate's range is already
// fully covered by fragments no more than factor times its own width —
// in which case a further refinement would buy (almost) nothing and only
// churn storage. This is the convergence condition of progressive
// partitioning: once the hot region is tiled at query granularity, the
// stream of slightly-shifted candidates stops producing work.
func coverIsFineGrained(part *partition.Partition, cand interval.Interval, factor float64) bool {
	frags, _, gaps := part.Cover(cand)
	if len(gaps) > 0 {
		return false
	}
	for _, f := range frags {
		if float64(f.Iv.Len()) > factor*float64(cand.Len()) {
			return false
		}
	}
	return true
}

// uniformFragSize estimates a fragment's size as the view-size share of
// its interval length (uniform-distribution assumption).
func (d *DeepSea) uniformFragSize(viewID string, dom, iv interval.Interval) int64 {
	vs, ok := d.Stats.LookupView(viewID)
	if !ok || vs.Size <= 0 {
		return 0
	}
	return int64(float64(vs.Size) * float64(iv.Len()) / float64(dom.Len()))
}

// recordCandidateHit records a hit for the generating query, guarding
// against duplicates at the same timestamp.
func recordCandidateHit(fs *stats.FragStat, now float64) {
	if n := len(fs.Hits); n > 0 && fs.Hits[n-1] == now {
		return
	}
	fs.RecordHit(now)
}
