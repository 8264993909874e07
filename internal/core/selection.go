package core

import (
	"deepsea/internal/interval"
	"deepsea/internal/partition"
	"deepsea/internal/pool"
	"deepsea/internal/stats"
)

// selectedView is a view candidate chosen for materialization, possibly
// only partially: when the pool cannot hold the whole view, only the
// selected initial fragments are written (Section 7.3 treats candidate
// fragments individually, so a 7 GB pool can hold the hot fragments of a
// 19 GB view).
type selectedView struct {
	vc viewCandidate
	// attr is the partition attribute ("" = store unpartitioned).
	attr string
	dom  interval.Interval
	// pieces lists the selected initial fragments; nil means all.
	pieces []interval.Interval
	// value is the selection's Φ ranking of the admitted candidate (the
	// max over its admitted pieces) — background maintenance orders its
	// queue by it.
	value float64
}

// admitted returns the key ranges the selection admitted of the view, as
// sorted, disjoint, non-adjacent intervals, and whether that is less than
// the whole view: false when every piece was admitted (pieces == nil),
// when the view is stored unpartitioned or equi-depth (both need every
// row), or when the admitted pieces cover the attribute's domain.
func (sv *selectedView) admitted(cfg *Config) (interval.Set, bool) {
	if sv.pieces == nil || sv.attr == "" || !cfg.adaptive() {
		return nil, false
	}
	ivs := interval.Set(sv.pieces).Union()
	if len(ivs) == 1 && ivs[0].ContainsInterval(sv.dom) {
		return nil, false
	}
	return ivs, true
}

// selectConfiguration implements Sections 7.2 and 7.3: filter view and
// fragment candidates by cost <= benefit, assemble ALLCAND (filtered
// candidates plus every fragment and unpartitioned view in the pool),
// rank by the configured value measure, and greedily pick the next
// configuration. Adaptive-mode view candidates enter ALLCAND as their
// individual initial fragments ("candidate views and fragments are
// treated alike"); non-partitioned and equi-depth views enter whole. It
// returns the views/fragments to materialize and the pool items to
// evict.
func (d *DeepSea) selectConfiguration(vcands []viewCandidate, fcands []fragCandidate) ([]selectedView, []fragCandidate, []pool.Candidate) {
	now := d.Eng.Now()
	decay := d.Stats.Decay

	// Section 7.2 filter: benefit must offset the marginal creation cost
	// (the write — the rows come for free as a by-product of execution).
	var vsel []viewCandidate
	for _, vc := range vcands {
		vs := d.Stats.View(vc.id)
		if vc.matCost <= d.viewBenefit(vs, now, decay) {
			vsel = append(vsel, vc)
		}
	}
	var psel []fragCandidate
	for _, fc := range fcands {
		if fc.createCost <= d.fragBenefit(fc.viewID, fc.attr, fc.iv, now, decay) {
			psel = append(psel, fc)
		}
	}

	// ALLCAND: filtered candidates + pool fragments + pool whole views.
	type newPiece struct {
		vc   viewCandidate
		attr string
		dom  interval.Interval
		iv   interval.Interval
	}
	var items []pool.Candidate
	backV := make(map[string]viewCandidate)    // whole-view candidates
	backP := make(map[string]newPiece)         // initial-fragment candidates
	backF := make(map[string]fragCandidate)    // refinement candidates
	wholeInfo := make(map[string]selectedView) // id -> attr/dom for whole views
	for _, fc := range psel {
		c := pool.Candidate{
			Kind:   pool.Frag,
			ViewID: fc.viewID,
			Attr:   fc.attr,
			Iv:     fc.iv,
			Size:   fc.estSize,
			Value:  d.fragValue(fc.viewID, fc.attr, fc.iv, now, decay),
		}
		items = append(items, c)
		backF[c.Key()] = fc
	}
	for _, vc := range vsel {
		proposed := false
		if d.Cfg.adaptive() {
			// Propose initial fragments for EVERY partition attribute
			// with selection evidence — the configuration's P(V, A)
			// mapping permits multiple partitions of a view on different
			// attributes (Definition 3).
			for _, pstat := range d.Stats.Partitions(vc.id) {
				if i := vc.schema.ColIndex(pstat.Attr); i < 0 || !vc.schema.Cols[i].Ordered {
					continue
				}
				attr, dom := pstat.Attr, pstat.Dom
				pieces := []interval.Interval(pstat.Cand.Clone())
				if len(pieces) == 0 {
					pieces = []interval.Interval{dom}
				}
				// Propose mergeable units at or above the block-size
				// bound, exactly as materialization would coalesce them
				// — otherwise a hot piece narrower than a block could
				// never be admitted and its range would stay a
				// permanent hole.
				pieces = coalesceMin(pieces, func(iv interval.Interval) int64 {
					return d.uniformFragSize(vc.id, dom, iv)
				}, d.Cfg.minFragBytes())
				var existing *partition.Partition
				if pv := d.Pool.View(vc.id); pv != nil {
					existing = pv.Parts[attr]
				}
				proposed = true
				for _, iv := range pieces {
					size := d.uniformFragSize(vc.id, dom, iv)
					if existing != nil {
						if _, _, gaps := existing.Cover(iv); len(gaps) == 0 {
							continue // already materialized
						}
					}
					c := pool.Candidate{
						Kind:   pool.Frag,
						ViewID: vc.id,
						Attr:   attr,
						Iv:     iv,
						Size:   size,
						Value:  d.fragValue(vc.id, attr, iv, now, decay),
					}
					if _, dup := backF[c.Key()]; dup {
						continue // a refinement candidate covers this piece
					}
					items = append(items, c)
					backP[c.Key()] = newPiece{vc: vc, attr: attr, dom: dom, iv: iv}
				}
			}
		}
		if proposed {
			continue
		}
		c := pool.Candidate{
			Kind:   pool.WholeView,
			ViewID: vc.id,
			Size:   vc.estBytes,
			Value:  d.viewValue(d.Stats.View(vc.id), now, decay),
		}
		items = append(items, c)
		backV[c.Key()] = vc
		attr, dom, _ := d.partitionKey(vc)
		wholeInfo[vc.id] = selectedView{vc: vc, attr: attr, dom: dom}
	}
	for _, pv := range d.Pool.Views() {
		if pv.Path != "" {
			items = append(items, pool.Candidate{
				Kind:   pool.WholeView,
				ViewID: pv.ID,
				Size:   pv.Size,
				Value:  d.viewValue(d.Stats.View(pv.ID), now, decay),
				InPool: true,
			})
		}
		for _, attr := range pv.PartAttrs() {
			for _, f := range pv.Parts[attr].Fragments() {
				items = append(items, pool.Candidate{
					Kind:   pool.Frag,
					ViewID: pv.ID,
					Attr:   attr,
					Iv:     f.Iv,
					Size:   f.Size,
					Value:  d.fragValue(pv.ID, attr, f.Iv, now, decay),
					InPool: true,
				})
			}
		}
	}

	keep, reject := pool.SelectGreedy(items, d.Cfg.Smax)

	// Group selected pieces by (view, attribute): a view may gain
	// partitions on several attributes in one round.
	byView := make(map[string]*selectedView)
	var order []string
	var selFrags []fragCandidate
	for _, c := range keep {
		if c.InPool {
			continue
		}
		if vc, ok := backV[c.Key()]; ok {
			key := vc.id
			sv := wholeInfo[vc.id]
			sv.value = c.Value
			if _, seen := byView[key]; !seen {
				byView[key] = &sv
				order = append(order, key)
			}
		}
		if np, ok := backP[c.Key()]; ok {
			key := np.vc.id + "\x00" + np.attr
			sv, seen := byView[key]
			if !seen {
				sv = &selectedView{vc: np.vc, attr: np.attr, dom: np.dom}
				byView[key] = sv
				order = append(order, key)
			}
			sv.pieces = append(sv.pieces, np.iv)
			if c.Value > sv.value {
				sv.value = c.Value
			}
		}
		if fc, ok := backF[c.Key()]; ok {
			fc.value = c.Value
			selFrags = append(selFrags, fc)
		}
	}
	var selViews []selectedView
	for _, id := range order {
		selViews = append(selViews, *byView[id])
	}
	var evict []pool.Candidate
	for _, c := range reject {
		if c.InPool {
			evict = append(evict, c)
		}
	}
	return selViews, selFrags, evict
}

// viewBenefit returns the admission benefit of a view under the
// configured policy.
func (d *DeepSea) viewBenefit(vs *stats.ViewStat, now float64, decay stats.Decay) float64 {
	switch d.Cfg.Selection {
	case SelectNectar:
		if len(vs.Uses) == 0 {
			return 0
		}
		return vs.Uses[len(vs.Uses)-1].Saving
	case SelectNectarPlus:
		var sum float64
		for _, u := range vs.Uses {
			sum += u.Saving
		}
		return sum
	default:
		return vs.Benefit(now, decay)
	}
}

// viewValue returns the ranking value of a view under the configured
// policy.
func (d *DeepSea) viewValue(vs *stats.ViewStat, now float64, decay stats.Decay) float64 {
	switch d.Cfg.Selection {
	case SelectNectar:
		return stats.NectarValue(vs, now)
	case SelectNectarPlus:
		return stats.NectarPlusValue(vs, now)
	default:
		return vs.Value(now, decay)
	}
}

// fragBenefit returns the admission benefit of a fragment under the
// configured policy. For the full DeepSea policy hits are smoothed by the
// partition's MLE normal fit (Section 7.1's probabilistic model).
func (d *DeepSea) fragBenefit(viewID, attr string, iv interval.Interval, now float64, decay stats.Decay) float64 {
	vs, ok := d.Stats.LookupView(viewID)
	if !ok {
		return 0
	}
	pstat, ok := d.Stats.LookupPartition(viewID, attr)
	if !ok {
		return 0
	}
	f := pstat.Frag(iv)
	d.refreshFragSize(f, viewID, pstat)
	switch d.Cfg.Selection {
	case SelectDeepSea:
		model := d.normalModel(viewID, attr, pstat, now, decay)
		if model.Valid() {
			return f.BenefitFromHits(model.AdjustedHits(iv), vs.Size, vs.Cost)
		}
		return f.Benefit(now, decay, vs.Size, vs.Cost)
	case SelectDeepSeaRawHits:
		return f.Benefit(now, decay, vs.Size, vs.Cost)
	case SelectNectar:
		if len(f.Hits) == 0 || vs.Size <= 0 {
			return 0
		}
		return float64(f.Size) / float64(vs.Size) * vs.Cost
	case SelectNectarPlus:
		if vs.Size <= 0 {
			return 0
		}
		return float64(f.Size) / float64(vs.Size) * vs.Cost * float64(len(f.Hits))
	default:
		return 0
	}
}

// refreshFragSize re-derives an unmeasured fragment's size estimate from
// the current view size: early size estimates can be stale (the view's
// own size is refined once the view is first captured).
func (d *DeepSea) refreshFragSize(f *stats.FragStat, viewID string, pstat *stats.PartitionStat) {
	if f.Measured {
		return
	}
	if est := d.uniformFragSize(viewID, pstat.Dom, f.Iv); est > 0 {
		f.Size = est
	}
}

// normalModel memoizes FitNormal per (view, attr) within one simulated
// timestamp — selection evaluates many fragments of the same partition.
func (d *DeepSea) normalModel(viewID, attr string, pstat *stats.PartitionStat, now float64, decay stats.Decay) stats.NormalModel {
	if d.mleCacheTime != now || d.mleCache == nil {
		d.mleCache = make(map[string]stats.NormalModel)
		d.mleCacheTime = now
	}
	key := viewID + "\x00" + attr
	if m, ok := d.mleCache[key]; ok {
		return m
	}
	m := pstat.FitNormal(now, decay)
	d.mleCache[key] = m
	return m
}

// fragValue returns the ranking value of a fragment under the configured
// policy.
//
// For the DeepSea policies the paper's Φ(I) = COST(V)·B(I)/S(I) is
// algebraically size-independent (the S(I) terms cancel into
// COST(V)²·H/S(V)), which under a storage budget would prefer
// arbitrarily large fragments over small hot ones. We therefore rank by
// the value DENSITY Φ(I)/S(I) — per-byte value, mirroring the
// 1/S structure the paper's view formula already has. Among equal-size
// fragments the ordering is unchanged (still by adjusted hits), so the
// fragment-correlation behaviour of Section 10.3 is preserved.
func (d *DeepSea) fragValue(viewID, attr string, iv interval.Interval, now float64, decay stats.Decay) float64 {
	vs, ok := d.Stats.LookupView(viewID)
	if !ok {
		return 0
	}
	pstat, ok := d.Stats.LookupPartition(viewID, attr)
	if !ok {
		return 0
	}
	f := pstat.Frag(iv)
	d.refreshFragSize(f, viewID, pstat)
	density := func(v float64) float64 {
		if f.Size <= 0 {
			return 0
		}
		return v / float64(f.Size)
	}
	switch d.Cfg.Selection {
	case SelectDeepSea:
		model := d.normalModel(viewID, attr, pstat, now, decay)
		if model.Valid() {
			return density(f.ValueFromHits(model.AdjustedHits(iv), vs.Size, vs.Cost))
		}
		return density(f.Value(now, decay, vs.Size, vs.Cost))
	case SelectDeepSeaRawHits:
		return density(f.Value(now, decay, vs.Size, vs.Cost))
	case SelectNectar:
		return stats.NectarFragValue(f, now, vs.Size, vs.Cost)
	case SelectNectarPlus:
		return stats.NectarPlusFragValue(f, now, vs.Size, vs.Cost)
	default:
		return 0
	}
}
