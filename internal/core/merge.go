package core

import (
	"fmt"

	"deepsea/internal/engine"
	"deepsea/internal/interval"
	"deepsea/internal/matching"
	"deepsea/internal/partition"
	"deepsea/internal/relation"
	"deepsea/internal/stats"
)

// coAccessThreshold is how many shared hit timestamps two adjacent
// fragments need before they are merged.
const coAccessThreshold = 3

// maybeMergeFragments implements the paper's Section 11 extension:
// "merge consecutive fragments that are mostly accessed together".
// After a query executed a fragment cover, adjacent cover members that
// have been co-accessed repeatedly are merged into a single fragment,
// trading one write (a by-product of the read that just happened) for
// all future per-file overheads. Merges respect the largest-fragment
// bound φ·S(V).
func (d *DeepSea) maybeMergeFragments(bestRW *matching.Rewriting) (engine.Cost, []string, error) {
	var cost engine.Cost
	if !d.Cfg.MergeFragments || bestRW == nil || bestRW.PartAttr == "" {
		return cost, nil, nil
	}
	pv := d.Pool.View(bestRW.ViewID)
	if pv == nil {
		return cost, nil, nil
	}
	part := pv.Parts[bestRW.PartAttr]
	if part == nil {
		return cost, nil, nil
	}
	pstat := d.Stats.Partition(bestRW.ViewID, bestRW.PartAttr, part.Dom)
	vs := d.Stats.View(bestRW.ViewID)
	maxBytes := int64(0)
	if d.Cfg.MaxFragFraction > 0 && vs.Size > 0 {
		maxBytes = int64(d.Cfg.MaxFragFraction * float64(vs.Size))
	}

	var merged []string
	cover := bestRW.CoverFrags
	for i := 0; i+1 < len(cover); i++ {
		a, b := cover[i], cover[i+1]
		if a.Hi+1 != b.Lo {
			continue
		}
		fa, okA := part.Lookup(a)
		fb, okB := part.Lookup(b)
		if !okA || !okB {
			continue
		}
		if maxBytes > 0 && fa.Size+fb.Size > maxBytes {
			continue
		}
		sa, oka := pstat.Lookup(a)
		sb, okb := pstat.Lookup(b)
		if !oka || !okb || sharedHits(sa.Hits, sb.Hits) < coAccessThreshold {
			continue
		}
		c, err := d.mergePair(pv.ID, part, pstat, fa, fb)
		if err != nil {
			return cost, merged, err
		}
		cost.Add(c)
		mergedIv := interval.Interval{Lo: a.Lo, Hi: b.Hi}
		merged = append(merged, fmt.Sprintf("%s.%s%s", shortID(pv.ID), bestRW.PartAttr, mergedIv))
		// The merged fragment replaces both cover entries for the next
		// pair inspection.
		cover = append(append(append([]interval.Interval{}, cover[:i]...), mergedIv), cover[i+2:]...)
		i--
	}
	return cost, merged, nil
}

// mergePair writes the concatenation of two adjacent fragments and drops
// the originals. The rows just flowed through the executing query, so
// only the write is charged.
func (d *DeepSea) mergePair(viewID string, part *partition.Partition, pstat *stats.PartitionStat, fa, fb partition.Fragment) (engine.Cost, error) {
	mergedIv := interval.Interval{Lo: fa.Iv.Lo, Hi: fb.Iv.Hi}
	path := d.fragPath(viewID, part.Attr, mergedIv)
	ta := d.Eng.Materialized(fa.Path)
	tb := d.Eng.Materialized(fb.Path)
	if ta == nil || tb == nil {
		return engine.Cost{}, fmt.Errorf("core: merge of %s/%s lost row data", fa.Iv, fb.Iv)
	}
	tbl := relation.NewTable(ta.Schema)
	tbl.Rows = append(append(tbl.Rows, ta.Rows...), tb.Rows...)
	cost, err := d.Eng.RewriteMaterialized(path, tbl)
	if err != nil {
		// Nothing was dropped yet, so a failed merge write leaves the
		// pair untouched — the merge simply did not happen.
		return cost, fmt.Errorf("core: merge of %s/%s: %w", fa.Iv, fb.Iv, err)
	}
	bytes := tbl.Bytes()
	d.Eng.DeleteMaterialized(fa.Path)
	d.Eng.DeleteMaterialized(fb.Path)
	d.Pool.RemoveFragment(viewID, part.Attr, fa.Iv)
	d.Pool.RemoveFragment(viewID, part.Attr, fb.Iv)
	d.Pool.AddFragment(viewID, part.Attr, partition.Fragment{Iv: mergedIv, Path: path, Size: bytes})

	fs := pstat.Frag(mergedIv)
	fs.Size = bytes
	fs.Measured = true
	d.journalFStat(viewID, part.Attr, fs)
	fs.RecordHit(d.Eng.Now())
	return cost, nil
}

// sharedHits counts timestamps present in both sorted hit lists.
func sharedHits(a, b []float64) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}
