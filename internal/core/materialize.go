package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"deepsea/internal/engine"
	"deepsea/internal/faults"
	"deepsea/internal/interval"
	"deepsea/internal/partition"
	"deepsea/internal/relation"
)

// materializeView stores a captured candidate view according to the
// configured partitioning mode and returns the charged cost. When the
// selection admitted only some initial fragments (sv.pieces), only those
// are written — partial materialization under a tight pool — and
// p.captured may hold only the rows inside them (captureRange), while
// p.capturedBytes is the size of the whole view either way.
//
// When the defining node did not execute (the query was rewritten) but a
// complete partition of the view already exists, the rows are
// reconstructed from that partition instead — this is how a view gains a
// partition on a second attribute: re-partitioning the fragments the
// rewriting just read (usedByQuery charges the reads only when the
// executed plan did not already pay for them).
func (d *DeepSea) materializeView(p *matViewTask) (engine.Cost, bool, error) {
	sv, captured, planCounts := p.sv, p.captured, p.baseCounts
	vc := sv.vc
	// One Materialize-site injection decision per view materialization
	// attempt; a fault here fails the attempt before anything is written.
	if err := d.faults.Check(faults.Materialize, vc.id); err != nil {
		return engine.Cost{}, false, fmt.Errorf("core: materialize view %s: %w", shortID(vc.id), err)
	}
	vs := d.Stats.View(vc.id)
	var reconstructCost engine.Cost
	fromFiles := false
	if captured == nil {
		var ok bool
		captured, reconstructCost, ok = d.reconstructView(vc.id, p.usedByQuery)
		if !ok {
			return engine.Cost{}, false, nil // no row source this round
		}
		fromFiles = true
	}
	if !fromFiles && !d.ingestFragGuard(vc.id, planCounts) {
		// The view already stores content at another consistency point
		// (stale, or refreshed past this query's planning): adding rows
		// captured at planCounts would mix the two.
		return engine.Cost{}, false, nil
	}
	// Captured rows are a query's; reconstructed ones the store's own.
	viewBytes := p.capturedBytes
	write := d.Eng.WriteMaterialized
	if fromFiles {
		viewBytes = captured.Bytes()
		write = d.Eng.RewriteMaterialized
	}

	mode := d.Cfg.Partition
	attr, dom := sv.attr, sv.dom
	if mode != PartitionNone && attr == "" {
		// No usable partition key: fall back to unpartitioned storage.
		mode = PartitionNone
	}

	var cost engine.Cost
	d.Pool.Ensure(vc.id, vc.schema)
	switch mode {
	case PartitionNone:
		path := d.viewPath(vc.id)
		var err error
		cost, err = write(path, captured)
		if err != nil {
			return cost, false, fmt.Errorf("core: materialize view %s: %w", shortID(vc.id), err)
		}
		d.Pool.SetViewFile(vc.id, path, viewBytes)

	default:
		ivs, err := d.initialPartitioning(sv, viewBytes, captured)
		if err != nil {
			return engine.Cost{}, false, err
		}
		// Partial materialization may extend an existing partition. Write
		// only the parts of each piece not already covered by existing
		// fragments or by an earlier piece: coalesced proposals can span
		// a materialized fragment plus a hole, and a horizontal partition
		// must stay disjoint.
		part := d.Pool.EnsurePartition(vc.id, attr, dom, d.Cfg.overlapping())
		covered := part.Intervals()
		var writes []interval.Interval
		for _, piece := range ivs {
			gaps := []interval.Interval{piece}
			if len(covered) > 0 {
				gaps = covered.Gaps(piece)
			}
			writes = append(writes, gaps...)
			covered = append(covered, gaps...)
		}
		frags := fragmentRows(captured, attr, writes)
		for i, iv := range writes {
			path := d.fragPath(vc.id, attr, iv)
			fragBytes := frags[i].Bytes()
			wc, err := write(path, frags[i])
			if err != nil {
				// Fragments from earlier iterations are already registered
				// in the pool and stay: a partial partition is valid (gaps
				// fall back to remainder plans), and the FS and pool still
				// agree.
				return cost, false, fmt.Errorf("core: materialize view %s: %w", shortID(vc.id), err)
			}
			cost.Add(wc)
			d.Pool.AddFragment(vc.id, attr, partition.Fragment{Iv: iv, Path: path, Size: fragBytes})
			fs := d.Stats.Partition(vc.id, attr, dom).Frag(iv)
			fs.Size = fragBytes
			fs.Measured = true
			d.journalFStat(vc.id, attr, fs)
		}
	}

	cost.Add(reconstructCost)
	vs.Size = viewBytes
	// vs.Cost keeps the recompute estimate (Section 7.1's COST(V));
	// the charged materialization overhead is returned to the caller.
	vs.Measured = true
	d.journalVStat(vs)
	// Register the view's ingest consistency point: captured content is
	// exact at the proposing query's planning-time base counts (or
	// registers stale if an append raced the execution); reconstructed
	// content keeps the existing metadata's consistency point.
	d.registerIngestView(vc.id, vc.node, planCounts, fromFiles)
	return cost, true, nil
}

// reconstructView rebuilds a view's rows from a partition that fully
// covers its domain (clipped so overlapping fragments contribute each
// range once). free marks reads already paid for by the executed query.
func (d *DeepSea) reconstructView(id string, free bool) (*relation.Table, engine.Cost, bool) {
	pv := d.Pool.View(id)
	if pv == nil {
		return nil, engine.Cost{}, false
	}
	for _, attr := range pv.PartAttrs() {
		part := pv.Parts[attr]
		frags, reads, gaps := part.Cover(part.Dom)
		if len(gaps) > 0 || len(frags) == 0 {
			continue
		}
		out := relation.NewTable(pv.Schema)
		ai := pv.Schema.ColIndex(part.Attr)
		if ai < 0 {
			continue
		}
		var cost engine.Cost
		ok := true
		for i, f := range frags {
			tbl := d.Eng.Materialized(f.Path)
			if tbl == nil {
				ok = false
				break
			}
			for _, row := range tbl.Rows {
				if reads[i].Contains(row[ai].Int()) {
					out.Append(row)
				}
			}
			if !free {
				sec, tasks := d.Eng.CostModel().ReadCost(f.Size, 1)
				cost.Add(engine.Cost{Seconds: sec, ReadBytes: f.Size, MapTasks: tasks})
			}
		}
		if ok {
			return out, cost, true
		}
	}
	return nil, engine.Cost{}, false
}

// partitionKey picks the partition attribute for a new view: the ordered
// attribute with tracked partition statistics (selection evidence),
// preferring the one with the most recorded hits. It returns ok=false if
// the view has no such attribute.
func (d *DeepSea) partitionKey(vc viewCandidate) (string, interval.Interval, bool) {
	type cand struct {
		attr string
		dom  interval.Interval
		hits int
	}
	var cands []cand
	for _, pstat := range d.Stats.Partitions(vc.id) {
		if i := vc.schema.ColIndex(pstat.Attr); i < 0 || !vc.schema.Cols[i].Ordered {
			continue
		}
		n := 0
		for _, f := range pstat.Fragments() {
			n += len(f.Hits)
		}
		cands = append(cands, cand{attr: pstat.Attr, dom: pstat.Dom, hits: n})
	}
	if len(cands) == 0 {
		return "", interval.Interval{}, false
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].hits != cands[j].hits {
			return cands[i].hits > cands[j].hits
		}
		return cands[i].attr < cands[j].attr
	})
	return cands[0].attr, cands[0].dom, true
}

// initialPartitioning derives the fragment intervals for a view being
// materialized: equi-depth boundaries for the E-k baseline, or the
// workload-derived candidate partitioning (PSTAT) for the adaptive
// modes, bounded per Section 9 (split fragments above φ·S(V), never
// below the block size). A non-nil sv.pieces restricts the adaptive
// partitioning to the selection-admitted fragments.
//
// Every interval whose size the adaptive path asks for lies inside the
// union of sv.pieces: guardSplit and partition.Bound subdivide a piece,
// coalesceMin merges adjacent ones. That is what lets captured hold the
// rows inside the admitted pieces only; the sizer checks it, and a probe
// outside is an error, not a zero.
func (d *DeepSea) initialPartitioning(sv selectedView, viewBytes int64, captured *relation.Table) ([]interval.Interval, error) {
	vc, attr, dom, pieces := sv.vc, sv.attr, sv.dom, sv.pieces
	if d.Cfg.Partition == PartitionEquiDepth {
		k := d.Cfg.EquiDepthK
		if k < 1 {
			return nil, fmt.Errorf("core: equi-depth partitioning requires EquiDepthK >= 1")
		}
		return equiDepthFromData(captured, attr, k, dom), nil
	}

	pstat := d.Stats.Partition(vc.id, attr, dom)
	var ivs []interval.Interval
	if pieces != nil {
		ivs = append(ivs, pieces...)
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].Lo < ivs[j].Lo })
	} else {
		ivs = []interval.Interval(pstat.Cand.Clone())
	}
	if len(ivs) == 0 {
		ivs = []interval.Interval{dom}
	}

	// Guard fragments: carve medium-sized fragments out of the cold
	// pieces bordering hot (query-derived) pieces. The paper's
	// fragment-correlation analysis says exactly this — domain parts
	// close to hot spots have a high chance of being hit — and its
	// Figure 6 run produces six fragments from a single observed query,
	// which a bare three-way split cannot explain. Guards keep the
	// inevitable spill of drifting selection ranges off the huge cold
	// fragments.
	if !d.Cfg.NoGuards {
		isHot := func(iv interval.Interval) bool {
			f, ok := pstat.Lookup(iv)
			return ok && len(f.Hits) > 0
		}
		ivs = guardSplit(ivs, isHot, 2)
	}

	within, _ := sv.admitted(&d.Cfg)
	sizer := newFragSizer(captured, attr, within)
	// Lower bound: coalesce runs of too-small fragments (block size).
	ivs = coalesceMin(ivs, sizer.sizeOf, d.Cfg.minFragBytes())
	// Upper bound: split fragments above φ·S(V).
	if d.Cfg.MaxFragFraction > 0 {
		maxBytes := int64(d.Cfg.MaxFragFraction * float64(viewBytes))
		ivs = partition.Bound(ivs, sizer.sizeOf, maxBytes, d.Cfg.minFragBytes())
	}
	if sizer.outside != nil {
		return nil, fmt.Errorf("core: partitioning view %s on %s sized %s, outside the admitted pieces %v its captured rows are complete for",
			shortID(vc.id), attr, *sizer.outside, within)
	}
	return ivs, nil
}

// guardSplit cuts guard fragments of guardFactor times the hot piece's
// width out of cold pieces adjacent to hot pieces. ivs must be sorted and
// disjoint; the result partitions the same region.
func guardSplit(ivs []interval.Interval, isHot func(interval.Interval) bool, guardFactor int64) []interval.Interval {
	var out []interval.Interval
	for i, iv := range ivs {
		if isHot(iv) {
			out = append(out, iv)
			continue
		}
		var cuts []int64
		if i > 0 && isHot(ivs[i-1]) && ivs[i-1].Hi+1 == iv.Lo {
			cuts = append(cuts, iv.Lo+ivs[i-1].Len()*guardFactor)
		}
		if i+1 < len(ivs) && isHot(ivs[i+1]) && iv.Hi+1 == ivs[i+1].Lo {
			cuts = append(cuts, iv.Hi+1-ivs[i+1].Len()*guardFactor)
		}
		out = append(out, iv.SplitAt(cuts...)...)
	}
	return out
}

// fragSizer is a fast interval-size estimator: it sorts the captured
// partition-key column once and answers each interval by binary search.
// (Bounding and coalescing probe many intervals.)
type fragSizer struct {
	vals  []int64 // the captured keys, ascending
	width int64
	// within lists the key ranges the captured rows are complete for
	// (sorted, disjoint, non-adjacent); nil means everywhere. outside is
	// the first interval asked about that no member of within contains.
	within  interval.Set
	outside *interval.Interval
}

func newFragSizer(captured *relation.Table, attr string, within interval.Set) *fragSizer {
	return &fragSizer{
		vals:   sortedKeys(captured, attr),
		width:  captured.Schema.RowWidth(),
		within: within,
	}
}

func (s *fragSizer) sizeOf(iv interval.Interval) int64 {
	if s.within != nil && s.outside == nil &&
		!slices.ContainsFunc(s.within, func(w interval.Interval) bool { return w.ContainsInterval(iv) }) {
		bad := iv
		s.outside = &bad
	}
	lo := sort.Search(len(s.vals), func(i int) bool { return s.vals[i] >= iv.Lo })
	hi := sort.Search(len(s.vals), func(i int) bool { return s.vals[i] > iv.Hi })
	return int64(hi-lo) * s.width
}

// sortedKeys returns the table's attr column, ascending.
func sortedKeys(tbl *relation.Table, attr string) []int64 {
	ai := tbl.Schema.ColIndex(attr)
	vals := make([]int64, len(tbl.Rows))
	for i, row := range tbl.Rows {
		vals[i] = row[ai].Int()
	}
	slices.Sort(vals)
	return vals
}

// fragmentRows deals the captured rows out to the fragments they belong
// to in one pass over the table. ivs must be disjoint; a fragment's rows
// keep their captured order. The fragments share the captured rows —
// storing one copies it (engine.WriteMaterialized).
func fragmentRows(captured *relation.Table, attr string, ivs []interval.Interval) []*relation.Table {
	byLo := make([]int, len(ivs))
	for i := range byLo {
		byLo[i] = i
	}
	slices.SortFunc(byLo, func(a, b int) int { return cmp.Compare(ivs[a].Lo, ivs[b].Lo) })
	out := make([]*relation.Table, len(ivs))
	for i := range out {
		out[i] = relation.NewTable(captured.Schema)
	}
	ai := captured.Schema.ColIndex(attr)
	for _, row := range captured.Rows {
		v := row[ai].Int()
		// The only interval that can hold v is the last one starting at
		// or below it.
		k := sort.Search(len(byLo), func(j int) bool { return ivs[byLo[j]].Lo > v }) - 1
		if k >= 0 && v <= ivs[byLo[k]].Hi {
			frag := out[byLo[k]]
			frag.Rows = append(frag.Rows, row)
		}
	}
	return out
}

// equiDepthFromData computes k fragment intervals holding approximately
// equal row counts (true equi-depth boundaries from the data's quantiles).
func equiDepthFromData(tbl *relation.Table, attr string, k int, dom interval.Interval) []interval.Interval {
	if len(tbl.Rows) == 0 || k <= 1 {
		return []interval.Interval{dom}
	}
	vals := sortedKeys(tbl, attr)
	cuts := make([]int64, 0, k-1)
	prev := dom.Lo
	for i := 1; i < k; i++ {
		q := vals[i*len(vals)/k]
		if q > prev && q <= dom.Hi {
			cuts = append(cuts, q)
			prev = q
		}
	}
	return dom.SplitAt(cuts...)
}

// coalesceMin merges adjacent intervals until each merged run reaches
// minBytes (the block-size lower bound for fragments). The last run may
// stay below the bound if the whole domain does.
func coalesceMin(ivs []interval.Interval, sizeOf func(interval.Interval) int64, minBytes int64) []interval.Interval {
	if minBytes <= 0 || len(ivs) == 0 {
		return ivs
	}
	var out []interval.Interval
	cur := ivs[0]
	curBytes := sizeOf(cur)
	for _, iv := range ivs[1:] {
		if curBytes < minBytes && iv.Lo == cur.Hi+1 {
			cur = interval.Interval{Lo: cur.Lo, Hi: iv.Hi}
			curBytes = sizeOf(cur)
			continue
		}
		out = append(out, cur)
		cur = iv
		curBytes = sizeOf(iv)
	}
	out = append(out, cur)
	// A too-small final run merges backwards.
	if len(out) >= 2 {
		last := out[len(out)-1]
		if sizeOf(last) < minBytes && out[len(out)-2].Hi+1 == last.Lo {
			out[len(out)-2] = interval.Interval{Lo: out[len(out)-2].Lo, Hi: last.Hi}
			out = out[:len(out)-1]
		}
	}
	return out
}

// materializeFrag materializes one selected fragment candidate: either
// from a captured remainder (gap recovery) or by a refinement plan over
// the existing fragments (split or overlapping creation). gapRows is the
// captured remainder output of a gap recovery (nil otherwise). It
// returns the charged cost and the intervals actually written.
func (d *DeepSea) materializeFrag(fc fragCandidate, gapRows *relation.Table, planCounts map[string]int64) (engine.Cost, []interval.Interval, error) {
	// One Materialize-site decision per fragment-materialization attempt,
	// keyed by the view so a view's backoff covers its fragments too.
	if err := d.faults.Check(faults.Materialize, fc.viewID); err != nil {
		return engine.Cost{}, nil, fmt.Errorf("core: materialize fragment %s.%s%s: %w", shortID(fc.viewID), fc.attr, fc.iv, err)
	}
	pv := d.Pool.View(fc.viewID)
	if pv == nil {
		return engine.Cost{}, nil, fmt.Errorf("core: fragment candidate for unknown pool view %s", shortID(fc.viewID))
	}
	part := pv.Parts[fc.attr]
	if part == nil {
		return engine.Cost{}, nil, fmt.Errorf("core: fragment candidate for missing partition %s.%s", shortID(fc.viewID), fc.attr)
	}
	pstat := d.Stats.Partition(fc.viewID, fc.attr, part.Dom)

	var cost engine.Cost
	if fc.fromGap {
		// The captured gap rows were computed by a query planned at
		// planCounts; storing them is only consistent if the view's
		// marks certify exactly that point. Refinements below need no
		// guard — they rearrange file content already at the marks.
		if !d.ingestFragGuard(fc.viewID, planCounts) {
			return cost, nil, nil
		}
		// The remainder execution already computed the gap's rows;
		// only the write is charged.
		if gapRows == nil {
			return engine.Cost{}, nil, fmt.Errorf("core: remainder output for gap %s not captured", fc.iv)
		}
		path := d.fragPath(fc.viewID, fc.attr, fc.iv)
		bytes := gapRows.Bytes()
		wc, err := d.Eng.WriteMaterialized(path, gapRows)
		if err != nil {
			return cost, nil, fmt.Errorf("core: materialize fragment %s.%s%s: %w", shortID(fc.viewID), fc.attr, fc.iv, err)
		}
		cost.Add(wc)
		d.Pool.AddFragment(fc.viewID, fc.attr, partition.Fragment{Iv: fc.iv, Path: path, Size: bytes})
		fs := pstat.Frag(fc.iv)
		fs.Size = bytes
		fs.Measured = true
		d.journalFStat(fc.viewID, fc.attr, fs)
		return cost, []interval.Interval{fc.iv}, nil
	}

	ref := part.PlanRefinement(fc.iv)
	if len(ref.Write) == 0 {
		return cost, nil, nil // candidate coincides with existing boundaries
	}
	// A horizontal refinement replaces its parents. If a concurrent
	// execution still reads one of them, skip the whole refinement (a
	// partial one would leave the partition overlapping); a later query
	// can retry once the reader finishes.
	for _, f := range ref.Drop {
		if d.isPinned(f.Path) {
			return cost, nil, nil
		}
	}
	// The candidate was derived against the pool as it stood during
	// selection; a concurrent query may have evicted a parent since. If
	// the surviving parents no longer cover what would be written, skip
	// the refinement — the candidate regenerates on a later query.
	readIvs := make(interval.Set, len(ref.Read))
	for i, f := range ref.Read {
		readIvs[i] = f.Iv
	}
	for _, iv := range ref.Write {
		if _, _, full := interval.ClippedCover(iv, readIvs); !full {
			return cost, nil, nil
		}
	}

	// Read the parents. By-product refinements reuse the rows the
	// executed query already streamed past, so the reads are free —
	// the partition operator forks the stream into a file sink.
	parents := make([]*relation.Table, len(ref.Read))
	for i, f := range ref.Read {
		if fc.byproduct {
			parents[i] = d.Eng.Materialized(f.Path)
			continue
		}
		tbl, rc, err := d.Eng.ReadMaterialized(f.Path)
		if err != nil {
			return engine.Cost{}, nil, fmt.Errorf("core: refinement of %s.%s%s: %w", shortID(fc.viewID), fc.attr, fc.iv, err)
		}
		cost.Add(rc)
		parents[i] = tbl
	}

	// Write the new fragments. Pool registration happens after the loop
	// so size estimates keep seeing only the pre-refinement fragments.
	var written []interval.Interval
	var pending []partition.Fragment
	// undoPending deletes fragments written by this refinement but not
	// yet pool-registered; on a mid-loop write failure it restores the
	// FS/pool agreement (registration only happens after the loop).
	undoPending := func(pending []partition.Fragment) {
		for _, f := range pending {
			d.Eng.DeleteMaterialized(f.Path)
		}
	}
	for _, iv := range ref.Write {
		path := d.fragPath(fc.viewID, fc.attr, iv)
		tbl, err := extractRows(parents, ref.Read, fc.attr, iv, pv.Schema)
		if err != nil {
			undoPending(pending)
			return engine.Cost{}, nil, err
		}
		bytes := tbl.Bytes()
		wc, werr := d.Eng.RewriteMaterialized(path, tbl)
		if werr != nil {
			undoPending(pending)
			return cost, nil, fmt.Errorf("core: refinement of %s.%s%s: %w", shortID(fc.viewID), fc.attr, fc.iv, werr)
		}
		cost.Add(wc)
		fs := pstat.Frag(iv)
		fs.Size = bytes
		fs.Measured = true
		d.journalFStat(fc.viewID, fc.attr, fs)
		written = append(written, iv)
		pending = append(pending, partition.Fragment{Iv: iv, Path: path, Size: bytes})
	}
	for _, f := range pending {
		d.Pool.AddFragment(fc.viewID, fc.attr, f)
	}

	// Drop replaced parents (horizontal splits).
	for _, f := range ref.Drop {
		d.Eng.DeleteMaterialized(f.Path)
		d.Pool.RemoveFragment(fc.viewID, fc.attr, f.Iv)
	}
	return cost, written, nil
}

// extractRows collects the rows of the new fragment interval from the
// parent fragments, reading each key subrange from exactly one parent so
// overlapping parents contribute no duplicates.
func extractRows(parents []*relation.Table, read []partition.Fragment, attr string, iv interval.Interval, schema relation.Schema) (*relation.Table, error) {
	ivs := make(interval.Set, len(read))
	for i, f := range read {
		ivs[i] = f.Iv
	}
	idx, clips, full := interval.ClippedCover(iv, ivs)
	if !full {
		return nil, fmt.Errorf("core: parents do not cover new fragment %s", iv)
	}
	out := relation.NewTable(schema)
	for k, pi := range idx {
		tbl := parents[pi]
		if tbl == nil {
			return nil, fmt.Errorf("core: parent fragment %s has no stored rows", read[pi].Iv)
		}
		ai := tbl.Schema.ColIndex(attr)
		for _, row := range tbl.Rows {
			if clips[k].Contains(row[ai].Int()) {
				out.Append(row)
			}
		}
	}
	return out, nil
}
