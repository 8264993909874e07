// Package shard scales DeepSea out: a scatter-gather coordinator
// range-partitions the item_sk domain across N deepsea serving
// instances, routes each query to the shards owning its selection
// range, runs it there in partial-aggregate mode, and merges the
// per-shard states into the final result.
//
// The merge is deterministic by construction — byte-identical for any
// shard count and any placement of rows:
//
//   - Partial sums travel as exact lossless encodings (see
//     engine.MergePartialSums), so merging them is associative: no
//     float rounding happens until the single final conversion.
//   - Merged rows are sorted by a canonical encoding of their group
//     key, erasing per-shard arrival and first-seen order.
//   - The one-shard cluster takes the same path, so it is the byte
//     reference the multi-shard runs are compared against.
package shard

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"deepsea/internal/engine"
	"deepsea/internal/query"
)

// mergeKind is what a result column contributes to the merge.
type mergeKind int

const (
	mkGroup  mergeKind = iota // group-by key: part of the row identity
	mkCount                   // int64 sum of per-shard counts
	mkSum                     // exact merge of encoded partial sums
	mkAvgSum                  // exact sum half of an average
	mkAvgN                    // count half of an average (consumed by mkAvgSum)
	mkMin                     // minimum across shards
	mkMax                     // maximum across shards
)

// colPlan is the merge recipe for one input column.
type colPlan struct {
	kind mergeKind
	name string // output column name (partial suffix stripped)
}

// planColumns classifies a partial result header. The avg state spans
// two adjacent input columns (sum then n, as query.PartialCols emits
// them); the n column folds into its sum column's output.
func planColumns(cols []string) ([]colPlan, error) {
	plans := make([]colPlan, len(cols))
	for i, c := range cols {
		base, kind, ok := query.SplitPartialCol(c)
		if !ok {
			plans[i] = colPlan{kind: mkGroup, name: c}
			continue
		}
		switch kind {
		case query.PartialCount:
			plans[i] = colPlan{kind: mkCount, name: base}
		case query.PartialSum:
			plans[i] = colPlan{kind: mkSum, name: base}
		case query.PartialAvgSum:
			if i+1 >= len(cols) || cols[i+1] != base+"#"+query.PartialAvgN {
				return nil, fmt.Errorf("shard: avg state %q missing its count column", c)
			}
			plans[i] = colPlan{kind: mkAvgSum, name: base}
		case query.PartialAvgN:
			plans[i] = colPlan{kind: mkAvgN, name: base}
		case query.PartialMin:
			plans[i] = colPlan{kind: mkMin, name: base}
		case query.PartialMax:
			plans[i] = colPlan{kind: mkMax, name: base}
		default:
			return nil, fmt.Errorf("shard: unknown partial state kind %q in column %q", kind, c)
		}
	}
	return plans, nil
}

// OutputColumns returns the merged header for a partial header: group
// columns as-is, one column per aggregate (the avg n column collapses
// into its sum).
func OutputColumns(cols []string) ([]string, error) {
	plans, err := planColumns(cols)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(plans))
	for _, p := range plans {
		if p.kind == mkAvgN {
			continue
		}
		out = append(out, p.name)
	}
	return out, nil
}

// groupAcc is the merged state of one output group.
type groupAcc struct {
	groupVals []any      // decoded group-key values, in column order
	counts    []int64    // per mkCount column
	sums      [][]string // per mkSum/mkAvgSum column: encodings to merge
	avgNs     []int64    // per mkAvgN column
	mins      []any      // per mkMin column
	maxs      []any      // per mkMax column
}

// MergePartials merges per-shard partial-aggregate results (all sharing
// the header cols) into final rows, sorted canonically by group key.
// Row values must be as decoded by decodeWire: json.Number for numbers,
// string for strings — the coordinator re-marshals them untouched, so
// group keys and min/max winners round-trip byte-for-byte.
func MergePartials(cols []string, shardRows [][][]any) (outCols []string, outRows [][]any, err error) {
	plans, err := planColumns(cols)
	if err != nil {
		return nil, nil, err
	}
	outCols, _ = OutputColumns(cols)

	groups := make(map[string]*groupAcc)
	for _, rows := range shardRows {
		for _, row := range rows {
			if len(row) != len(plans) {
				return nil, nil, fmt.Errorf("shard: row has %d values, header has %d", len(row), len(plans))
			}
			key, err := groupKey(plans, row)
			if err != nil {
				return nil, nil, err
			}
			g := groups[key]
			if g == nil {
				g = newGroupAcc(plans, row)
				groups[key] = g
			}
			if err := g.fold(plans, row); err != nil {
				return nil, nil, err
			}
		}
	}

	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	outRows = make([][]any, 0, len(keys))
	for _, k := range keys {
		row, err := groups[k].finish(plans)
		if err != nil {
			return nil, nil, err
		}
		outRows = append(outRows, row)
	}
	return outCols, outRows, nil
}

// groupKey builds the canonical row identity: each group value length-
// prefixed so no concatenation of values collides with another.
func groupKey(plans []colPlan, row []any) (string, error) {
	var b strings.Builder
	for i, p := range plans {
		if p.kind != mkGroup {
			continue
		}
		s, err := scalarText(row[i])
		if err != nil {
			return "", fmt.Errorf("shard: group column %q: %w", p.name, err)
		}
		fmt.Fprintf(&b, "%d:%s;", len(s), s)
	}
	return b.String(), nil
}

func newGroupAcc(plans []colPlan, row []any) *groupAcc {
	g := &groupAcc{}
	for i, p := range plans {
		if p.kind == mkGroup {
			g.groupVals = append(g.groupVals, row[i])
		}
	}
	for _, p := range plans {
		switch p.kind {
		case mkCount:
			g.counts = append(g.counts, 0)
		case mkSum, mkAvgSum:
			g.sums = append(g.sums, nil)
		case mkAvgN:
			g.avgNs = append(g.avgNs, 0)
		case mkMin:
			g.mins = append(g.mins, nil)
		case mkMax:
			g.maxs = append(g.maxs, nil)
		}
	}
	return g
}

// fold accumulates one partial row into the group.
func (g *groupAcc) fold(plans []colPlan, row []any) error {
	var ci, si, ni, mi, xi int
	for i, p := range plans {
		switch p.kind {
		case mkCount:
			n, err := asInt64(row[i])
			if err != nil {
				return fmt.Errorf("shard: count column %q: %w", p.name, err)
			}
			g.counts[ci] += n
			ci++
		case mkSum, mkAvgSum:
			s, ok := row[i].(string)
			if !ok {
				return fmt.Errorf("shard: sum column %q: want encoded string, got %T", p.name, row[i])
			}
			g.sums[si] = append(g.sums[si], s)
			si++
		case mkAvgN:
			n, err := asInt64(row[i])
			if err != nil {
				return fmt.Errorf("shard: avg count column %q: %w", p.name, err)
			}
			g.avgNs[ni] += n
			ni++
		case mkMin:
			v, err := pickExtreme(g.mins[mi], row[i], true)
			if err != nil {
				return fmt.Errorf("shard: min column %q: %w", p.name, err)
			}
			g.mins[mi] = v
			mi++
		case mkMax:
			v, err := pickExtreme(g.maxs[xi], row[i], false)
			if err != nil {
				return fmt.Errorf("shard: max column %q: %w", p.name, err)
			}
			g.maxs[xi] = v
			xi++
		}
	}
	return nil
}

// finish renders the merged output row. Sums and averages round exactly
// once, here — the merge determinism rule.
func (g *groupAcc) finish(plans []colPlan) ([]any, error) {
	row := make([]any, 0, len(plans))
	var gi, ci, si, ni, mi, xi int
	for _, p := range plans {
		switch p.kind {
		case mkGroup:
			row = append(row, g.groupVals[gi])
			gi++
		case mkCount:
			row = append(row, g.counts[ci])
			ci++
		case mkSum:
			_, v, err := engine.MergePartialSums(g.sums[si]...)
			if err != nil {
				return nil, fmt.Errorf("shard: merging %q: %w", p.name, err)
			}
			row = append(row, v)
			si++
		case mkAvgSum:
			_, v, err := engine.MergePartialSums(g.sums[si]...)
			if err != nil {
				return nil, fmt.Errorf("shard: merging %q: %w", p.name, err)
			}
			si++
			// The adjacent mkAvgN plan holds this average's denominator.
			n := g.avgNs[ni]
			ni++
			if n == 0 {
				row = append(row, 0.0)
			} else {
				row = append(row, v/float64(n))
			}
		case mkAvgN:
			// consumed by mkAvgSum
		case mkMin:
			row = append(row, g.mins[mi])
			mi++
		case mkMax:
			row = append(row, g.maxs[xi])
			xi++
		}
	}
	return row, nil
}

// ConcatSorted merges non-aggregate results: shards own disjoint ranges
// so the row sets are disjoint, and a canonical whole-row sort erases
// shard order. The same sort applies at every shard count.
func ConcatSorted(shardRows [][][]any) ([][]any, error) {
	var out [][]any
	keys := make([]string, 0)
	for _, rows := range shardRows {
		for _, row := range rows {
			var b strings.Builder
			for _, v := range row {
				s, err := scalarText(v)
				if err != nil {
					return nil, err
				}
				fmt.Fprintf(&b, "%d:%s;", len(s), s)
			}
			out = append(out, row)
			keys = append(keys, b.String())
		}
	}
	sort.Sort(&rowSorter{keys: keys, rows: out})
	return out, nil
}

type rowSorter struct {
	keys []string
	rows [][]any
}

func (s *rowSorter) Len() int           { return len(s.keys) }
func (s *rowSorter) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *rowSorter) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
}

// scalarText renders a decoded wire value for key building. Numbers
// keep their exact wire text (decodeWire preserves json.Number), so two
// shards rendering the same value always agree. A type tag prevents the
// number 1 and the string "1" from colliding.
func scalarText(v any) (string, error) {
	switch t := v.(type) {
	case json.Number:
		return "n" + t.String(), nil
	case string:
		return "s" + t, nil
	case int64:
		return fmt.Sprintf("n%d", t), nil
	case float64:
		b, _ := json.Marshal(t)
		return "n" + string(b), nil
	case bool:
		return fmt.Sprintf("b%v", t), nil
	case nil:
		return "z", nil
	default:
		return "", fmt.Errorf("unsupported value type %T", v)
	}
}

// asInt64 parses a wire number as an exact integer.
func asInt64(v any) (int64, error) {
	switch t := v.(type) {
	case json.Number:
		return t.Int64()
	case int64:
		return t, nil
	case float64:
		n := int64(t)
		if float64(n) != t {
			return 0, fmt.Errorf("non-integer count %v", t)
		}
		return n, nil
	default:
		return 0, fmt.Errorf("want number, got %T", v)
	}
}

// pickExtreme keeps the smaller (min=true) or larger of cur and next.
func pickExtreme(cur, next any, min bool) (any, error) {
	if cur == nil {
		return next, nil
	}
	less, err := scalarLess(next, cur)
	if err != nil {
		return nil, err
	}
	if min == less {
		return next, nil
	}
	return cur, nil
}

// scalarLess orders two min/max states the way the engine orders the
// cells they came from: integral numbers as int64, which is exact where a
// float64 would round two values beyond 2^53 together and let the first
// shard's win; other numbers as float64; strings lexically. Of two equal
// numbers -0 comes first, so a tie between -0 and 0 cannot follow shard
// order either.
func scalarLess(a, b any) (bool, error) {
	fa, aNum := toFloat(a)
	fb, bNum := toFloat(b)
	if aNum && bNum {
		ia, aInt := toInt(a)
		ib, bInt := toInt(b)
		switch {
		case aInt && bInt && ia != ib:
			return ia < ib, nil
		case !(aInt && bInt) && fa != fb:
			return fa < fb, nil
		}
		return math.Signbit(fa) && !math.Signbit(fb), nil
	}
	sa, aStr := a.(string)
	sb, bStr := b.(string)
	if aStr && bStr {
		return sa < sb, nil
	}
	return false, fmt.Errorf("cannot compare %T with %T", a, b)
}

func toInt(v any) (int64, bool) {
	switch t := v.(type) {
	case json.Number:
		n, err := t.Int64()
		return n, err == nil
	case int64:
		return t, true
	default:
		return 0, false
	}
}

func toFloat(v any) (float64, bool) {
	switch t := v.(type) {
	case json.Number:
		f, err := t.Float64()
		return f, err == nil
	case int64:
		return float64(t), true
	case float64:
		return t, true
	default:
		return 0, false
	}
}
